"""Canonical byte encoding for everything that gets hashed or signed.

Rules, applied uniformly:
  - fixed field order per record type, one-byte type tag up front
  - integers big-endian fixed width (u32/u64/i64), no varints
  - strings are UTF-8 with a 4-byte big-endian length prefix
  - byte arrays are length-prefixed the same way, no padding
  - decoding is strict: trailing bytes are an error, so encoding is
    injective on valid records

App payloads are field maps: field name -> tagged value, encoded sorted by
name. The tag set is closed (int/str/bytes/digest) on purpose; anything
fancier belongs in its own record type.

Byte layouts of the hot encodings. ``lp(x)`` is x's byte length as a
big-endian u32, then x; a string is lp of its UTF-8 bytes. These are written
with precompiled ``struct`` packers joined once, one writer per layout, and
the three record types, genesis and the publish payload
(GossipMessage.publish_body) read with ``unpack_from`` at offsets. The
publish payload's validators share the author's record, which
make_envelope hands to its envelope; a copy is decoded only when a wire
hook changes the bytes or the header sizes do not decode. A claim's
encoding and an agent seed's are only hashed (into NewsClaim.claim_id and
the member's key seed), never decoded. Only the DNA, the rate-limit event
digest (dht) and the bench blocks still go through Writer, and are never
decoded by the program.

  field map (encode_fields)     header (chain.encode_header)
    u8   'F' (0x46)               u8   'H' (0x48)
    u32  field count              u64  seq
    per field, names ascending:   u64  timestamp
      lp   name (UTF-8)           lp   entry type (UTF-8)
      u8   tag                    32   entry hash
      value, by tag:              lp   author key (32 bytes to decode)
        1 int     i64             32   previous header hash
        2 str     lp (UTF-8)      lp   signature (64 bytes to decode)
        3 bytes   lp, length
                  never 32      record (chain.encode_record)
        4 digest  32 bytes        u8   'R' (0x52)
                                  lp   header
  claim id (dht.NewsClaim)        lp   payload
    u8   'N' (0x4E)
    lp   kind (UTF-8)           genesis (chain.encode_genesis)
    32   subject                  u8   'G' (0x47)
    lp   agent                    32   network id
    lp   extra                    lp   agent id
    lp   detail (UTF-8)           u8   membrane proof flag, 0 or 1
                                  lp   membrane proof, if flag 1
  agent seed (dht.agent_seed)   publish payload (dht.make_envelope)
    u64  run seed mod 2**64       32   network id
    u32  member index             lp   record
                                publish envelope, signed bytes
                                  7    'publish' (ASCII)
                                  u8   0x00
                                       publish payload, to the end

A bytes or bytearray value of exactly 32 bytes is always a digest. The
author signs the header up to and excluding its signature's lp.
"""

from __future__ import annotations

import struct
from typing import Any, Mapping

from .crypto import DIGEST_SIZE

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

# field map value tags
TAG_INT = 1
TAG_STR = 2
TAG_BYTES = 3
TAG_DIGEST = 4

# the u32 in front of every string and byte array
LEN_PREFIX = struct.Struct(">I")
# a digest, then the length prefix of the field after it
DIGEST_AND_LEN = struct.Struct(">32sI")
_FIELD_MAP_HEAD = struct.Struct(">BI")  # 'F', field count
_INT_VALUE = struct.Struct(">Bq")  # TAG_INT, value
_LP_VALUE = struct.Struct(">BI")  # TAG_STR or TAG_BYTES, value length
_I64 = struct.Struct(">q")
_DIGEST_TAG = bytes([TAG_DIGEST])

TRUNCATED = "truncated encoding"


class EncodingError(ValueError):
    """Raised when bytes do not decode as the requested record type."""


def check_tag(data: bytes, tag: int, message: str) -> None:
    """The first-byte check of a strict decoder: a missing byte is a
    truncation, a wrong one raises message."""
    if not data:
        raise EncodingError(TRUNCATED)
    if data[0] != tag:
        raise EncodingError(message)


def check_end(data: bytes, pos: int) -> None:
    """The last check of a strict decoder: nothing may follow pos."""
    if pos != len(data):
        raise EncodingError(f"{len(data) - pos} trailing bytes")


def u32_out_of_range(value: int) -> EncodingError:
    return EncodingError(f"u32 out of range: {value}")


class Writer:
    """Accumulates a canonical encoding."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        if not 0 <= value <= 255:
            raise EncodingError(f"u8 out of range: {value}")
        self._parts.append(struct.pack(">B", value))

    def u32(self, value: int) -> None:
        if not 0 <= value <= U32_MAX:
            raise u32_out_of_range(value)
        self._parts.append(struct.pack(">I", value))

    def u64(self, value: int) -> None:
        if not 0 <= value <= U64_MAX:
            raise EncodingError(f"u64 out of range: {value}")
        self._parts.append(struct.pack(">Q", value))

    def i64(self, value: int) -> None:
        if not I64_MIN <= value <= I64_MAX:
            raise EncodingError(f"i64 out of range: {value}")
        self._parts.append(struct.pack(">q", value))

    def raw(self, data: bytes, size: int) -> None:
        if len(data) != size:
            raise EncodingError(f"fixed field wants {size} bytes, got {len(data)}")
        self._parts.append(bytes(data))

    def digest(self, data: bytes) -> None:
        self.raw(data, DIGEST_SIZE)

    def lp_bytes(self, data: bytes) -> None:
        self.u32(len(data))
        self._parts.append(bytes(data))

    def string(self, text: str) -> None:
        self.lp_bytes(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


FieldValue = Any  # int | str | bytes; 32-byte values round-trip as digests


# lp(name) of the field names met so far, up to _NAME_HEADS_MAX of them: a
# program writes the same few names over and over.
_NAME_HEADS: dict[str, bytes] = {}
_NAME_HEADS_MAX = 1024


def _name_head(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > U32_MAX:
        raise u32_out_of_range(len(raw))
    head = LEN_PREFIX.pack(len(raw)) + raw
    if len(_NAME_HEADS) < _NAME_HEADS_MAX:
        _NAME_HEADS[name] = head
    return head


def encode_fields(fields: Mapping[str, FieldValue]) -> bytes:
    """Canonical encoding of an app payload (sorted field map, tag 'F'):
    the one writer of a field map."""
    if len(fields) > U32_MAX:
        raise u32_out_of_range(len(fields))
    parts = [_FIELD_MAP_HEAD.pack(0x46, len(fields))]
    append = parts.append
    heads = _NAME_HEADS
    for name in sorted(fields):
        value = fields[name]
        append(heads.get(name) or _name_head(name))
        if isinstance(value, bool):
            raise EncodingError(f"field {name}: bool is not a payload type")
        if isinstance(value, int):
            if not I64_MIN <= value <= I64_MAX:
                raise EncodingError(f"i64 out of range: {value}")
            append(_INT_VALUE.pack(TAG_INT, value))
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            if len(raw) > U32_MAX:
                raise u32_out_of_range(len(raw))
            append(_LP_VALUE.pack(TAG_STR, len(raw)))
            append(raw)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) == DIGEST_SIZE:
                append(_DIGEST_TAG)
            elif len(value) > U32_MAX:
                raise u32_out_of_range(len(value))
            else:
                append(_LP_VALUE.pack(TAG_BYTES, len(value)))
            append(value)
        else:
            raise EncodingError(f"field {name}: unsupported type {type(value).__name__}")
    return b"".join(parts)


def decode_fields(data: bytes) -> dict[str, FieldValue]:
    """Inverse of encode_fields; rejects malformed or unsorted input."""
    data = bytes(data)
    size = len(data)
    check_tag(data, 0x46, "not a field map encoding")
    fields: dict[str, FieldValue] = {}
    prev = None
    try:
        _, count = _FIELD_MAP_HEAD.unpack_from(data)
        pos = _FIELD_MAP_HEAD.size
        for _ in range(count):
            (n,) = LEN_PREFIX.unpack_from(data, pos)
            pos += 4
            end = pos + n
            if end > size:
                raise EncodingError(TRUNCATED)
            name = data[pos:end].decode("utf-8")
            if prev is not None and name <= prev:
                raise EncodingError("field map not in canonical order")
            prev = name
            if end == size:
                raise EncodingError(TRUNCATED)
            tag = data[end]
            pos = end + 1
            if tag == TAG_INT:
                (fields[name],) = _I64.unpack_from(data, pos)
                pos += 8
                continue
            if tag == TAG_DIGEST:
                end = pos + DIGEST_SIZE
            elif tag == TAG_STR or tag == TAG_BYTES:
                (n,) = LEN_PREFIX.unpack_from(data, pos)
                pos += 4
                end = pos + n
            else:
                raise EncodingError(f"unknown field tag {tag}")
            if end > size:
                raise EncodingError(TRUNCATED)
            if tag == TAG_STR:
                fields[name] = data[pos:end].decode("utf-8")
            elif tag == TAG_BYTES and n == DIGEST_SIZE:
                raise EncodingError("32-byte value must use the digest tag")
            else:
                fields[name] = data[pos:end]
            pos = end
    except struct.error:
        raise EncodingError(TRUNCATED) from None
    except UnicodeDecodeError as exc:
        raise EncodingError(f"bad utf-8 in string field: {exc}") from exc
    check_end(data, pos)
    return fields
