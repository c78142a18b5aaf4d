"""Encoding layer: hand-computed vectors, strictness, and round-trips."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain import canonical
from agentchain.canonical import (
    TRUNCATED,
    EncodingError,
    Writer,
    check_end,
    decode_fields,
    encode_fields,
)
from agentchain.chain import (
    EntryHeader,
    GenesisRecord,
    Record,
    append_entry,
    decode_genesis,
    encode_genesis,
    decode_header,
    decode_record,
    encode_header,
    encode_record,
    init_chain,
)
from agentchain.crypto import generate_keypair, hash_bytes
from agentchain.dht import (
    CLAIM_MISBEHAVIOR,
    CLAIM_REVOKE,
    CLAIM_TRANSFER,
    NewsClaim,
    agent_seed,
    misbehavior_claim,
    revoke_claim,
    transfer_claim,
)
from agentchain.reputation import ObservationKind
from agentchain.healthcare import healthcare_dna

# layout computed by hand from the format rules:
# 'F', u32 count, then per field: lp name, tag u8, tagged value
HAND_VECTORS = [
    (
        {"bp": 120, "note": "ok"},
        "4600000002"
        "000000026270" "01" "0000000000000078"
        "000000046e6f7465" "02" "000000026f6b",
    ),
    (
        {"d": b"\x00" * 32},
        "4600000001" "0000000164" "04" + "00" * 32,
    ),
    (
        {"n": -1},
        "4600000001" "000000016e" "01" "ffffffffffffffff",
    ),
]


@pytest.mark.parametrize("fields,expected_hex", HAND_VECTORS)
def test_field_map_hand_vectors(fields, expected_hex):
    assert encode_fields(fields).hex() == expected_hex
    assert decode_fields(bytes.fromhex(expected_hex)) == fields


def test_writer_range_checks():
    w = Writer()
    with pytest.raises(EncodingError):
        w.u8(256)
    with pytest.raises(EncodingError):
        w.u32(-1)
    with pytest.raises(EncodingError):
        w.u64(2**64)
    with pytest.raises(EncodingError):
        w.i64(2**63)
    with pytest.raises(EncodingError):
        w.raw(b"abc", 4)


def test_reader_strictness():
    data = encode_fields({"a": 1})
    with pytest.raises(EncodingError):
        decode_fields(data + b"\x00")  # trailing byte
    with pytest.raises(EncodingError):
        decode_fields(data[:-1])  # truncated
    with pytest.raises(EncodingError):
        decode_fields(b"X" + data[1:])  # wrong tag


def test_unsorted_field_order_rejected():
    # craft b-before-a by hand
    w = Writer()
    w.u8(ord("F"))
    w.u32(2)
    for name in ("b", "a"):
        w.string(name)
        w.u8(1)
        w.i64(0)
    with pytest.raises(EncodingError):
        decode_fields(w.getvalue())


def test_duplicate_field_rejected():
    w = Writer()
    w.u8(ord("F"))
    w.u32(2)
    for _ in range(2):
        w.string("a")
        w.u8(1)
        w.i64(0)
    with pytest.raises(EncodingError):
        decode_fields(w.getvalue())


def test_bool_rejected():
    with pytest.raises(EncodingError):
        encode_fields({"flag": True})


def test_digest_tag_forced_for_32_bytes():
    # a 32-byte value under the generic bytes tag must not decode
    w = Writer()
    w.u8(ord("F"))
    w.u32(1)
    w.string("d")
    w.u8(3)  # generic bytes tag
    w.lp_bytes(b"\x07" * 32)
    with pytest.raises(EncodingError):
        decode_fields(w.getvalue())


def test_encoding_injective_on_lookalikes():
    pairs = [
        ({"a": 1}, {"a": "1"}),
        ({"a": b"x"}, {"a": "x"}),
        ({"ab": 1}, {"a": 1, "b": 1}),
        ({"a": 0}, {}),
    ]
    for left, right in pairs:
        assert encode_fields(left) != encode_fields(right)


_field_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(max_size=40),
    st.binary(max_size=80).filter(lambda b: len(b) != 32),
    st.binary(min_size=32, max_size=32),
)


@given(st.dictionaries(_field_names, _values, max_size=8))
@settings(max_examples=150, deadline=None)
def test_field_map_roundtrip(fields):
    assert decode_fields(encode_fields(fields)) == fields


@given(
    st.dictionaries(_field_names, _values, max_size=6),
    st.dictionaries(_field_names, _values, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_field_map_injective(a, b):
    if a != b:
        assert encode_fields(a) != encode_fields(b)


# --- the struct-packed layouts against their spec ------------------------------
#
# The encoders below restate the byte-layout table of canonical.py's module
# docstring with int.to_bytes; the decoders are Reader-based mirrors of the
# same table, the reference for which inputs are rejected and with which
# message.


class Reader:
    """Strict mirror of Writer: the reference decoders' primitive reads."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise EncodingError(TRUNCATED)
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def digest(self) -> bytes:
        return self._take(32)

    def lp_bytes(self) -> bytes:
        return self._take(self.u32())

    def string(self) -> str:
        try:
            return self.lp_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"bad utf-8 in string field: {exc}") from exc

    def finish(self) -> None:
        check_end(self._data, self._pos)


def test_reader_primitives_roundtrip():
    w = Writer()
    w.u8(7)
    w.u32(70_000)
    w.u64(2**40)
    w.i64(-5)
    w.digest(b"\x01" * 32)
    w.lp_bytes(b"xyz")
    w.string("héllo")
    r = Reader(w.getvalue())
    assert r.u8() == 7
    assert r.u32() == 70_000
    assert r.u64() == 2**40
    assert r.i64() == -5
    assert r.digest() == b"\x01" * 32
    assert r.lp_bytes() == b"xyz"
    assert r.string() == "héllo"
    r.finish()


U64_MAX = 2**64 - 1


def _lp(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw


def _spec_fields(fields) -> bytes:
    out = b"F" + len(fields).to_bytes(4, "big")
    for name in sorted(fields):
        value = fields[name]
        out += _lp(name.encode("utf-8"))
        if isinstance(value, int):
            out += b"\x01" + value.to_bytes(8, "big", signed=True)
        elif isinstance(value, str):
            out += b"\x02" + _lp(value.encode("utf-8"))
        elif len(value) == 32:
            out += b"\x04" + bytes(value)
        else:
            out += b"\x03" + _lp(bytes(value))
    return out


def _spec_header(h) -> bytes:
    return (
        b"H" + h.seq.to_bytes(8, "big") + h.timestamp.to_bytes(8, "big")
        + _lp(h.entry_type.encode("utf-8")) + h.entry_hash + _lp(h.author)
        + h.prev_header_hash + _lp(h.signature)
    )


def _spec_record(record) -> bytes:
    return b"R" + _lp(_spec_header(record.header)) + _lp(record.payload)


def _spec_claim(claim) -> bytes:
    return (
        b"N" + _lp(claim.kind.encode("utf-8")) + claim.subject + _lp(claim.agent)
        + _lp(claim.extra) + _lp(claim.detail.encode("utf-8"))
    )


def _reader_fields(data: bytes) -> dict:
    r = Reader(data)
    if r.u8() != ord("F"):
        raise EncodingError("not a field map encoding")
    fields: dict = {}
    prev = None
    for _ in range(r.u32()):
        name = r.string()
        if prev is not None and name <= prev:
            raise EncodingError("field map not in canonical order")
        prev = name
        tag = r.u8()
        if tag == 1:
            fields[name] = r.i64()
        elif tag == 2:
            fields[name] = r.string()
        elif tag == 3:
            raw = r.lp_bytes()
            if len(raw) == 32:
                raise EncodingError("32-byte value must use the digest tag")
            fields[name] = raw
        elif tag == 4:
            fields[name] = r.digest()
        else:
            raise EncodingError(f"unknown field tag {tag}")
    r.finish()
    return fields


def _reader_header(data: bytes) -> EntryHeader:
    r = Reader(data)
    if r.u8() != ord("H"):
        raise EncodingError("not a header encoding")
    seq, timestamp, entry_type = r.u64(), r.u64(), r.string()
    entry_hash, author, prev, signature = r.digest(), r.lp_bytes(), r.digest(), r.lp_bytes()
    if len(author) != 32:
        raise EncodingError("author key has wrong size")
    if len(signature) != 64:
        raise EncodingError("signature has wrong size")
    r.finish()
    return EntryHeader(seq, timestamp, entry_type, entry_hash, author, prev, signature)


def _reader_record(data: bytes) -> Record:
    r = Reader(data)
    if r.u8() != ord("R"):
        raise EncodingError("not a record encoding")
    header = _reader_header(r.lp_bytes())
    payload = r.lp_bytes()
    r.finish()
    return Record(header, payload)


def _reader_genesis(data: bytes) -> GenesisRecord:
    r = Reader(data)
    if r.u8() != ord("G"):
        raise EncodingError("not a genesis encoding")
    dna_hash = r.digest()
    agent_id = r.lp_bytes()
    flag = r.u8()
    if flag not in (0, 1):
        raise EncodingError(f"membrane proof flag must be 0 or 1, got {flag}")
    proof = r.lp_bytes() if flag else None
    r.finish()
    return GenesisRecord(dna_hash, agent_id, proof)


DECODERS = {
    "fields": (decode_fields, _reader_fields),
    "header": (decode_header, _reader_header),
    "record": (decode_record, _reader_record),
    "genesis": (decode_genesis, _reader_genesis),
}


def _same_verdict(kind: str, data: bytes) -> None:
    """decode accepts exactly what the reference accepts, with the same
    value, and rejects the rest with the same EncodingError message;
    pytest.raises lets any other exception type through, failing the test."""
    decode, reference = DECODERS[kind]
    try:
        expected = reference(data)
    except EncodingError as exc:
        with pytest.raises(EncodingError) as info:
            decode(data)
        assert (type(info.value), str(info.value)) == (EncodingError, str(exc))
    else:
        assert decode(data) == expected


I64_MIN, I64_MAX = -(2**63), 2**63 - 1
_spec_values = st.one_of(
    st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]),
    st.integers(min_value=I64_MIN, max_value=I64_MAX),
    st.text(max_size=20),  # any code point below the surrogates, so non-ASCII too
    st.sampled_from([0, 31, 32, 33]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n) | st.binary(min_size=n, max_size=n).map(bytearray)
    ),
    st.binary(max_size=70),
)
_spec_maps = st.dictionaries(st.text(min_size=0, max_size=8), _spec_values, max_size=6)
_digests = st.binary(min_size=32, max_size=32)
_headers = st.builds(
    EntryHeader,
    seq=st.integers(0, U64_MAX),
    timestamp=st.integers(0, U64_MAX),
    entry_type=st.text(max_size=12),
    entry_hash=_digests,
    author=_digests,
    prev_header_hash=_digests,
    signature=st.binary(min_size=64, max_size=64),
)
_records = st.builds(Record, header=_headers, payload=st.binary(max_size=60))
_genesis_records = st.builds(
    GenesisRecord,
    dna_hash=_digests,
    agent_id=st.binary(max_size=40),
    membrane_proof=st.none() | st.binary(max_size=20),
)


def _valid_encodings():
    return st.one_of(
        _spec_maps.map(lambda f: ("fields", encode_fields(f))),
        _headers.map(lambda h: ("header", encode_header(h))),
        _records.map(lambda r: ("record", encode_record(r))),
        _genesis_records.map(lambda g: ("genesis", encode_genesis(g))),
    )


@given(_spec_maps)
@settings(max_examples=200, deadline=None)
def test_field_map_encoder_matches_the_spec_and_round_trips(fields):
    encoded = encode_fields(fields)
    assert encoded == _spec_fields(fields)
    decoded = decode_fields(encoded)
    assert decoded == {k: bytes(v) if isinstance(v, bytearray) else v for k, v in fields.items()}
    assert _reader_fields(encoded) == decoded


def test_field_names_past_the_kept_name_encodings_still_match_the_spec(monkeypatch):
    """The encoder keeps each name's lp up to a bound; a name met after the
    store is full is encoded afresh, to the same bytes."""
    monkeypatch.setattr(canonical, "_NAME_HEADS", {})
    monkeypatch.setattr(canonical, "_NAME_HEADS_MAX", 3)
    for round_ in range(2):
        for i in range(6):
            fields = {f"name{i}": i, "\u00e9t\u00e9": "x", "": b"y"}
            assert encode_fields(fields) == _spec_fields(fields)
        assert len(canonical._NAME_HEADS) == 3


@given(_records)
@settings(max_examples=100, deadline=None)
def test_header_and_record_encoders_match_the_spec_and_round_trip(record):
    header = record.header
    assert encode_header(header) == _spec_header(header)
    assert decode_header(encode_header(header)) == header
    assert encode_record(record) == _spec_record(record)
    assert decode_record(encode_record(record)) == record


_claim_bytes = st.one_of(
    st.just(b""), st.binary(max_size=40), st.binary(min_size=300, max_size=400)
)
_claims = st.builds(
    NewsClaim,
    kind=st.sampled_from([CLAIM_TRANSFER, CLAIM_MISBEHAVIOR, CLAIM_REVOKE]),
    subject=_digests,
    agent=_claim_bytes,
    extra=_claim_bytes,
    detail=st.one_of(st.sampled_from([k.value for k in ObservationKind]), st.text(max_size=20)),
)


@given(_claims)
@settings(max_examples=200, deadline=None)
def test_claim_id_hashes_the_spec_layout(claim):
    assert claim.claim_id == hash_bytes(_spec_claim(claim))


# claim ids as the Writer-built encoding hashed them
PINNED_CLAIM_IDS = [
    (
        transfer_claim(bytes(range(32)), b"\x01" * 32, b"\x02" * 32),
        "6652cfa3ea1fff3665d9ae362c142deaede8f351953798987e4b8fac6297dd55",
    ),
    (
        misbehavior_claim(b"\x03" * 32, ObservationKind.DOUBLE_SPEND, b"\x04" * 32),
        "c8f5d485e16bf179eb8e60ef65ec5eb38967fd6fd47ded491806515312c3a1e3",
    ),
    (
        NewsClaim(CLAIM_REVOKE, b"\xff" * 32, b"", extra=b"tok" * 30, detail="h\u00e9\u2603"),
        "9e7699583c26b71949fc3a282c08eb69bcf4319f6211e97d1346858885512d0b",
    ),
]


@pytest.mark.parametrize("claim,expected_hex", PINNED_CLAIM_IDS)
def test_claim_ids_are_pinned(claim, expected_hex):
    assert claim.claim_id.hex() == expected_hex
    assert hash_bytes(_spec_claim(claim)).hex() == expected_hex


# --- agent seeds and genesis against Writer-built spec encoders --------------


def _spec_agent_seed(run_seed: int, index: int) -> bytes:
    w = Writer()
    w.u64(run_seed % 2**64)
    w.u32(index)
    return hash_bytes(w.getvalue())


def _spec_genesis(gen: GenesisRecord) -> bytes:
    w = Writer()
    w.u8(ord("G"))
    w.digest(gen.dna_hash)
    w.lp_bytes(gen.agent_id)
    if gen.membrane_proof is None:
        w.u8(0)
    else:
        w.u8(1)
        w.lp_bytes(gen.membrane_proof)
    return w.getvalue()


# as the Writer-built encoding hashed them; run seeds are taken mod 2**64
PINNED_AGENT_SEEDS = [
    (0, 0, "15ec7bf0b50732b49f8228e07d24365338f9e3ab994b00af08e5a3bffe55fd8b"),
    (-1, 2**32 - 1, "8688d249e9d047b4fc2fb89ce05afe9ec89252ffccdd969de6eef260dd7ffb21"),
    (2**64 + 5, 7, "84190d3b9cd72e50dab18e9192b55263ed682826a2f70a43cfff604cc8e0aa04"),
]


@pytest.mark.parametrize("run_seed,index,expected_hex", PINNED_AGENT_SEEDS)
def test_agent_seeds_are_pinned(run_seed, index, expected_hex):
    assert agent_seed(run_seed, index).hex() == expected_hex
    assert _spec_agent_seed(run_seed, index).hex() == expected_hex


@pytest.mark.parametrize("run_seed", [-1, 0, 2**64 + 5])
@pytest.mark.parametrize("index", [0, 2**32 - 1])
def test_agent_seed_hashes_the_spec_layout(run_seed, index):
    assert agent_seed(run_seed, index) == _spec_agent_seed(run_seed, index)
    assert agent_seed(run_seed, index) == agent_seed(run_seed % 2**64, index)


@pytest.mark.parametrize("index", [2**32, -1])
def test_an_agent_index_outside_u32_raises_like_the_spec(index):
    with pytest.raises(EncodingError, match="u32 out of range"):
        agent_seed(0, index)
    with pytest.raises(EncodingError, match="u32 out of range"):
        _spec_agent_seed(0, index)


@given(st.integers(-(2**70), 2**70), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_agent_seed_hashes_the_spec_layout(run_seed, index):
    assert agent_seed(run_seed, index) == _spec_agent_seed(run_seed, index)


PINNED_GENESIS = [
    (
        GenesisRecord(bytes(range(32)), b"\x07" * 32),
        "47" + bytes(range(32)).hex() + "00000020" + "07" * 32 + "00",
    ),
    (
        GenesisRecord(bytes(range(32)), b"", b"proof"),
        "47" + bytes(range(32)).hex() + "00000000" + "01" + "00000005" + b"proof".hex(),
    ),
]


@pytest.mark.parametrize("gen,expected_hex", PINNED_GENESIS)
def test_genesis_encodings_are_pinned(gen, expected_hex):
    assert encode_genesis(gen).hex() == expected_hex
    assert _spec_genesis(gen).hex() == expected_hex
    assert decode_genesis(bytes.fromhex(expected_hex)) == gen


@pytest.mark.parametrize("agent_id", [b"", b"\xa5" * 32, b"\x5a" * 33])
@pytest.mark.parametrize("proof", [None, b"", b"membrane", b"\x01" * 300])
def test_genesis_writes_the_spec_layout(agent_id, proof):
    gen = GenesisRecord(hash_bytes(b"network"), agent_id, proof)
    encoded = encode_genesis(gen)
    assert encoded == _spec_genesis(gen)
    assert type(encoded) is bytes
    assert decode_genesis(encoded) == gen


@pytest.mark.parametrize("size", [0, 31, 33])
def test_a_network_id_that_is_not_a_digest_raises_like_the_spec(size):
    gen = GenesisRecord(b"\x01" * size, b"\x02" * 32)
    with pytest.raises(EncodingError, match="fixed field wants 32 bytes"):
        encode_genesis(gen)
    with pytest.raises(EncodingError, match="fixed field wants 32 bytes"):
        _spec_genesis(gen)


@given(_valid_encodings(), st.data())
@settings(max_examples=120, deadline=None)
def test_decoders_reject_every_prefix_extension_and_byte_flip_like_the_reference(
    valid, data
):
    kind, encoded = valid
    _same_verdict(kind, encoded)
    for end in range(len(encoded)):
        _same_verdict(kind, encoded[:end])
    for byte in range(256):
        _same_verdict(kind, encoded + bytes([byte]))
    pos = data.draw(st.integers(0, len(encoded) - 1))
    flipped = bytearray(encoded)
    flipped[pos] = data.draw(st.integers(0, 255))
    _same_verdict(kind, bytes(flipped))


def _int_field(name: bytes, value: int) -> bytes:
    return _lp(name) + b"\x01" + value.to_bytes(8, "big", signed=True)


def _header(**changes) -> EntryHeader:
    fields = dict(
        seq=1, timestamp=2, entry_type="report", entry_hash=b"\x01" * 32,
        author=b"\x02" * 32, prev_header_hash=b"\x03" * 32, signature=b"\x04" * 64,
    )
    return EntryHeader(**{**fields, **changes})


_VALID_HEADER = encode_header(_header())
_BAD_UTF8 = b"\xc3\x28"

MALFORMED = [
    ("fields", b"F\x00\x00\x00\x01" + _lp(b"a") + b"\x05", "unknown field tag 5"),
    ("fields", b"F\x00\x00\x00\x01" + _lp(b"a") + b"\x00", "unknown field tag 0"),
    (
        "fields",
        b"F\x00\x00\x00\x02" + _int_field(b"b", 0) + _int_field(b"a", 0),
        "field map not in canonical order",
    ),
    (
        "fields",
        b"F\x00\x00\x00\x02" + _int_field(b"a", 0) + _int_field(b"a", 0),
        "field map not in canonical order",
    ),
    (
        "fields",
        b"F\x00\x00\x00\x01" + _lp(b"d") + b"\x03" + _lp(b"\x07" * 32),
        "32-byte value must use the digest tag",
    ),
    ("fields", b"F\x00\x00\x00\x01" + _lp(_BAD_UTF8) + b"\x01" + bytes(8), "bad utf-8"),
    ("fields", b"F\x00\x00\x00\x01" + _lp(b"s") + b"\x02" + _lp(_BAD_UTF8), "bad utf-8"),
    ("fields", b"F\xff\xff\xff\xff", "truncated encoding"),
    ("fields", b"X" + _spec_fields({"a": 1})[1:], "not a field map encoding"),
    ("header", _VALID_HEADER[:21] + _BAD_UTF8 + _VALID_HEADER[23:], "bad utf-8"),
    ("header", b"R" + _VALID_HEADER[1:], "not a header encoding"),
    ("record", b"R" + _lp(b"H") + _lp(b""), "truncated encoding"),
    ("record", b"R" + _lp(_VALID_HEADER) + b"\x00\x00\x01\x00", "truncated encoding"),
    ("genesis", b"G" + bytes(32) + _lp(b"") + b"\x02", "membrane proof flag must be 0 or 1"),
    ("genesis", b"G" + bytes(32) + _lp(b"") + b"\x01\x00\x00\x00\x05ab", "truncated encoding"),
    ("genesis", b"G" + bytes(32) + _lp(b"id"), "truncated encoding"),
    ("genesis", b"H" + bytes(32) + _lp(b"") + b"\x00", "not a genesis encoding"),
]


@pytest.mark.parametrize("kind,data,message", MALFORMED)
def test_malformed_encodings_raise_the_reference_encoding_error(kind, data, message):
    _same_verdict(kind, data)
    with pytest.raises(EncodingError, match=message):
        DECODERS[kind][0](data)


@pytest.mark.parametrize(
    "encode,message",
    [
        (lambda: encode_fields({"n": I64_MAX + 1}), f"i64 out of range: {I64_MAX + 1}"),
        (lambda: encode_fields({"n": I64_MIN - 1}), f"i64 out of range: {I64_MIN - 1}"),
        (lambda: encode_header(_header(seq=U64_MAX + 1)), f"u64 out of range: {U64_MAX + 1}"),
        (lambda: encode_header(_header(seq=-1)), "u64 out of range: -1"),
        (lambda: encode_header(_header(timestamp=-5)), "u64 out of range: -5"),
        (lambda: encode_header(_header(entry_hash=b"\x01" * 31)), "fixed field wants 32 bytes, got 31"),
        (lambda: encode_header(_header(prev_header_hash=b"")), "fixed field wants 32 bytes, got 0"),
        (lambda: revoke_claim(b"", b"a", b"t").claim_id, "fixed field wants 32 bytes, got 0"),
        (lambda: NewsClaim(CLAIM_TRANSFER, b"\x01" * 31, b"").claim_id, "fixed field wants 32 bytes, got 31"),
        (lambda: NewsClaim(CLAIM_TRANSFER, b"\x01" * 33, b"").claim_id, "fixed field wants 32 bytes, got 33"),
    ],
)
def test_out_of_range_encodings_raise_the_writer_messages(encode, message):
    with pytest.raises(EncodingError) as info:
        encode()
    assert str(info.value) == message


def test_out_of_range_appends_raise_the_writer_messages():
    keys = generate_keypair(hash_bytes(b"canonical-range"))
    dna = healthcare_dna()
    with pytest.raises(EncodingError, match=r"^u64 out of range: -1$"):
        init_chain(keys, dna, clock=-1)
    chain = init_chain(keys, dna, clock=0)
    with pytest.raises(EncodingError, match=rf"^u64 out of range: {U64_MAX + 1}$"):
        append_entry(chain, "report", {"text": "late"}, U64_MAX + 1)
    with pytest.raises(EncodingError, match=rf"^i64 out of range: {I64_MAX + 1}$"):
        append_entry(chain, "report", {"n": I64_MAX + 1}, 1)
    # a chain whose newest record already has the largest seq
    chain.replace_at(1, Record(_header(seq=U64_MAX, timestamp=1), chain.records[1].payload))
    with pytest.raises(EncodingError, match=rf"^u64 out of range: {U64_MAX + 1}$"):
        append_entry(chain, "report", {"text": "next"}, 1)
    assert len(chain) == 2
