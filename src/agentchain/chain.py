"""Per-agent signed append-only chains.

Every agent keeps its own log. Record 0 is the app blueprint (the DNA: entry
type definitions, validation rule ids, storage parameters); its digest is the
network id. Record 1 is the genesis entry binding the agent's public key to
that blueprint. Everything after that is application data. Headers are
hash-linked and individually signed, so any rewrite of history is detectable
from public material alone.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, TypeVar

from . import canonical
from .canonical import (
    DIGEST_AND_LEN,
    LEN_PREFIX,
    TRUNCATED,
    U32_MAX,
    U64_MAX,
    EncodingError,
    Writer,
    check_end,
    check_tag,
    u32_out_of_range,
)
from .crypto import (
    DIGEST_SIZE,
    HASH_ALG_ID,
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    ZERO_DIGEST,
    KeyPair,
    hash_bytes,
    sign,
    verify,
)

# entry types written by the bootstrap path only
DNA_TYPE = "dna"
GENESIS_TYPE = "genesis"
SYSTEM_TYPES = (DNA_TYPE, GENESIS_TYPE)

COST_LIGHT = "light"
COST_STANDARD = "standard"
COST_HEAVY = "heavy"
# simulated work units per validation, by cost class
COST_UNITS = {COST_LIGHT: 1, COST_STANDARD: 4, COST_HEAVY: 16}


class ChainError(ValueError):
    """Structural misuse of a source chain (bad DNA, bad clock, bad type)."""


@dataclass(frozen=True)
class EntryTypeDef:
    """One entry type an app accepts: payload shape plus validation rules."""

    type_name: str
    payload_schema: tuple[tuple[str, str], ...]
    rule_ids: tuple[str, ...]
    validation_cost_class: str = COST_STANDARD

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "payload_schema", tuple((str(f), str(t)) for f, t in self.payload_schema)
        )
        object.__setattr__(self, "rule_ids", tuple(str(r) for r in self.rule_ids))
        if self.validation_cost_class not in COST_UNITS:
            raise ChainError(f"unknown cost class {self.validation_cost_class!r}")


# holders per record, unless a blueprint says otherwise
DEFAULT_REDUNDANCY = 4

# DNA param names; DnaDocument derives each value once per document, from
# the first pair that carries the name
RESTRICTED_PREFIXES_PARAM = "dht.restricted_prefixes"
CREDIT_LIMIT_PARAM = "fuel.credit_limit"


@dataclass(frozen=True)
class DnaDocument:
    """App blueprint. Its canonical-encoding digest is the network id."""

    app_name: str
    description: str
    entry_type_defs: tuple[EntryTypeDef, ...]
    validation_function_ids: tuple[str, ...] = ()
    params: tuple[tuple[str, str], ...] = ()
    dht_redundancy: int = DEFAULT_REDUNDANCY

    def __post_init__(self) -> None:
        object.__setattr__(self, "entry_type_defs", tuple(self.entry_type_defs))
        object.__setattr__(
            self, "validation_function_ids", tuple(str(v) for v in self.validation_function_ids)
        )
        params = self.params.items() if isinstance(self.params, dict) else self.params
        object.__setattr__(self, "params", tuple(sorted((str(k), str(v)) for k, v in params)))

    @cached_property
    def encoded(self) -> bytes:
        """The canonical encoding, computed once per document: record 0 of
        every chain under this blueprint."""
        return encode_dna(self)

    @cached_property
    def network_id(self) -> bytes:
        """Digest of the canonical encoding, computed once per document."""
        return hash_bytes(self.encoded)

    @cached_property
    def _types(self) -> dict[str, EntryTypeDef]:
        # of two definitions sharing a name, the first wins
        return {etd.type_name: etd for etd in reversed(self.entry_type_defs)}

    def entry_type(self, name: str) -> EntryTypeDef | None:
        return self._types.get(name)

    @cached_property
    def credit_limit(self) -> int:
        """How far below zero a fuel balance may go; 0 unless set."""
        return int(dict(reversed(self.params)).get(CREDIT_LIMIT_PARAM, 0))

    @cached_property
    def restricted_prefixes(self) -> tuple[str, ...]:
        """Entry-type prefixes that never leave their static neighborhood."""
        value = dict(reversed(self.params)).get(RESTRICTED_PREFIXES_PARAM, "")
        return tuple(p for p in value.split(",") if p)


def validate_dna(dna: DnaDocument) -> None:
    """Reject blueprints the chain layer cannot work with. A document is
    checked once: one that passes keeps the verdict beside its cached
    values, and later calls return at once."""
    if getattr(dna, "_valid", False):
        return
    if not dna.app_name:
        raise ChainError("DNA app_name must be nonempty")
    if not dna.entry_type_defs:
        raise ChainError("DNA must define at least one entry type")
    names = [etd.type_name for etd in dna.entry_type_defs]
    if len(names) != len(set(names)):
        raise ChainError("duplicate entry type names in DNA")
    for name in names:
        if not name or name in SYSTEM_TYPES:
            raise ChainError(f"entry type name {name!r} is reserved or empty")
    if dna.dht_redundancy < 1:
        raise ChainError("DNA dht_redundancy must be >= 1")
    object.__setattr__(dna, "_valid", True)


def encode_dna(dna: DnaDocument) -> bytes:
    w = Writer()
    w.u8(ord("D"))
    w.string(dna.app_name)
    w.string(dna.description)
    w.u32(len(dna.entry_type_defs))
    for etd in dna.entry_type_defs:
        w.string(etd.type_name)
        w.u32(len(etd.payload_schema))
        for fname, ftype in etd.payload_schema:
            w.string(fname)
            w.string(ftype)
        w.u32(len(etd.rule_ids))
        for rule in etd.rule_ids:
            w.string(rule)
        w.string(etd.validation_cost_class)
    w.u32(len(dna.validation_function_ids))
    for vfid in dna.validation_function_ids:
        w.string(vfid)
    w.u32(len(dna.params))
    for key, value in dna.params:
        w.string(key)
        w.string(value)
    w.u32(dna.dht_redundancy)
    # no blueprint chooses these: every ranking is XOR, every digest SHA-256
    w.string("xor-distance")
    w.string(HASH_ALG_ID)
    return w.getvalue()


@dataclass(frozen=True)
class GenesisRecord:
    """Second chain entry: ties an agent key to a network id."""

    dna_hash: bytes
    agent_id: bytes
    membrane_proof: bytes | None = None


# 'G', network id, agent id length; then the proof flag, and with flag 1
# the proof's length. The layout is in canonical.py
_GENESIS_HEAD = struct.Struct(">B32sI")
_NO_PROOF = b"\x00"
_PROOF_HEAD = struct.Struct(">BI")


def encode_genesis(gen: GenesisRecord) -> bytes:
    """The genesis layout in canonical.py."""
    agent_id, proof = gen.agent_id, gen.membrane_proof
    if len(gen.dna_hash) != DIGEST_SIZE:
        raise EncodingError(f"fixed field wants {DIGEST_SIZE} bytes, got {len(gen.dna_hash)}")
    if len(agent_id) > U32_MAX:
        raise u32_out_of_range(len(agent_id))
    head = _GENESIS_HEAD.pack(0x47, gen.dna_hash, len(agent_id))
    if proof is None:
        return b"".join((head, agent_id, _NO_PROOF))
    if len(proof) > U32_MAX:
        raise u32_out_of_range(len(proof))
    return b"".join((head, agent_id, _PROOF_HEAD.pack(1, len(proof)), proof))


def decode_genesis(data: bytes) -> GenesisRecord:
    """Inverse of encode_genesis; strict like decode_header."""
    data = bytes(data)
    size = len(data)
    check_tag(data, 0x47, "not a genesis encoding")
    try:
        _, dna_hash, n = _GENESIS_HEAD.unpack_from(data)
        pos = _GENESIS_HEAD.size + n
        if pos >= size:  # the agent id, or the flag byte after it, is cut
            raise EncodingError(TRUNCATED)
        agent_id = data[_GENESIS_HEAD.size:pos]
        flag = data[pos]
        if flag not in (0, 1):
            raise EncodingError(f"membrane proof flag must be 0 or 1, got {flag}")
        end = pos + 1
        proof = None
        if flag:
            (n,) = LEN_PREFIX.unpack_from(data, end)
            pos = end + LEN_PREFIX.size
            end = pos + n
            if end > size:
                raise EncodingError(TRUNCATED)
            proof = data[pos:end]
    except struct.error:
        raise EncodingError(TRUNCATED) from None
    check_end(data, end)
    return GenesisRecord(dna_hash, agent_id, proof)


@dataclass(frozen=True)
class EntryHeader:
    seq: int
    timestamp: int
    entry_type: str
    entry_hash: bytes
    author: bytes
    prev_header_hash: bytes
    signature: bytes


# 'H', seq, timestamp, entry type length; the layout is in canonical.py
_HEADER_HEAD = struct.Struct(">BQQI")
_RECORD_HEAD = struct.Struct(">BI")  # 'R', header length


def _signing_prefix(
    seq: int,
    timestamp: int,
    entry_type: str,
    entry_hash: bytes,
    author: bytes,
    prev_header_hash: bytes,
) -> bytes:
    """A header's encoding up to its signature's length prefix: what the
    author signs. The one writer of a header's fields."""
    if not 0 <= seq <= U64_MAX:
        raise EncodingError(f"u64 out of range: {seq}")
    if not 0 <= timestamp <= U64_MAX:
        raise EncodingError(f"u64 out of range: {timestamp}")
    raw_type = entry_type.encode("utf-8")
    if len(raw_type) > U32_MAX:
        raise u32_out_of_range(len(raw_type))
    if len(entry_hash) != DIGEST_SIZE:
        raise EncodingError(f"fixed field wants {DIGEST_SIZE} bytes, got {len(entry_hash)}")
    if len(author) > U32_MAX:
        raise u32_out_of_range(len(author))
    if len(prev_header_hash) != DIGEST_SIZE:
        raise EncodingError(
            f"fixed field wants {DIGEST_SIZE} bytes, got {len(prev_header_hash)}"
        )
    return b"".join(
        (
            _HEADER_HEAD.pack(0x48, seq, timestamp, len(raw_type)),
            raw_type,
            DIGEST_AND_LEN.pack(entry_hash, len(author)),
            author,
            prev_header_hash,
        )
    )


def _seal(h: EntryHeader, prefix: bytes) -> bytes:
    """Complete h's signing prefix with its signature and keep the result
    as h's encoding."""
    if len(h.signature) > U32_MAX:
        raise u32_out_of_range(len(h.signature))
    encoded = b"".join((prefix, LEN_PREFIX.pack(len(h.signature)), h.signature))
    object.__setattr__(h, "_encoded", encoded)
    return encoded


def encode_header(h: EntryHeader) -> bytes:
    """The canonical encoding, written at most once per header and kept on
    it like Record.signature_ok. decode_header keeps the bytes it read and
    _append_raw the ones it signed, which strict decoding makes equal to a
    fresh encoding; a mutated copy is a new header, so none goes stale."""
    encoded = getattr(h, "_encoded", None)
    if encoded is None:
        encoded = _seal(
            h,
            _signing_prefix(
                h.seq, h.timestamp, h.entry_type, h.entry_hash, h.author, h.prev_header_hash
            ),
        )
    return encoded


def header_signing_bytes(h: EntryHeader) -> bytes:
    """What the author signs: the full header minus the signature field,
    which is its length-prefixed tail."""
    return encode_header(h)[: -4 - len(h.signature)]


def header_hash(header: EntryHeader) -> bytes:
    """Digest of the header's encoding: the next record's previous-header
    link. Hashed once per header and kept on it, as Record.signature_ok
    is; a mutated copy is a new header, so none goes stale."""
    digest = getattr(header, "_hash", None)
    if digest is None:
        digest = hash_bytes(encode_header(header))
        object.__setattr__(header, "_hash", digest)
    return digest


def decode_header(data: bytes) -> EntryHeader:
    data = bytes(data)
    size = len(data)
    check_tag(data, 0x48, "not a header encoding")
    try:
        _, seq, timestamp, n = _HEADER_HEAD.unpack_from(data)
        pos = _HEADER_HEAD.size + n
        if pos > size:
            raise EncodingError(TRUNCATED)
        entry_type = data[_HEADER_HEAD.size:pos].decode("utf-8")
        entry_hash, n = DIGEST_AND_LEN.unpack_from(data, pos)
        pos += DIGEST_AND_LEN.size
        end = pos + n
        author = data[pos:end]  # if short, the next unpack_from is past the end
        prev, n = DIGEST_AND_LEN.unpack_from(data, end)
        pos = end + DIGEST_AND_LEN.size
        end = pos + n
        if end > size:
            raise EncodingError(TRUNCATED)
        signature = data[pos:end]
    except struct.error:
        raise EncodingError(TRUNCATED) from None
    except UnicodeDecodeError as exc:
        raise EncodingError(f"bad utf-8 in string field: {exc}") from exc
    if len(author) != PUBLIC_KEY_SIZE:
        raise EncodingError("author key has wrong size")
    if len(signature) != SIGNATURE_SIZE:
        raise EncodingError("signature has wrong size")
    check_end(data, end)
    h = EntryHeader(seq, timestamp, entry_type, entry_hash, author, prev, signature)
    object.__setattr__(h, "_encoded", data)
    return h


@dataclass(frozen=True)
class Record:
    """One chain element: signed header plus the payload bytes it commits to."""

    header: EntryHeader
    payload: bytes

    @cached_property
    def fields(self) -> Mapping[str, canonical.FieldValue]:
        """The payload as a canonical field map, decoded once per record,
        unless the appender handed over the map it encoded the payload from
        (see append_entry); then there is no decode at all.

        Read-only, because every reader shares it. A record is never edited
        in place (tampering builds a new one), so the view cannot go stale.
        Raises EncodingError, and caches nothing, if the payload is not a
        field map.
        """
        return MappingProxyType(canonical.decode_fields(self.payload))

    @property
    def signature_ok(self) -> bool:
        """Whether the header signature holds under the header's author,
        checked once per record. Sound for the reason given under fields:
        a mutated copy is a new record, so it is always checked afresh.

        Kept as a plain attribute rather than a cached_property, which
        would give every verified record its own attribute dict (about
        60 bytes each on CPython 3.11).
        """
        ok = getattr(self, "_signature_ok", None)
        if ok is None:
            h = self.header
            ok = verify(h.author, header_signing_bytes(h), h.signature)
            object.__setattr__(self, "_signature_ok", ok)
        return ok


def encode_record(record: Record) -> bytes:
    header = encode_header(record.header)
    payload = record.payload
    if len(header) > U32_MAX:
        raise u32_out_of_range(len(header))
    if len(payload) > U32_MAX:
        raise u32_out_of_range(len(payload))
    return b"".join(
        (_RECORD_HEAD.pack(0x52, len(header)), header, LEN_PREFIX.pack(len(payload)), payload)
    )


def decode_record(data: bytes) -> Record:
    data = bytes(data)
    size = len(data)
    check_tag(data, 0x52, "not a record encoding")
    try:
        (n,) = LEN_PREFIX.unpack_from(data, 1)
        pos = _RECORD_HEAD.size
        end = pos + n
        if end > size:
            raise EncodingError(TRUNCATED)
        header = decode_header(data[pos:end])
        (n,) = LEN_PREFIX.unpack_from(data, end)
        pos = end + LEN_PREFIX.size
        end = pos + n
        if end > size:
            raise EncodingError(TRUNCATED)
    except struct.error:
        raise EncodingError(TRUNCATED) from None
    check_end(data, end)
    return Record(header, data[pos:end])


def payload_hash(record: Record) -> bytes:
    """Digest of the record's payload, which its header's entry_hash must
    equal. Hashed once per record and kept on it, as Record.signature_ok
    is; _append_raw keeps the entry_hash it signed."""
    digest = getattr(record, "_payload_hash", None)
    if digest is None:
        digest = hash_bytes(record.payload)
        object.__setattr__(record, "_payload_hash", digest)
    return digest


def record_key(record: Record) -> bytes:
    """Content address of a full record; doubles as its storage key.
    Hashed once per record and kept on it, as Record.signature_ok is."""
    key = getattr(record, "_key", None)
    if key is None:
        key = hash_bytes(encode_record(record))
        object.__setattr__(record, "_key", key)
    return key


@dataclass
class SourceChain:
    """A live, writable chain owned by a keypair.

    The chain is the only writer of its records and of ``keys`` (record
    key -> seq): records go in through ``_append_raw`` only, and
    ``replace_at`` and ``truncate`` rewrite history, so the index is
    always exact.

    ``ledger`` is the running fuel account of ``fuel.py``, which catches
    it up over the records appended since its last read. Rewriting
    history resets it to None, so it is rebuilt from the records left.
    """

    owner: KeyPair
    dna: DnaDocument
    records: list[Record] = field(default_factory=list, init=False)
    keys: dict[bytes, int] = field(default_factory=dict, init=False)
    ledger: object | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def lookup(self, key: bytes) -> Record | None:
        seq = self.keys.get(key)
        return None if seq is None else self.records[seq]

    def replace_at(self, seq: int, record: Record) -> None:
        """Put record at seq in place of the one there: an author
        rewriting its own history, which verify_records reports."""
        self.keys = {k: s for k, s in self.keys.items() if s != seq}
        self.records[seq] = record
        self.keys[record_key(record)] = seq
        self.ledger = None

    def truncate(self, length: int) -> None:
        """Drop every record from seq length on."""
        if length < len(self.records):
            self.keys = {k: s for k, s in self.keys.items() if s < length}
            del self.records[length:]
            self.ledger = None


def _append_raw(
    chain: SourceChain,
    entry_type: str,
    payload: bytes,
    clock: int,
    fields: Mapping[str, canonical.FieldValue] | None = None,
    entry_hash: bytes | None = None,
) -> Record:
    """Sign and append a record. entry_hash, if given, is the payload's
    digest, which the caller already holds."""
    if chain.records:
        last = chain.records[-1].header
        if clock < last.timestamp:
            raise ChainError(f"clock went backwards: {clock} < {last.timestamp}")
        prev = header_hash(last)
        seq = last.seq + 1
    else:
        prev = ZERO_DIGEST
        seq = 0
    if entry_hash is None:
        entry_hash = hash_bytes(payload)
    author = chain.owner.public_key
    prefix = _signing_prefix(seq, clock, entry_type, entry_hash, author, prev)
    header = EntryHeader(seq, clock, entry_type, entry_hash, author, prev, sign(chain.owner, prefix))
    _seal(header, prefix)
    record = Record(header, bytes(payload))
    object.__setattr__(record, "_payload_hash", entry_hash)
    if fields is not None:
        object.__setattr__(record, "fields", fields)
    chain.records.append(record)
    chain.keys[record_key(record)] = seq
    return record


def init_chain(
    owner: KeyPair,
    dna: DnaDocument,
    clock: int = 0,
) -> SourceChain:
    """Bootstrap a chain: blueprint first, then the genesis self-binding."""
    validate_dna(dna)
    chain = SourceChain(owner=owner, dna=dna)
    # the blueprint's digest is its network id, hashed once per document
    _append_raw(chain, DNA_TYPE, dna.encoded, clock, entry_hash=dna.network_id)
    genesis = GenesisRecord(dna_hash=dna.network_id, agent_id=owner.public_key)
    _append_raw(chain, GENESIS_TYPE, encode_genesis(genesis), clock)
    return chain


def append_entry(
    chain: SourceChain,
    entry_type: str,
    payload: bytes | dict,
    clock: int,
    fields: Mapping[str, canonical.FieldValue] | None = None,
) -> Record:
    """Sign and append one app entry. The entry type must exist in the DNA.

    fields, if given, is the read-only field map the payload bytes were
    encoded from; the record keeps it as its ``fields`` instead of decoding
    the payload. Callers that hold no such map leave it to the decode.
    """
    if entry_type in SYSTEM_TYPES:
        raise ChainError(f"{entry_type!r} is written by init_chain only")
    if chain.dna.entry_type(entry_type) is None:
        raise ChainError(f"entry type {entry_type!r} not defined in DNA")
    if len(chain.records) < 2:
        raise ChainError("chain is not bootstrapped")
    if isinstance(payload, dict):
        payload = canonical.encode_fields(payload)
    return _append_raw(chain, entry_type, payload, clock, fields)


# ---------------------------------------------------------------------------
# integrity verification (works on public material only)

REASON_STRUCTURE = "structure"
REASON_AUTHOR = "author"
REASON_LINK = "link"
REASON_ENTRY_HASH = "entry_hash"
REASON_SIGNATURE = "signature"
REASON_HEAD = "head"


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    first_failure_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _first_break(records: list[Record]) -> VerificationReport | None:
    """The first record that breaks the chain's structure: every check of
    verify_records but the header signature."""
    owner = records[0].header.author
    for i, record in enumerate(records):
        h = record.header
        if h.seq != i:
            return VerificationReport(False, i, REASON_STRUCTURE)
        if i == 0 and h.entry_type != DNA_TYPE:
            return VerificationReport(False, i, REASON_STRUCTURE)
        if i == 1:
            if h.entry_type != GENESIS_TYPE:
                return VerificationReport(False, i, REASON_STRUCTURE)
            try:
                genesis = decode_genesis(record.payload)
            except EncodingError:
                return VerificationReport(False, i, REASON_STRUCTURE)
            if genesis.dna_hash != payload_hash(records[0]):
                return VerificationReport(False, i, REASON_STRUCTURE)
            if genesis.agent_id != owner:
                return VerificationReport(False, i, REASON_STRUCTURE)
        if i > 1 and h.entry_type in SYSTEM_TYPES:
            return VerificationReport(False, i, REASON_STRUCTURE)
        if i > 0 and h.timestamp < records[i - 1].header.timestamp:
            return VerificationReport(False, i, REASON_STRUCTURE)
        if h.author != owner:
            return VerificationReport(False, i, REASON_AUTHOR)
        expected_prev = ZERO_DIGEST if i == 0 else header_hash(records[i - 1].header)
        if h.prev_header_hash != expected_prev:
            return VerificationReport(False, i, REASON_LINK)
        if h.entry_hash != payload_hash(record):
            return VerificationReport(False, i, REASON_ENTRY_HASH)
    return None


# CPUs this process may run on, read once at import
try:
    USABLE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call outside Linux
    USABLE_CPUS = os.cpu_count() or 1
# The fewest unchecked signatures a slice holds, or no helper thread starts.
# Starting and joining one costs about a verify (70-100 us against 65-100 us
# on a shared 2-vCPU x86-64 VM), under a tenth of a 16-signature slice.
MIN_SIGNATURES_PER_THREAD = 16

T = TypeVar("T")


def fan_out(work: Callable[[Sequence[T]], object], items: Sequence[T], threads: int) -> None:
    """Run work on items split into contiguous slices, threads (at least 2)
    of them: the first slice on the calling thread, each other on a helper
    thread of its own. libsodium's verify runs without the GIL, so the
    helpers' signature checks run on other CPUs. Every helper is joined
    before this returns, and the first exception a helper raised is raised
    here."""
    cuts = [len(items) * k // threads for k in range(threads + 1)]
    slices = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    errors: list[BaseException] = []

    def run(part: Sequence[T]) -> None:
        try:
            work(part)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    helpers = []
    try:
        for part in slices[1:]:
            helper = threading.Thread(target=run, args=(part,))
            helper.start()
            helpers.append(helper)
        work(slices[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _check_signatures(records: Sequence[Record]) -> None:
    """Check the header signatures of records in turn, up to the first
    failure."""
    all(record.signature_ok for record in records)


def _first_bad_signature(records: list[Record]) -> int | None:
    """Index of the first record whose header signature fails, or None.

    The records not checked before are split into contiguous slices, one
    per usable CPU, when each slice holds at least
    MIN_SIGNATURES_PER_THREAD (fan_out). Each record keeps its verdict, so
    a front-to-back read then finds the first failure: every record before
    it is checked, and a slice's unchecked records follow a failure.
    """
    pending = [r for r in records if getattr(r, "_signature_ok", None) is None]
    threads = min(USABLE_CPUS, len(pending) // MIN_SIGNATURES_PER_THREAD)
    if threads > 1:
        fan_out(_check_signatures, pending, threads)
    return next((i for i, record in enumerate(records) if not record.signature_ok), None)


def verify_records(
    records: list[Record], expected_head: bytes | None = None
) -> VerificationReport:
    """Report the first broken record of a chain, as a walk front to back.

    Checks, in order per record: sequence/bootstrap structure, author
    exclusivity, previous-header link, payload hash, header signature. The
    walk runs in two passes: every check but the signature finds the first
    structural break, then the signatures before it are checked, across
    the usable CPUs when there are enough of them (_first_bad_signature).
    A bad signature before the break is the one reported.

    Internal checks cannot see pure tail truncation (a shortened chain is
    still self-consistent), so callers holding the author's last announced
    head should pass it as expected_head to pin the newest record.
    """
    if len(records) < 2:
        return VerificationReport(False, 0, REASON_STRUCTURE)
    broken = _first_break(records)
    end = len(records) if broken is None else broken.first_failure_index
    bad = _first_bad_signature(records[:end])
    if bad is not None:
        return VerificationReport(False, bad, REASON_SIGNATURE)
    if broken is not None:
        return broken
    if expected_head is not None and header_hash(records[-1].header) != expected_head:
        return VerificationReport(False, len(records) - 1, REASON_HEAD)
    return VerificationReport(True)


def verify_chain(chain: SourceChain) -> VerificationReport:
    return verify_records(chain.records)


# ---------------------------------------------------------------------------
# export format: one lowercase-hex canonical record per line

def export_records(records: list[Record]) -> str:
    return "".join(encode_record(r).hex() + "\n" for r in records)


def parse_chain_text(text: str) -> list[Record]:
    """Inverse of export_records; raises EncodingError on any malformed line."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = bytes.fromhex(line)
        except ValueError as exc:
            raise EncodingError(f"line {lineno}: not hex: {exc}") from exc
        records.append(decode_record(raw))
    return records
