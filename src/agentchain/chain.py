"""Per-agent signed append-only chains.

Every agent keeps its own log. Record 0 is the app blueprint (the DNA: entry
type definitions, validation rule ids, storage parameters); its digest is the
network id. Record 1 is the genesis entry binding the agent's public key to
that blueprint. Everything after that is application data. Headers are
hash-linked and individually signed, so any rewrite of history is detectable
from public material alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from . import canonical
from .canonical import EncodingError, Reader, Writer
from .crypto import (
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


@dataclass(frozen=True)
class DnaDocument:
    """App blueprint. Its canonical-encoding digest is the network id."""

    app_name: str
    description: str
    entry_type_defs: tuple[EntryTypeDef, ...]
    validation_function_ids: tuple[str, ...] = ()
    params: tuple[tuple[str, str], ...] = ()
    dht_redundancy: int = 4
    dht_neighborhood_rule: str = "xor-distance"
    hash_alg_id: str = HASH_ALG_ID

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

    def entry_type(self, name: str) -> EntryTypeDef | None:
        for etd in self.entry_type_defs:
            if etd.type_name == name:
                return etd
        return None

    def param(self, key: str, default: str = "") -> str:
        for k, v in self.params:
            if k == key:
                return v
        return default


def validate_dna(dna: DnaDocument) -> None:
    """Reject blueprints the chain layer cannot work with."""
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
    w.string(dna.dht_neighborhood_rule)
    w.string(dna.hash_alg_id)
    return w.getvalue()


def decode_dna(data: bytes) -> DnaDocument:
    r = Reader(data)
    if r.u8() != ord("D"):
        raise EncodingError("not a DNA encoding")
    app_name = r.string()
    description = r.string()
    defs = []
    for _ in range(r.u32()):
        type_name = r.string()
        schema = tuple((r.string(), r.string()) for _ in range(r.u32()))
        rules = tuple(r.string() for _ in range(r.u32()))
        cost = r.string()
        defs.append(EntryTypeDef(type_name, schema, rules, cost))
    vfids = tuple(r.string() for _ in range(r.u32()))
    params = tuple((r.string(), r.string()) for _ in range(r.u32()))
    redundancy = r.u32()
    rule = r.string()
    alg = r.string()
    r.finish()
    return DnaDocument(app_name, description, tuple(defs), vfids, params, redundancy, rule, alg)


@dataclass(frozen=True)
class GenesisRecord:
    """Second chain entry: ties an agent key to a network id."""

    dna_hash: bytes
    agent_id: bytes
    membrane_proof: bytes | None = None


def encode_genesis(gen: GenesisRecord) -> bytes:
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


def decode_genesis(data: bytes) -> GenesisRecord:
    r = Reader(data)
    if r.u8() != ord("G"):
        raise EncodingError("not a genesis encoding")
    dna_hash = r.digest()
    agent_id = r.lp_bytes()
    proof = r.lp_bytes() if r.u8() == 1 else None
    r.finish()
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


def encode_header(h: EntryHeader) -> bytes:
    """The canonical encoding, written at most once per header and kept on
    it like Record.signature_ok. decode_header keeps the bytes it read and
    _append_raw the ones it signed, which strict decoding makes equal to a
    fresh encoding; a mutated copy is a new header, so none goes stale."""
    encoded = getattr(h, "_encoded", None)
    if encoded is None:
        w = Writer()
        w.u8(ord("H"))
        w.u64(h.seq)
        w.u64(h.timestamp)
        w.string(h.entry_type)
        w.digest(h.entry_hash)
        w.lp_bytes(h.author)
        w.digest(h.prev_header_hash)
        w.lp_bytes(h.signature)
        encoded = w.getvalue()
        object.__setattr__(h, "_encoded", encoded)
    return encoded


def header_signing_bytes(h: EntryHeader) -> bytes:
    """What the author signs: the full header minus the signature field,
    which is its length-prefixed tail."""
    return encode_header(h)[: -4 - len(h.signature)]


def header_hash(header: EntryHeader) -> bytes:
    return hash_bytes(encode_header(header))


def decode_header(data: bytes) -> EntryHeader:
    r = Reader(data)
    if r.u8() != ord("H"):
        raise EncodingError("not a header encoding")
    seq = r.u64()
    timestamp = r.u64()
    entry_type = r.string()
    entry_hash = r.digest()
    author = r.lp_bytes()
    prev = r.digest()
    signature = r.lp_bytes()
    if len(author) != PUBLIC_KEY_SIZE:
        raise EncodingError("author key has wrong size")
    if len(signature) != SIGNATURE_SIZE:
        raise EncodingError("signature has wrong size")
    r.finish()
    h = EntryHeader(seq, timestamp, entry_type, entry_hash, author, prev, signature)
    object.__setattr__(h, "_encoded", bytes(data))
    return h


@dataclass(frozen=True)
class Record:
    """One chain element: signed header plus the payload bytes it commits to."""

    header: EntryHeader
    payload: bytes

    @cached_property
    def fields(self) -> Mapping[str, canonical.FieldValue]:
        """The payload as a canonical field map, decoded once per record.

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
    w = Writer()
    w.u8(ord("R"))
    w.lp_bytes(encode_header(record.header))
    w.lp_bytes(record.payload)
    return w.getvalue()


def decode_record(data: bytes) -> Record:
    r = Reader(data)
    if r.u8() != ord("R"):
        raise EncodingError("not a record encoding")
    header = decode_header(r.lp_bytes())
    payload = r.lp_bytes()
    r.finish()
    return Record(header, payload)


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


def _append_raw(chain: SourceChain, entry_type: str, payload: bytes, clock: int) -> Record:
    if chain.records:
        last = chain.records[-1].header
        if clock < last.timestamp:
            raise ChainError(f"clock went backwards: {clock} < {last.timestamp}")
        prev = header_hash(last)
        seq = last.seq + 1
    else:
        prev = ZERO_DIGEST
        seq = 0
    unsigned = EntryHeader(
        seq=seq,
        timestamp=clock,
        entry_type=entry_type,
        entry_hash=hash_bytes(payload),
        author=chain.owner.public_key,
        prev_header_hash=prev,
        signature=b"\x00" * SIGNATURE_SIZE,
    )
    signature = sign(chain.owner, header_signing_bytes(unsigned))
    signed = dataclasses.replace(unsigned, signature=signature)
    # the placeholder has the signature's size, so only the tail differs
    object.__setattr__(signed, "_encoded", encode_header(unsigned)[:-SIGNATURE_SIZE] + signature)
    record = Record(signed, bytes(payload))
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
    _append_raw(chain, DNA_TYPE, dna.encoded, clock)
    genesis = GenesisRecord(dna_hash=dna.network_id, agent_id=owner.public_key)
    _append_raw(chain, GENESIS_TYPE, encode_genesis(genesis), clock)
    return chain


def append_entry(
    chain: SourceChain, entry_type: str, payload: bytes | dict, clock: int
) -> Record:
    """Sign and append one app entry. The entry type must exist in the DNA."""
    if entry_type in SYSTEM_TYPES:
        raise ChainError(f"{entry_type!r} is written by init_chain only")
    if chain.dna.entry_type(entry_type) is None:
        raise ChainError(f"entry type {entry_type!r} not defined in DNA")
    if len(chain.records) < 2:
        raise ChainError("chain is not bootstrapped")
    if isinstance(payload, dict):
        payload = canonical.encode_fields(payload)
    return _append_raw(chain, entry_type, payload, clock)


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


def verify_records(
    records: list[Record], expected_head: bytes | None = None
) -> VerificationReport:
    """Walk a chain front to back; report the first broken record.

    Checks, in order per record: sequence/bootstrap structure, author
    exclusivity, previous-header link, payload hash, header signature.

    Internal checks cannot see pure tail truncation (a shortened chain is
    still self-consistent), so callers holding the author's last announced
    head should pass it as expected_head to pin the newest record.
    """
    if len(records) < 2:
        return VerificationReport(False, 0, REASON_STRUCTURE)
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
            if genesis.dna_hash != hash_bytes(records[0].payload):
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
        if h.entry_hash != hash_bytes(record.payload):
            return VerificationReport(False, i, REASON_ENTRY_HASH)
        if not record.signature_ok:
            return VerificationReport(False, i, REASON_SIGNATURE)
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
