"""Source chain behavior: bootstrap, append, verify, export, and the
frozen golden fixtures that pin the wire format."""

import ast
import dataclasses
import random
import struct
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain import chain as chain_module
from agentchain.canonical import EncodingError, Reader, Writer
from agentchain.chain import (
    COST_HEAVY,
    ChainError,
    DNA_TYPE,
    DnaDocument,
    EntryHeader,
    EntryTypeDef,
    GENESIS_TYPE,
    GenesisRecord,
    REASON_AUTHOR,
    REASON_ENTRY_HASH,
    REASON_HEAD,
    REASON_LINK,
    REASON_SIGNATURE,
    REASON_STRUCTURE,
    Record,
    SYSTEM_TYPES,
    VerificationReport,
    append_entry,
    decode_genesis,
    decode_record,
    encode_dna,
    encode_genesis,
    encode_header,
    encode_record,
    export_records,
    header_hash,
    header_signing_bytes,
    init_chain,
    parse_chain_text,
    record_key,
    verify_chain,
    verify_records,
)
from agentchain.crypto import ZERO_DIGEST, generate_keypair, hash_bytes, verify
from agentchain.dht import agent_seed, make_agent
from agentchain.healthcare import healthcare_dna
from agentchain.sim import _HEADER_MUTATIONS, mutate_record

FIXTURES = Path(__file__).parent / "fixtures"

# frozen when the formats were first cut; any diff is a format break
GOLDEN_DNA_BYTES = 2485
GOLDEN_NETWORK_ID = "2113eef18f2dc567f3fa124a37c11f295650f2e56cc8ff7f5b14899ff04ae6e8"
GOLDEN_CHAIN_SHA = "891b3d5cb24f169de8c542545d3a9f9eda9f9c13c5bd6ec45a1c3fa5fed6a608"


def _keys(label: bytes = b"chain-tests"):
    return generate_keypair(hash_bytes(label))


def _chain(label: bytes = b"chain-tests"):
    return init_chain(_keys(label), healthcare_dna(), clock=0)


def test_bootstrap_shape():
    chain = _chain()
    assert len(chain) == 2
    assert chain.records[0].header.entry_type == "dna"
    assert chain.records[1].header.entry_type == "genesis"
    assert chain.records[0].header.prev_header_hash == ZERO_DIGEST
    assert chain.records[1].header.prev_header_hash == header_hash(chain.records[0].header)
    assert verify_chain(chain).ok


def test_genesis_binds_blueprint_and_author():
    chain = _chain()
    from agentchain.chain import decode_genesis

    genesis = decode_genesis(chain.records[1].payload)
    assert genesis.dna_hash == hash_bytes(chain.records[0].payload)
    assert genesis.agent_id == chain.owner.public_key


def _signed_with_genesis(payload: bytes) -> list:
    """A chain its author signed throughout, with payload as record 1."""
    dna = healthcare_dna()
    chain = chain_module.SourceChain(owner=_keys(b"genesis-flag"), dna=dna)
    chain_module._append_raw(chain, DNA_TYPE, dna.encoded, 0)
    chain_module._append_raw(chain, GENESIS_TYPE, payload, 0)
    append_entry(chain, "report", {"text": "after genesis"}, 1)
    return chain.records


@pytest.mark.parametrize("flag", [2, 0xFF])
def test_a_genesis_proof_flag_other_than_0_or_1_fails_at_seq_1(flag):
    keys = _keys(b"genesis-flag")
    honest = encode_genesis(GenesisRecord(healthcare_dna().network_id, keys.public_key))
    assert honest[-1] == 0
    assert verify_records(_signed_with_genesis(honest)).ok
    bad = honest[:-1] + bytes([flag])
    with pytest.raises(EncodingError, match="membrane proof flag"):
        decode_genesis(bad)
    report = verify_records(_signed_with_genesis(bad))
    assert (report.ok, report.first_failure_index, report.reason) == (False, 1, REASON_STRUCTURE)


def _lp(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw


# bytes shaped like a genesis payload up to its flag, which is any byte,
# then anything or a length-prefixed proof; and bytes of no shape at all
_genesis_like = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda digest, agent, flag, tail: b"G" + digest + _lp(agent) + bytes([flag]) + tail,
        st.binary(min_size=32, max_size=32),
        st.binary(max_size=40),
        st.one_of(st.integers(0, 2), st.integers(0, 255)),
        st.one_of(st.binary(max_size=12), st.binary(max_size=12).map(_lp)),
    ),
)


@given(_genesis_like)
@settings(max_examples=300, deadline=None)
def test_every_genesis_payload_that_decodes_re_encodes_to_its_own_bytes(data):
    try:
        genesis = decode_genesis(data)
    except EncodingError:
        return
    assert encode_genesis(genesis) == data


def test_append_and_verify():
    chain = _chain()
    r = append_entry(chain, "report", {"text": "hello"}, 5)
    assert r.header.seq == 2
    assert r.header.entry_hash == hash_bytes(r.payload)
    assert verify_chain(chain).ok


def test_append_rejects_bad_types_and_clocks():
    chain = _chain()
    with pytest.raises(ChainError):
        append_entry(chain, "dna", b"", 1)
    with pytest.raises(ChainError):
        append_entry(chain, "no_such_type", b"", 1)
    append_entry(chain, "report", {"text": "t"}, 10)
    with pytest.raises(ChainError):
        append_entry(chain, "report", {"text": "earlier"}, 9)


def test_append_needs_bootstrap():
    from agentchain.chain import SourceChain

    bare = SourceChain(owner=_keys(), dna=healthcare_dna())
    with pytest.raises(ChainError):
        append_entry(bare, "report", {"text": "t"}, 0)


def test_record_codec_roundtrip():
    chain = _chain()
    r = append_entry(chain, "report", {"text": "codec"}, 3)
    assert decode_record(encode_record(r)) == r
    assert record_key(r) == hash_bytes(encode_record(r))


def _busy_chain():
    chain = _chain(b"mutations")
    append_entry(chain, "report", {"text": "one"}, 3)
    append_entry(chain, "report", {"text": "two"}, 4)
    append_entry(chain, "report", {"text": "three"}, 6)
    return chain


@pytest.mark.parametrize(
    "mutate,expected_reason",
    [
        (lambda r: dataclasses.replace(r.header, seq=9), REASON_STRUCTURE),
        (lambda r: dataclasses.replace(r.header, author=b"\x05" * 32), REASON_AUTHOR),
        (lambda r: dataclasses.replace(r.header, prev_header_hash=b"\x06" * 32), REASON_LINK),
        (lambda r: dataclasses.replace(r.header, entry_hash=b"\x07" * 32), REASON_ENTRY_HASH),
        (lambda r: dataclasses.replace(r.header, signature=b"\x08" * 64), REASON_SIGNATURE),
    ],
)
def test_mutation_reasons(mutate, expected_reason):
    chain = _busy_chain()
    records = list(chain.records)
    records[3] = Record(mutate(records[3]), records[3].payload)
    report = verify_records(records)
    assert not report.ok
    assert report.first_failure_index == 3
    assert report.reason == expected_reason


def test_a_chain_no_key_signed_fails_at_its_first_record():
    """Author the identity point, every signature the identity point and
    S = 0: the RFC 8032 equation holds for any message, so a verifier that
    accepts small-order points passes this chain."""
    identity = bytes([1]) + bytes(31)
    forged = identity + bytes(32)
    dna = healthcare_dna()
    dna_header = EntryHeader(0, 0, DNA_TYPE, hash_bytes(dna.encoded), identity, ZERO_DIGEST, forged)
    genesis = encode_genesis(GenesisRecord(dna_hash=hash_bytes(dna.encoded), agent_id=identity))
    genesis_header = EntryHeader(
        1, 0, GENESIS_TYPE, hash_bytes(genesis), identity, header_hash(dna_header), forged
    )
    report = verify_records([Record(dna_header, dna.encoded), Record(genesis_header, genesis)])
    assert (report.ok, report.first_failure_index, report.reason) == (False, 0, REASON_SIGNATURE)


def test_verified_records_shared_with_a_mutated_one_still_report_its_index(verify_calls):
    chain = _busy_chain()
    assert verify_chain(chain).ok
    assert len(verify_calls) == len(chain.records)
    for i, record in enumerate(chain.records):
        sig = bytearray(record.header.signature)
        sig[-1] ^= 1
        records = list(chain.records)
        records[i] = Record(dataclasses.replace(record.header, signature=bytes(sig)), record.payload)
        verify_calls.clear()
        report = verify_records(records)
        assert (report.first_failure_index, report.reason) == (i, REASON_SIGNATURE)
        # the shared records before it keep their verdicts; only the copy is checked
        assert len(verify_calls) == 1
    assert verify_chain(chain).ok


def test_payload_mutation_detected():
    chain = _busy_chain()
    records = list(chain.records)
    records[2] = Record(records[2].header, records[2].payload + b"x")
    report = verify_records(records)
    assert (report.first_failure_index, report.reason) == (2, REASON_ENTRY_HASH)


def test_timestamp_rollback_detected():
    chain = _busy_chain()
    records = list(chain.records)
    early = dataclasses.replace(records[3].header, timestamp=1)
    records[3] = Record(early, records[3].payload)
    report = verify_records(records)
    assert not report.ok  # either monotonicity or the broken signature


def test_tail_truncation_needs_head_anchor():
    chain = _busy_chain()
    full = list(chain.records)
    trimmed = full[:-1]
    # self-consistent without an anchor...
    assert verify_records(trimmed).ok
    # ...but pinned by the announced head it cannot hide
    anchor = header_hash(full[-1].header)
    report = verify_records(trimmed, expected_head=anchor)
    assert not report.ok
    assert report.reason == REASON_HEAD
    assert verify_records(full, expected_head=anchor).ok


def test_interior_drop_and_swap_detected():
    chain = _busy_chain()
    records = list(chain.records)
    assert not verify_records(records[:2] + records[3:]).ok
    swapped = list(records)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert not verify_records(swapped).ok


def test_export_parse_roundtrip():
    chain = _busy_chain()
    text = export_records(chain.records)
    parsed = parse_chain_text(text)
    assert parsed == chain.records
    assert export_records(parsed) == text


def test_golden_chain_fixture():
    text = (FIXTURES / "golden_chain.txt").read_text()
    assert hash_bytes(text.encode()).hex() == GOLDEN_CHAIN_SHA
    records = parse_chain_text(text)
    assert len(records) == 7
    assert verify_records(records).ok


def decode_dna(data: bytes) -> DnaDocument:
    """The strict mirror of encode_dna, Reader-based: the round-trip oracle
    of the DNA layout. The program only encodes and hashes a DNA."""
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


def test_golden_dna_fixture():
    enc = bytes.fromhex((FIXTURES / "dna.hex").read_text().strip())
    assert len(enc) == GOLDEN_DNA_BYTES
    assert hash_bytes(enc).hex() == GOLDEN_NETWORK_ID
    assert encode_dna(healthcare_dna()) == enc
    assert decode_dna(enc) == healthcare_dna()


def _mutated_dnas(dna: DnaDocument):
    yield dataclasses.replace(dna, app_name=dna.app_name + "!")
    yield dataclasses.replace(dna, description=dna.description + " v2")
    yield dataclasses.replace(dna, dht_redundancy=dna.dht_redundancy + 1)
    yield dataclasses.replace(dna, validation_function_ids=("other-fn",))
    yield dataclasses.replace(dna, params=dna.params + (("extra", "1"),))
    first = dna.entry_type_defs[0]
    rest = dna.entry_type_defs[1:]
    yield dataclasses.replace(
        dna, entry_type_defs=(dataclasses.replace(first, type_name=first.type_name + "2"),) + rest
    )
    yield dataclasses.replace(
        dna,
        entry_type_defs=(dataclasses.replace(first, rule_ids=first.rule_ids + ("required:zz",)),) + rest,
    )
    yield dataclasses.replace(
        dna,
        entry_type_defs=(dataclasses.replace(first, validation_cost_class="heavy"),) + rest,
    )
    yield dataclasses.replace(
        dna,
        entry_type_defs=(dataclasses.replace(first, payload_schema=first.payload_schema + (("zz", "int"),)),) + rest,
    )


def test_any_dna_edit_changes_identity():
    dna = healthcare_dna()
    base = hash_bytes(encode_dna(dna))
    seen = {base}
    for variant in _mutated_dnas(dna):
        vid = hash_bytes(encode_dna(variant))
        assert vid != base
        seen.add(vid)
    assert len(seen) == 10  # all mutations distinct from base and each other


def test_network_id_is_encoded_once_and_shared_by_every_reader(monkeypatch):
    from agentchain import chain as chain_module

    real = chain_module.encode_dna
    encoded = []
    monkeypatch.setattr(chain_module, "encode_dna", lambda dna: encoded.append(dna) or real(dna))
    # equal to the shared blueprint, but fresh, so nothing is cached on it yet
    dna = dataclasses.replace(healthcare_dna())
    chain = init_chain(_keys(), dna)
    other = init_chain(_keys(b"other"), dna)
    for _ in range(3):
        assert chain.dna.network_id.hex() == GOLDEN_NETWORK_ID
    assert dna.network_id == chain.dna.network_id == other.dna.network_id
    # one encoding is record 0 of every chain and the preimage of the id
    assert len(encoded) == 1
    assert chain.records[0].payload is other.records[0].payload is dna.encoded
    assert hash_bytes(dna.encoded) == dna.network_id
    assert dataclasses.replace(dna, description="fork").network_id != dna.network_id


@given(st.lists(st.dictionaries(st.sampled_from(["text"]), st.text(min_size=1, max_size=30), min_size=1, max_size=1), min_size=0, max_size=6))
@settings(max_examples=40, deadline=None)
def test_chain_stays_verifiable_under_appends(payloads):
    chain = _chain(b"property")
    for i, payload in enumerate(payloads):
        append_entry(chain, "report", payload, 10 + i)
    assert verify_chain(chain).ok
    assert [r.header.seq for r in chain.records] == list(range(len(payloads) + 2))


# --- the chain owns its records and their key index ---------------------------

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.text(min_size=1, max_size=12)),
        st.tuples(st.just("replace"), st.integers(0, 63), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("truncate"), st.integers(0, 63)),
    ),
    max_size=12,
)


@given(_steps)
@settings(max_examples=50, deadline=None)
def test_the_key_index_stays_exact_under_appends_rewrites_and_truncation(steps):
    agent = make_agent(0, agent_seed(7, 0), healthcare_dna())
    chain = agent.chain
    seen = {record_key(r) for r in chain.records}
    for clock, step in enumerate(steps, start=1):
        if step[0] == "append":
            append_entry(chain, "report", {"text": step[1]}, clock)
        elif step[0] == "replace":
            seq = step[1] % len(chain)
            chain.replace_at(seq, Record(chain.records[seq].header, step[2]))
        else:
            chain.truncate(2 + step[1] % (len(chain) - 1))
        by_scan = {record_key(r): r for r in chain.records}
        assert chain.keys == {key: r.header.seq for key, r in by_scan.items()}
        seen |= by_scan.keys()
        for key in seen:
            assert agent.holds(key) == (key in by_scan)
            assert agent.lookup(key) is by_scan.get(key)
            assert chain.lookup(key) is by_scan.get(key)


_LIST_WRITES = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _writes_to_records(tree) -> list[int]:
    """Line numbers that assign, delete or mutate through ``<x>.records``."""

    def is_records(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "records"

    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if is_records(target) or isinstance(target, ast.Subscript) and is_records(target.value):
                lines.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIST_WRITES
            and is_records(node.func.value)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_nothing_outside_chain_py_writes_a_chains_records():
    root = Path(__file__).parent.parent
    sources = [p for p in (root / "src" / "agentchain").glob("*.py") if p.name != "chain.py"]
    sources += (root / "tests").glob("*.py")
    offenders = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(sources)
        for line in _writes_to_records(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []
    # the detector itself sees every kind of write
    probe = ast.parse(
        "c.records[0] = r\ndel c.records[2:]\nc.records += [r]\nc.records = []\n"
        "c.records.append(r)\nc.records.pop()\nc.records.sort()\nn = len(c.records)\n"
    )
    assert _writes_to_records(probe) == [1, 2, 3, 4, 5, 6, 7]


def _blueprint_param_reads(tree, names) -> list[int]:
    """Line numbers that read ``<x>.params`` or ``<x>.param``, or spell one
    of the DNA param names."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("param", "params")
        or isinstance(node, ast.Constant) and node.value in names
    )


def test_only_chain_py_reads_a_blueprints_params():
    names = {value for name, value in vars(chain_module).items() if name.endswith("_PARAM")}
    assert names == {"dht.restricted_prefixes", "fuel.credit_limit"}
    root = Path(__file__).parent.parent
    sources = [p for p in (root / "src" / "agentchain").glob("*.py") if p.name != "chain.py"]
    offenders = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(sources)
        for line in _blueprint_param_reads(ast.parse(path.read_text(), str(path)), names)
    ]
    assert offenders == []
    # the detector itself sees each kind of read, and not a blueprint built
    # from the constants
    probe = ast.parse(
        'a = dna.params\nb = dna.param("k")\nc = "fuel.credit_limit"\n'
        'd = DnaDocument(params=((CREDIT_LIMIT_PARAM, "1"),))\ne = {"params": 1}\n'
    )
    assert _blueprint_param_reads(probe, names) == [1, 2, 3]


def test_entry_type_returns_the_first_of_two_definitions_sharing_a_name():
    first = EntryTypeDef("note", (("text", "str"),), ("required:text",))
    dna = DnaDocument(
        "dup", "two notes", (first, EntryTypeDef("note", (), (), COST_HEAVY), EntryTypeDef("tag", (), ()))
    )
    assert dna.entry_type("note") is first
    assert dna.entry_type("tag") is dna.entry_type_defs[2]
    assert dna.entry_type("missing") is None
    # a blueprint without params has no credit and no restricted types
    assert (dna.credit_limit, dna.restricted_prefixes) == (0, ())


# --- a record's bytes and key, derived once per object in chain.py -------------

def _reference_header(h, signed: bool = True) -> bytes:
    """A header's canonical encoding written field by field, independently
    of the encoding chain.py keeps on the header."""
    w = Writer()
    w.u8(ord("H"))
    w.u64(h.seq)
    w.u64(h.timestamp)
    w.string(h.entry_type)
    w.digest(h.entry_hash)
    w.lp_bytes(h.author)
    w.digest(h.prev_header_hash)
    if signed:
        w.lp_bytes(h.signature)
    return w.getvalue()


def _reference_record(record) -> bytes:
    w = Writer()
    w.u8(ord("R"))
    w.lp_bytes(_reference_header(record.header))
    w.lp_bytes(record.payload)
    return w.getvalue()


def _derived(record) -> tuple:
    h = record.header
    return (
        encode_header(h), header_signing_bytes(h), header_hash(h),
        encode_record(record), record_key(record), record.signature_ok,
    )


def _reference(record) -> tuple:
    h = record.header
    header, signing, whole = _reference_header(h), _reference_header(h, signed=False), _reference_record(record)
    return header, signing, hash_bytes(header), whole, hash_bytes(whole), verify(h.author, signing, h.signature)


_SOURCES = ("append", "decode", "parse", "replace_at", "fresh") + _HEADER_MUTATIONS


@given(
    st.lists(st.text(max_size=12), min_size=1, max_size=4),
    st.sampled_from(_SOURCES),
    st.integers(0, 63),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_every_derived_byte_string_and_key_matches_a_fresh_encoding(texts, source, pick, seed):
    chain = _chain(b"derived-bytes")
    for clock, text in enumerate(texts, start=1):
        append_entry(chain, "report", {"text": text}, clock)
    seq = pick % len(chain)
    original = chain.records[seq]
    # derive everything first, so a copy made after it cannot inherit a kept value
    assert _derived(original) == _reference(original)
    if source == "append":
        record = original
    elif source == "decode":
        record = decode_record(encode_record(original))
    elif source == "parse":
        record = parse_chain_text(export_records(chain.records))[seq]
    elif source == "replace_at":
        chain.replace_at(seq, Record(original.header, original.payload + b"\x00"))
        record = chain.records[seq]
    elif source == "fresh":
        record = Record(dataclasses.replace(original.header), bytes(original.payload))
    else:
        record = mutate_record(original, source, random.Random(seed))
    assert _derived(record) == _reference(record)
    assert decode_record(encode_record(record)) == record
    if source in ("append", "decode", "parse", "fresh"):
        assert _derived(record) == _derived(original)


def test_one_append_writes_one_header_and_parse_plus_verify_write_none(monkeypatch):
    written = []

    def counting(packer, tag):
        class Counting(struct.Struct):
            def pack(self, *values) -> bytes:
                written.append(tag)
                return super().pack(*values)

        return Counting(packer.format)

    chain = _chain(b"count-pin")
    append_entry(chain, "report", {"text": "first"}, 1)
    # the fixed-width head of each header and record layout is packed once
    # per encoding, so counting its packs counts encodings
    monkeypatch.setattr(chain_module, "_HEADER_HEAD", counting(chain_module._HEADER_HEAD, b"H"))
    monkeypatch.setattr(chain_module, "_RECORD_HEAD", counting(chain_module._RECORD_HEAD, b"R"))
    append_entry(chain, "report", {"text": "second"}, 2)
    # the header it signs, then the record whose hash keys it
    assert written == [b"H", b"R"]
    text, head = export_records(chain.records), header_hash(chain.records[-1].header)
    written.clear()
    assert verify_records(parse_chain_text(text), expected_head=head).ok
    assert written == []


# ---------------------------------------------------------------------------
# verify_records against the front-to-back walk it replaces


def oracle_verify_records(records, expected_head=None):
    """The one-pass walk verify_records reports as: per record, every
    structural check and then the header signature."""
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
        if not verify(h.author, header_signing_bytes(h), h.signature):
            return VerificationReport(False, i, REASON_SIGNATURE)
    if expected_head is not None and header_hash(records[-1].header) != expected_head:
        return VerificationReport(False, len(records) - 1, REASON_HEAD)
    return VerificationReport(True)


def _long_chain_text(length: int) -> tuple[str, bytes]:
    """Export text and head of a chain of length records, so every parse
    of it gives records no signature check has seen."""
    chain = _chain(b"fan-out")
    for clock in range(1, length - 1):
        append_entry(chain, "report", {"text": f"entry {clock}"}, clock)
    return export_records(chain.records), header_hash(chain.records[-1].header)


_ORACLE_LENGTH = 24
_ORACLE_TEXT, _ORACLE_HEAD = _long_chain_text(_ORACLE_LENGTH)

_edits = st.lists(
    st.tuples(st.sampled_from(_HEADER_MUTATIONS), st.integers(0, _ORACLE_LENGTH - 1)),
    max_size=2,
)
_reshapes = st.one_of(
    st.just(("none", 0, 0)),
    st.tuples(
        st.sampled_from(("drop", "duplicate", "swap", "truncate")),
        st.integers(0, _ORACLE_LENGTH - 2),
        st.integers(1, _ORACLE_LENGTH - 1),
    ),
)


def _edited(edits, reshape, seed):
    records = parse_chain_text(_ORACLE_TEXT)
    rng = random.Random(seed)
    for how, at in edits:
        records[at] = mutate_record(records[at], how, rng)
    kind, i, n = reshape
    if kind == "drop":
        del records[i]
    elif kind == "duplicate":
        records.insert(i, records[i])
    elif kind == "swap":
        records[i], records[i + 1] = records[i + 1], records[i]
    elif kind == "truncate":
        del records[n:]
    return records


@pytest.mark.parametrize("cpus", [1, 2, 4])
@given(_edits, _reshapes, st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_verify_records_reports_as_the_front_to_back_walk(cpus, edits, reshape, pin_head, seed):
    head = _ORACLE_HEAD if pin_head else None
    want = oracle_verify_records(_edited(edits, reshape, seed), head)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_module, "USABLE_CPUS", cpus)
        mp.setattr(chain_module, "MIN_SIGNATURES_PER_THREAD", 1)
        got = verify_records(_edited(edits, reshape, seed), head)
    assert (got.ok, got.first_failure_index, got.reason) == (
        want.ok, want.first_failure_index, want.reason
    )


_FAN_OUT_TEXT, _FAN_OUT_HEAD = _long_chain_text(80)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_an_honest_chain_costs_one_verify_a_record_then_none(cpus, monkeypatch, verify_calls):
    monkeypatch.setattr(chain_module, "USABLE_CPUS", cpus)
    records = parse_chain_text(_FAN_OUT_TEXT)
    assert verify_records(records, expected_head=_FAN_OUT_HEAD).ok
    assert sorted(sig for _key, _msg, sig in verify_calls) == sorted(
        r.header.signature for r in records
    )
    verify_calls.clear()
    assert verify_records(records, expected_head=_FAN_OUT_HEAD).ok
    assert verify_calls == []


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("at", [2, 40, 79])
def test_a_break_at_f_verifies_nothing_at_or_after_f(cpus, at, monkeypatch, verify_calls):
    monkeypatch.setattr(chain_module, "USABLE_CPUS", cpus)
    records = parse_chain_text(_FAN_OUT_TEXT)
    records[at] = Record(records[at].header, records[at].payload + b"x")
    report = verify_records(records, expected_head=_FAN_OUT_HEAD)
    assert (report.first_failure_index, report.reason) == (at, REASON_ENTRY_HASH)
    assert sorted(sig for _key, _msg, sig in verify_calls) == sorted(
        r.header.signature for r in records[:at]
    )


def test_each_usable_cpu_takes_a_slice_and_no_helper_outlives_the_call(monkeypatch):
    callers = []

    def noting(public_key, message, signature):
        callers.append(threading.current_thread())
        return verify(public_key, message, signature)

    monkeypatch.setattr(chain_module, "USABLE_CPUS", 4)
    monkeypatch.setattr(chain_module, "verify", noting)
    before = threading.active_count()
    assert verify_records(parse_chain_text(_FAN_OUT_TEXT), expected_head=_FAN_OUT_HEAD).ok
    assert threading.active_count() == before
    assert len(set(callers)) == 4 and threading.current_thread() in callers


_TAMPER_TEXT, _TAMPER_HEAD = _long_chain_text(250)


@pytest.mark.parametrize("how", _HEADER_MUTATIONS)
def test_re_verifying_after_one_mutation_hashes_only_the_new_record(how, hash_calls):
    """Each header keeps its hash and each record its payload's, so
    re-verifying a verified chain with record 200 replaced hashes little
    beyond the replaced record's header and payload, not the 200 headers
    and payloads before it."""
    records = parse_chain_text(_TAMPER_TEXT)
    assert verify_records(records, expected_head=_TAMPER_HEAD).ok
    records[200] = mutate_record(records[200], how, random.Random(200))
    hash_calls.clear()
    report = verify_records(records, expected_head=_TAMPER_HEAD)
    assert (report.ok, report.first_failure_index) == (False, 200)
    assert len(hash_calls) <= 3


class _Boom(Exception):
    pass


@pytest.mark.parametrize("at", [0, 79])  # the calling thread's slice, the last helper's
def test_an_exception_in_a_slice_reaches_the_caller_and_no_excepthook(at, monkeypatch):
    records = parse_chain_text(_FAN_OUT_TEXT)
    target = records[at].header.signature
    raised = []  # the thread the one raise happened on

    def exploding(public_key, message, signature):
        if signature == target and not raised:
            raised.append(threading.current_thread())
            raise _Boom(at)
        return verify(public_key, message, signature)

    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(chain_module, "USABLE_CPUS", 4)
    monkeypatch.setattr(chain_module, "verify", exploding)
    before = threading.active_count()
    with pytest.raises(_Boom):
        verify_records(records)
    assert (raised[0] is threading.current_thread()) == (at == 0)
    assert threading.active_count() == before
    assert hooked == []
