import dataclasses
import sys
import time
import weakref

import pytest

from agentchain import canonical, chain, crypto, fuel, validation
from agentchain.chain import Record, encode_header, encode_record, record_key
from agentchain.dht import CLAIM_TRANSFER

SESSION_T0 = time.monotonic()
SUITE_BUDGET_SECONDS = 300.0

# filled by the acceptance tests, printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def session_elapsed() -> float:
    return time.monotonic() - SESSION_T0


def pytest_collection_modifyitems(session, config, items):
    # acceptance flows go last so their budget check sees the whole suite
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    terminalreporter.write_line(
        f"suite wall time: {session_elapsed():.1f}s (budget {SUITE_BUDGET_SECONDS:.0f}s)"
    )


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    if session_elapsed() > SUITE_BUDGET_SECONDS and session.exitstatus == 0:
        session.exitstatus = 1
        print(f"\nFAIL: suite exceeded {SUITE_BUDGET_SECONDS:.0f}s budget")


def _record_calls(monkeypatch, real) -> list[tuple]:
    """Arguments of every call of the package function real, through
    whichever module's binding it is made (``from .crypto import verify``
    binds verify in several)."""
    calls: list[tuple] = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "agentchain" or name.startswith("agentchain.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def verify_calls(monkeypatch):
    """Arguments of every crypto.verify call."""
    return _record_calls(monkeypatch, crypto.verify)


@pytest.fixture
def decode_calls(monkeypatch):
    """Arguments of every canonical.decode_fields call."""
    return _record_calls(monkeypatch, canonical.decode_fields)


@pytest.fixture
def decode_record_calls(monkeypatch):
    """Arguments of every chain.decode_record call: every record decoded
    from bytes."""
    return _record_calls(monkeypatch, chain.decode_record)


@pytest.fixture
def encode_calls(monkeypatch):
    """Arguments of every canonical.encode_fields call: every field map the
    package encodes."""
    return _record_calls(monkeypatch, canonical.encode_fields)


@pytest.fixture
def sign_calls(monkeypatch):
    """Arguments of every crypto.sign call."""
    return _record_calls(monkeypatch, crypto.sign)


@pytest.fixture
def keygen_calls(monkeypatch):
    """Arguments of every crypto.generate_keypair call."""
    return _record_calls(monkeypatch, crypto.generate_keypair)


@pytest.fixture
def hash_calls(monkeypatch):
    """Arguments of every crypto.hash_bytes call."""
    return _record_calls(monkeypatch, crypto.hash_bytes)


def holders_of(network, key: bytes) -> list:
    """The members that hold key in their shard or chain, in join order: a
    full scan, the oracle a holder index would be checked against."""
    return [agent for agent in network.agents if agent.holds(key)]


# id of a record object -> (a weak reference to it, the names of the caches
# on it and its header already checked), so that each record object is
# checked once, and again only when a cache is added to it
_CHECKED_CACHES: dict[int, tuple[weakref.ref, frozenset]] = {}


def assert_record_caches_coherent(record) -> None:
    """Every cache kept on record and on its header equals the value a
    fresh copy of the record, which keeps none, computes from its bytes."""
    header_caches, record_caches = vars(record.header), vars(record)
    names = frozenset(header_caches.keys() | record_caches.keys())
    seen = _CHECKED_CACHES.get(id(record))
    if seen is not None and seen[0]() is record and seen[1] == names:
        return
    fresh = Record(dataclasses.replace(record.header), record.payload)
    expected = {
        "_encoded": lambda: encode_header(fresh.header),
        "_hash": lambda: crypto.hash_bytes(encode_header(fresh.header)),
        "_payload_hash": lambda: crypto.hash_bytes(record.payload),
        "_key": lambda: crypto.hash_bytes(encode_record(fresh)),
        "_signature_ok": lambda: fresh.signature_ok,
        "fields": lambda: canonical.decode_fields(record.payload),
        "_cosign_violation": lambda: validation._cosign_violation(fresh),
    }
    for name, value in (*header_caches.items(), *record_caches.items()):
        if name in expected:
            got = dict(value) if name == "fields" else value
            assert got == expected[name](), f"cache {name} is stale"
    key = id(record)
    _CHECKED_CACHES[key] = (weakref.ref(record, lambda _: _CHECKED_CACHES.pop(key, None)), names)


def assert_network_coherent(network) -> None:
    """Every value the network and its members keep beside its source,
    recomputed from that source: member positions, the node-id order, the
    re-replication plan, the claim table and the transfer index, chain key
    indexes and running fuel ledgers, and the caches kept on each chain and
    shard record."""
    agents = network.agents
    assert network._positions == {a.public_key: i for i, a in enumerate(agents)}
    assert len(network._positions) == len(agents)
    if network._by_id:
        assert network._by_id == sorted(agents, key=lambda a: a.node_id)
    assert network._ids == [a.node_id for a in network._by_id]

    def ranked(key: bytes) -> list:
        k = int.from_bytes(key, "big")
        return sorted(agents, key=lambda a: a.node_id ^ k)

    plan: dict = {}
    for key, (count, author) in network._holder_sets.items():
        # r holders for a restricted type, backup_width for any other
        record = next(filter(None, (a.lookup(key) for a in agents)), None)
        if record is not None:
            restricted = network.is_restricted(record.header.entry_type)
            assert count == (network.redundancy if restricted else network.backup_width)
        # the planned author is the member whose chain holds the key, while
        # one does (a rewrite or a truncation drops it)
        assert author in network._positions
        assert [a.public_key for a in agents if key in a.chain.keys] in ([], [author])
        for member in ranked(key)[:count]:
            if key not in member.shard:
                plan.setdefault(member, set()).add(key)
    assert {a: keys for a, keys in network._pending.items() if keys} == plan

    claims = network._claims
    pools = 0
    for agent in agents:
        pools |= agent.news_bits
    assert pools == (1 << len(claims)) - 1
    assert network._claim_bit == {c.claim_id: bit for bit, c in enumerate(claims)}
    kinds: dict = {}
    transfers: dict = {}
    for bit, claim in enumerate(claims):
        kinds[claim.kind] = kinds.get(claim.kind, 0) | 1 << bit
        if claim.kind == CLAIM_TRANSFER:
            transfers.setdefault((claim.agent, claim.extra), {})[claim.claim_id] = claim.subject
    assert network._kind_bits == kinds
    assert network.transfer_index == transfers

    for agent in agents:
        records = agent.chain.records
        for record in (*records, *agent.shard.values()):
            assert_record_caches_coherent(record)
        keys = [crypto.hash_bytes(encode_record(r)) for r in records]
        assert [record_key(r) for r in records] == keys
        assert agent.chain.keys == {key: seq for seq, key in enumerate(keys)}
        assert fuel.balance(agent.chain) == fuel.walk_balance(agent.chain)
        assert agent.chain.ledger.tx_ids == {
            r.fields["tx_id"] for r in records if r.header.entry_type == fuel.FUEL_TX_TYPE
        }
