"""Shared storage layer: neighborhoods, publish/fetch, gossip, defenses.

The neighborhood oracle recomputes XOR ranking from scratch with hashlib so
the production ranking is checked against an independent implementation.
The ``oracle_*`` functions are brute-force references that re-sort the
whole network on every call; the memoized lookups must return the same
lists in the same order.
"""

import ast
import copy
import dataclasses
import hashlib
import itertools
import math
import os
import random
import threading
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain import chain as chain_module
from agentchain import dht as dht_module
from agentchain.chain import (
    ChainError,
    Record,
    encode_record,
    init_chain,
    record_key,
    validate_dna,
)
from agentchain.crypto import generate_keypair, sign
from agentchain.dht import (
    CLAIM_MISBEHAVIOR,
    CLAIM_REVOKE,
    CLAIM_TRANSFER,
    CrossNetworkError,
    DhtError,
    GossipMessage,
    Network,
    agent_seed,
    make_agent,
    make_agents,
    make_envelope,
    misbehavior_claim,
    revoke_claim,
    transfer_claim,
)
from agentchain.healthcare import healthcare_dna
from agentchain.metrics import Metrics
from agentchain.reputation import ObservationKind, is_blacklisted, update_experience
from agentchain.sim import (
    Simulation,
    audit_access_log,
    config_from_dict,
    export_all_chains,
    load_scenario,
    run_scenario,
)
from agentchain.validation import Marketplace
from conftest import assert_network_coherent, assert_record_caches_coherent, holders_of


def _network(n=12, seed=99, **kw):
    dna = healthcare_dna()
    net = Network(dna, Marketplace(), **kw)
    for i in range(n):
        net.join(make_agent(i, agent_seed(seed, i), dna))
    return net


CLAIM_KINDS = (CLAIM_TRANSFER, CLAIM_MISBEHAVIOR, CLAIM_REVOKE)


def _pool_ids(net, agent):
    """agent's whole news pool as claim ids, lowest first."""
    return sorted(
        claim.claim_id
        for kind in CLAIM_KINDS
        for claim in net.claims_of(agent, kind)
    )


def _vitals_fields(agent, value=70):
    return {
        "metric": "pulse",
        "value": value,
        "unit": "bpm",
        "taken_at": 5,
        "patient": agent.public_key,
    }


# --- identity and topology ---------------------------------------------------

def test_agent_seed_is_stable_and_distinct():
    assert agent_seed(7, 3) == agent_seed(7, 3)
    assert len(agent_seed(7, 3)) == 32
    seen = {agent_seed(s, i) for s in range(5) for i in range(20)}
    assert len(seen) == 100
    assert agent_seed(1, 2) != agent_seed(2, 1)


def test_neighborhood_matches_brute_force_oracle():
    net = _network(n=20)
    rng = random.Random(404)
    for _ in range(25):
        key = rng.randbytes(32)
        k = int.from_bytes(key, "big")
        oracle = sorted(
            net.agents,
            key=lambda a: int.from_bytes(hashlib.sha256(a.keys.public_key).digest(), "big") ^ k,
        )
        for r in (1, 4, 9, 25):
            assert net.neighborhood(key, r) == oracle[: min(r, 20)]


def _xor_sorted(agents, key):
    k = int.from_bytes(key, "big")
    return sorted(agents, key=lambda a: a.node_id ^ k)


def oracle_neighborhood(net, key, r=None):
    r = net.redundancy if r is None else r
    ranked = _xor_sorted(net.agents, key)
    return ranked[: max(0, min(r, len(ranked)))]


def oracle_backup_targets(net, key):
    return _xor_sorted(net.agents, key)[: net.backup_width]


def oracle_fetch(net, requester, key, count_messages=True):
    local = requester.lookup(key)
    if local is not None:
        return local
    for holder in _xor_sorted(net.agents, key):
        if holder is requester:
            continue
        if count_messages:
            net.metrics.messages += 1
        if not holder.online:
            continue
        found = holder.lookup(key)
        if found is not None:
            return found
    return None


def _assert_lookups_match_oracle(net, rng, keys, records):
    n = len(net.agents)
    for key in keys:
        for r in (None, 0, 1, 4, 9, 70, n + 1):
            assert net.neighborhood(key, r) == oracle_neighborhood(net, key, r)
        # a walk asked to sort nothing still ranks every member, one alone too
        assert list(net._nearest(key, 0)) == _xor_sorted(net.agents, key)
    for record in records:
        key = record_key(record)
        assert net.backup_targets(key) == oracle_backup_targets(net, key)
    for key in keys + [record_key(r) for r in records]:
        requester = rng.choice(net.agents)
        before = net.metrics.messages
        found = net.fetch(requester, key)
        used = net.metrics.messages - before
        assert oracle_fetch(net, requester, key) is found
        assert net.metrics.messages - before == 2 * used


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_walked_lookups_match_the_sorting_oracle_under_churn_and_late_joins(n):
    net = _network(n=n, seed=n)
    rng = random.Random(n)
    records = []
    for i, agent in enumerate(net.agents[:6]):
        for entry_type, fields in (
            ("report", {"text": f"note {i}"}),
            ("vitals_pulse", _vitals_fields(agent, 60 + i)),
        ):
            record = agent.append(entry_type, fields, 10)
            net.publish(agent, record)
            records.append(record)
    keys = [rng.randbytes(32) for _ in range(6)]
    for _ in range(8):
        for agent in net.agents:
            if rng.random() < 0.3:
                agent.online = not agent.online
        _assert_lookups_match_oracle(net, rng, keys, records)
    # a late joiner is nearest to its own node id, so every key ranked
    # before it joined must be re-ranked with it in front
    late = make_agent(n, agent_seed(n, 1000), net.dna)
    own_key = late.node_id.to_bytes(32, "big")
    assert late not in net.neighborhood(own_key)
    net.join(late)
    assert net.neighborhood(own_key)[0] is late
    _assert_lookups_match_oracle(net, rng, keys + [own_key], records)


@pytest.mark.parametrize("name", ["churn_availability", "holder_serve"])
def test_scenarios_give_the_same_bytes_with_the_sorting_oracle(name, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{name}.json")
    production = run_scenario(load_scenario(path))
    monkeypatch.setattr(Network, "neighborhood", oracle_neighborhood)
    monkeypatch.setattr(Network, "fetch", oracle_fetch)
    oracle = run_scenario(load_scenario(path))
    assert production.metrics_log.to_csv() == oracle.metrics_log.to_csv()
    assert export_all_chains(production) == export_all_chains(oracle)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walked_rankings_match_the_sorting_oracle_as_members_join(data):
    dna = healthcare_dna()
    net = Network(dna, Marketplace())
    rng = random.Random(data.draw(st.integers(0, 2**32), label="rng seed"))
    readers = ["r0", "r1", "r", "r9", "past n", "backup", "fetch held", "fetch missing"]
    for step in range(data.draw(st.integers(1, 12), label="steps")):
        if len(net.agents) < 2 or data.draw(st.booleans(), label="join"):
            # few keypairs, so a member's key often tries to join again and
            # is refused, keeping the members and their node-id order; the
            # index is drawn apart from the join order
            seed = agent_seed(0, data.draw(st.integers(0, 9), label="keypair"))
            agent = make_agent(data.draw(st.integers(0, 99), label="index"), seed, dna)
            if agent.public_key in net._positions:
                kept = (list(net.agents), dict(net._positions), list(net._by_id))
                with pytest.raises(DhtError):
                    net.join(agent)
                assert (net.agents, net._positions, net._by_id) == kept
            else:
                net.join(agent)
            continue
        n = len(net.agents)
        near_member = rng.choice(net.agents).node_id ^ rng.getrandbits(rng.choice([0, 8, 255]))
        key = data.draw(
            st.sampled_from([rng.randbytes(32), near_member.to_bytes(32, "big")]), label="key"
        )
        author = rng.choice(net.agents)
        record = author.append("report", {"text": f"step {step}"}, step + 1)
        for holder in rng.sample(net.agents, rng.randint(1, min(3, n))):
            holder.shard[record_key(record)] = record
        for agent in net.agents:
            agent.online = rng.random() < 0.5
        for reader in data.draw(st.permutations(readers), label="reader order"):
            if reader == "backup":
                assert net.backup_targets(key) == oracle_backup_targets(net, key)
            elif reader.startswith("fetch"):
                wanted = record_key(record) if reader == "fetch held" else key
                requester = rng.choice(net.agents)
                before = net.metrics.messages
                found = net.fetch(requester, wanted)
                used = net.metrics.messages - before
                assert oracle_fetch(net, requester, wanted) is found
                assert net.metrics.messages - before == 2 * used
            else:
                r = {"r0": 0, "r1": 1, "r": None, "r9": 9, "past n": n + 1}[reader]
                assert net.neighborhood(key, r) == oracle_neighborhood(net, key, r)


def test_a_member_s_key_cannot_join_again():
    net = _network(n=5)
    member = net.agents[3]
    key = member.node_id.to_bytes(32, "big")
    assert net.neighborhood(key, 3)[0] is member
    assert net._by_id  # sorted by the walk above
    state = (list(net.agents), dict(net._positions), list(net._by_id))
    for agent in (member, make_agent(50, agent_seed(99, 3), net.dna)):
        with pytest.raises(DhtError, match="already a member"):
            net.join(agent)
        assert (net.agents, net._positions, net._by_id) == state
    # a member's key under a foreign blueprint is refused for its blueprint
    forked = dataclasses.replace(net.dna, app_name=net.dna.app_name + "-fork")
    with pytest.raises(CrossNetworkError):
        net.join(make_agent(50, agent_seed(99, 3), forked))
    assert (net.agents, net._positions, net._by_id) == state


def test_fetch_walks_only_as_deep_as_the_nearest_online_holder():
    net = _network(n=40)
    key = b"\x3c" * 32
    ranked = _xor_sorted(net.agents, key)
    for agent in ranked[:20]:
        agent.online = False
    requester = ranked[-1]
    record = requester.append("report", {"text": "far"}, 1)
    ranked[20].shard[key] = record
    taken = []
    walk = net._nearest

    def counted(key, first):
        for agent in walk(key, first):
            taken.append(agent)
            yield agent

    net._nearest = counted
    # one probe per member walked: the 20 offline ones, then the holder
    before = net.metrics.messages
    assert net.fetch(requester, key) is record
    assert net.metrics.messages - before == 21
    assert taken == ranked[:21]
    # a missing key: fetch probes every member but the requester
    del ranked[20].shard[key]
    taken.clear()
    before = net.metrics.messages
    assert net.fetch(requester, key) is None
    assert net.metrics.messages - before == 39
    assert taken == ranked


def test_neighborhood_ignores_presence():
    net = _network()
    key = b"\x5c" * 32
    before = net.neighborhood(key)
    before[0].online = False
    assert net.neighborhood(key) == before


def test_backup_targets_ignore_presence():
    net = _network(n=16)
    author = net.agents[0]
    record = author.append("report", {"text": "spread me"}, 10)
    key = record_key(record)
    targets = net.backup_targets(key)
    assert len(targets) == math.ceil(net.redundancy * 2.0) == 8
    assert targets == _xor_sorted(net.agents, key)[:8]
    assert targets[: net.redundancy] == net.neighborhood(key)
    # knock the nearest targets offline: the set stays as it is
    for target in targets[:3]:
        target.online = False
    assert net.backup_targets(key) == targets


@pytest.mark.parametrize(
    "factor, width",
    [(1.0, 4), (1.5, 6), (2.0, 8), (2.01, 9), (1e9, 4 * 10**9), (1e308, 2**32)],
)
def test_the_backup_width_is_ceil_r_times_the_factor_and_never_overflows(factor, width):
    """ceil(r * backup_factor), capped at 2**32, past any member count."""
    net = _network(n=6, backup_factor=factor)
    assert net.backup_width == width
    key = b"\x11" * 32
    assert net.backup_targets(key) == _xor_sorted(net.agents, key)[:width]


# --- bootstrap ---------------------------------------------------------------


def _member(agent):
    """What a member is made of: index, key, node id, blacklist threshold
    and the encoding of every chain record."""
    return (
        agent.index,
        agent.public_key,
        agent.node_id,
        agent.experience.blacklist_threshold,
        [encode_record(record) for record in agent.chain.records],
    )


@pytest.mark.parametrize("cpus", [1, 2, 4])  # the usable CPUs change nothing
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 40),
    st.one_of(st.none(), st.sampled_from([0.05, 0.25, 0.5])),
)
@settings(max_examples=20, deadline=None)
def test_make_agents_is_the_sequential_list(cpus, run_seed, count, threshold):
    options = {} if threshold is None else {"blacklist_threshold": threshold}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_module, "USABLE_CPUS", cpus)
        got = make_agents(run_seed, count, dataclasses.replace(healthcare_dna()), **options)
    dna = healthcare_dna()
    want = [make_agent(i, agent_seed(run_seed, i), dna, **options) for i in range(count)]
    assert [_member(a) for a in got] == [_member(a) for a in want]


class _Boom(Exception):
    pass


@pytest.mark.parametrize("at", [0, 39])  # the first member, the last
def test_a_member_that_fails_to_bootstrap_fails_make_agents_on_the_caller(at, monkeypatch):
    """The failure is raised on the calling thread, and no member after the
    failing one is built."""
    target = generate_keypair(agent_seed(5, at)).public_key
    owners = []  # every member init_chain was asked for
    raised = []  # the thread the one raise happened on

    def exploding(owner, dna, clock=0):
        owners.append(owner.public_key)
        if owner.public_key == target:
            raised.append(threading.current_thread())
            raise _Boom(at)
        return init_chain(owner, dna, clock)

    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(chain_module, "USABLE_CPUS", 4)
    monkeypatch.setattr(dht_module, "init_chain", exploding)
    before = threading.active_count()
    with pytest.raises(_Boom):
        make_agents(5, 40, healthcare_dna())
    assert raised == [threading.current_thread()]
    assert owners == [generate_keypair(agent_seed(5, i)).public_key for i in range(at + 1)]
    assert threading.active_count() == before
    assert hooked == []


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("count", [0, 1, 7, 40])
def test_a_member_costs_one_keygen_and_two_signs(cpus, count, monkeypatch, keygen_calls, sign_calls):
    monkeypatch.setattr(chain_module, "USABLE_CPUS", cpus)
    agents = make_agents(3, count, healthcare_dna())
    assert len(keygen_calls) == count
    assert len(sign_calls) == 2 * count
    assert [seed for (seed,) in keygen_calls] == [agent_seed(3, i) for i in range(count)]
    assert [len(a.chain) for a in agents] == [2] * count


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("count", [1, 8, 40])
def test_a_blueprint_is_checked_once_whatever_the_member_count(cpus, count, monkeypatch):
    looked = []  # validate_dna's reserved-name check looks up each entry type name

    class Counted(tuple):
        def __contains__(self, name):
            looked.append(name)
            return tuple.__contains__(self, name)

    monkeypatch.setattr(chain_module, "SYSTEM_TYPES", Counted(chain_module.SYSTEM_TYPES))
    monkeypatch.setattr(chain_module, "USABLE_CPUS", cpus)
    dna = dataclasses.replace(healthcare_dna())  # fresh, so not yet checked
    make_agents(5, count, dna)
    make_agents(6, count, dna)
    make_agent(0, agent_seed(7, 0), dna)
    assert looked == [etd.type_name for etd in dna.entry_type_defs]


def test_a_bad_blueprint_is_refused_every_time():
    bad = dataclasses.replace(healthcare_dna(), dht_redundancy=0)
    for _ in range(2):
        with pytest.raises(ChainError, match="dht_redundancy"):
            make_agents(5, 3, bad)
        with pytest.raises(ChainError, match="dht_redundancy"):
            validate_dna(bad)


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("count", [48, 64, 256, 1024])  # fuel_market, ward_churn, shard_publish, probe
def test_make_agents_starts_no_thread_whatever_the_cpus(cpus, count, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a thread was made")

    monkeypatch.setattr(chain_module, "USABLE_CPUS", cpus)
    monkeypatch.setattr(threading, "Thread", refused)
    monkeypatch.setattr(dht_module, "make_agent", lambda i, *args, **kwargs: i)
    assert make_agents(9, count, healthcare_dna()) == list(range(count))


def _looped_make_agent_calls(tree) -> list[tuple[int, str]]:
    """(line, enclosing function) of each make_agent call made inside a
    loop or a comprehension."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    calls = []

    def visit(node, scope, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        looped = looped or isinstance(node, loops)
        if looped and isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "make_agent":
                calls.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, looped)

    visit(tree, (), False)
    return calls


def test_members_are_bootstrapped_by_make_agents_only():
    """No loop in the package builds members one make_agent call at a time
    (to join them, or for anything else) but make_agents' own."""
    root = Path(__file__).parent.parent / "src" / "agentchain"
    offenders = [
        f"{path.name}:{line} {scope}"
        for path in sorted(root.glob("*.py"))
        for line, scope in _looped_make_agent_calls(ast.parse(path.read_text(), str(path)))
        if (path.name, scope) != ("dht.py", "make_agents")
    ]
    assert offenders == []
    probe = ast.parse(
        "for i in range(n):\n    net.join(make_agent(i, s, d))\n"
        "agents = [dht.make_agent(i, s, d) for i in range(n)]\nmake_agent(0, s, d)\n"
        "def f():\n    while x:\n        a = make_agent(0, s, d)\n"
    )
    assert _looped_make_agent_calls(probe) == [(2, ""), (3, ""), (7, "f")]


# --- publish -----------------------------------------------------------------

def test_publish_stores_at_neighborhood_with_signed_receipts():
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "hello"}, 10)
    key = record_key(record)
    receipts = net.publish(author, record)
    assert len(receipts) == net.redundancy
    holder_keys = {r.holder for r in receipts}
    for validator in net.neighborhood(key):
        assert validator.public_key in holder_keys
        assert validator.holds(key)
    assert net.metrics.stores == net.redundancy
    assert net.metrics.validations >= net.redundancy


def test_publish_skips_offline_validators_without_penalty():
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "hello"}, 10)
    key = record_key(record)
    sleeper = next(v for v in net.neighborhood(key) if v is not author)
    sleeper.online = False
    receipts = net.publish(author, record)
    assert len(receipts) == net.redundancy - 1
    assert not sleeper.holds(key)
    assert sleeper.public_key not in author.experience.rows  # skipped, not scored


def test_invalid_publish_rejected_and_scored_against_author():
    net = _network()
    author = net.agents[0]
    record = author.append("vitals_pulse", _vitals_fields(author, value=9999), 10)
    receipts = net.publish(author, record)
    assert receipts == []
    key = record_key(record)
    assert holders_of(net, key) == [author]  # only its own chain copy
    for validator in net.neighborhood(key):
        if validator is author:
            continue
        assert validator.experience.rows[author.public_key].confidence == 0.25
    assert net.metrics.rejections >= net.redundancy - 1


def test_publish_requires_membership_and_chain_presence():
    net = _network()
    foreign_dna = healthcare_dna(redundancy=5)
    stranger = make_agent(99, agent_seed(1, 99), foreign_dna)
    with pytest.raises(CrossNetworkError):
        net.join(stranger)
    record = stranger.append("report", {"text": "hi"}, 1)
    with pytest.raises(CrossNetworkError):
        net.publish(stranger, record)
    # a member cannot publish somebody else's record as its own
    a, b = net.agents[0], net.agents[1]
    theirs = b.append("report", {"text": "b wrote this"}, 2)
    with pytest.raises(DhtError):
        net.publish(a, theirs)


def test_only_the_member_at_its_key_s_position_publishes():
    net = _network(n=8)
    # built from the network's blueprint, but never joined; and a second
    # agent object under a member's key pair
    outsider = make_agent(99, agent_seed(2, 99), net.dna)
    twin = make_agent(50, agent_seed(99, 3), net.dna)
    assert twin.public_key == net.agents[3].public_key
    for author in (outsider, twin):
        record = author.append("report", {"text": "let me in"}, 1)
        before = net.metrics.snapshot()
        with pytest.raises(DhtError, match="not a member"):
            net.publish(author, record)
        assert net.metrics.snapshot() == before
        assert not net._holder_counts and not net._pending
        assert holders_of(net, record_key(record)) == []
    # the blueprint is checked first: a forked agent is refused for it
    forked = make_agent(98, agent_seed(2, 98), healthcare_dna(redundancy=5))
    with pytest.raises(CrossNetworkError):
        net.publish(forked, forked.append("report", {"text": "fork"}, 1))


def test_wire_tampering_is_rejected_without_blaming_anyone():
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "clean"}, 10)

    def corrupt(sender, receiver, payload):
        return payload[:-1] + bytes([payload[-1] ^ 0xFF])

    net.wire_hooks.append(corrupt)
    receipts = net.publish(author, record)
    assert receipts == []
    assert net.metrics.stores == 0
    for validator in net.agents:
        if validator is author:
            continue
        # nobody can prove who mangled the bytes, so nobody gets scored
        assert author.public_key not in validator.experience.rows


def test_relay_of_corrupted_record_blames_the_relay_not_the_author():
    net = _network()
    victim, relay = net.agents[0], net.agents[1]
    record = victim.append("report", {"text": "authentic"}, 10)
    mangled = Record(record.header, record.payload + b"!")
    envelope = make_envelope(relay.keys, net.network_id, mangled)
    assert envelope.valid
    validator = next(a for a in net.agents if a not in (victim, relay))
    assert net._deliver_publish(relay, validator, envelope) is None
    assert validator.experience.rows[relay.public_key].confidence == 0.25
    assert victim.public_key not in validator.experience.rows


def test_signed_envelope_that_is_not_a_publish_encoding_is_rejected():
    net = _network()
    sender, validator = net.agents[0], net.agents[1]
    payload = b"not a publish payload"
    envelope = GossipMessage(sender.public_key, payload, sign(sender.keys, b"publish\x00" + payload))
    assert envelope.valid
    assert net._deliver_publish(sender, validator, envelope) is None
    assert net.metrics.rejections == 1
    assert net.metrics.stores == 0


def test_records_for_sibling_networks_are_refused_even_when_registered():
    market = Marketplace()
    dna_a = healthcare_dna()
    dna_b = healthcare_dna(redundancy=5)  # fork: same rules, different identity
    net_a = Network(dna_a, market)
    net_b = Network(dna_b, market)
    for i in range(6):
        net_a.join(make_agent(i, agent_seed(1, i), dna_a))
        net_b.join(make_agent(i, agent_seed(2, i), dna_b))
    stranger = net_b.agents[0]
    record = stranger.append("report", {"text": "wrong door"}, 3)
    assert net_b.publish(stranger, record)  # perfectly valid at home
    envelope = make_envelope(stranger.keys, net_b.network_id, record)
    validator = net_a.agents[1]
    assert net_a._deliver_publish(stranger, validator, envelope) is None
    assert not validator.holds(record_key(record))
    # the shipper is attributable: it provably signed a misdirected push
    assert validator.experience.rows[stranger.public_key].confidence == 0.25


# every path a peer can push to another goes through the same receiver gate
GATED_DELIVERIES = {
    "publish": lambda net, sender, receiver, record, claim: net.publish(sender, record),
    "send_claim": lambda net, sender, receiver, record, claim: net.send_claim(sender, receiver, claim),
    "gossip_from_sender": lambda net, sender, receiver, record, claim: net._exchange(sender, receiver),
    "gossip_from_receiver": lambda net, sender, receiver, record, claim: net._exchange(receiver, sender),
}


@pytest.mark.parametrize("path", sorted(GATED_DELIVERIES))
def test_blacklist_gate_runs_before_rate_accounting(path):
    net = _network()
    sender = net.agents[0]
    record = sender.append("report", {"text": "hi"}, 10)
    key = record_key(record)
    claim = transfer_claim(b"\x42" * 32, sender.public_key, b"\x00" * 32)
    net._accept_claim(sender, claim)
    receiver = next(v for v in net.neighborhood(key) if v is not sender)
    assert receiver in net.backup_targets(key)
    if path != "publish":
        # published while the receiver was away, so gossip offers it
        receiver.online = False
        net.publish(sender, record)
        receiver.online = True
        assert key in net._pending[receiver]
    for _ in range(3):
        update_experience(receiver.experience, sender.public_key, ObservationKind.INVALID_DATA)
    assert is_blacklisted(receiver.experience, sender.public_key)
    rejections, news = net.metrics.rejections, _pool_ids(net, receiver)

    outcome = GATED_DELIVERIES[path](net, sender, receiver, record, claim)

    if path == "publish":
        assert all(r.holder != receiver.public_key for r in outcome)
    assert net.metrics.rejections == rejections + 1
    assert not receiver.holds(key)
    assert _pool_ids(net, receiver) == news
    # dropped before the rate window ever saw the sender
    assert sender.public_key not in receiver.rate_window


# --- fetch ---------------------------------------------------------------

def test_fetch_prefers_local_then_walks_holders():
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "fetch me"}, 10)
    key = record_key(record)
    net.publish(author, record)

    assert net.fetch(author, key) == record  # own chain, no network traffic
    msgs = net.metrics.messages
    assert net.fetch(author, key) == record
    assert net.metrics.messages == msgs

    outsider = next(a for a in net.agents if not a.holds(key))
    assert net.fetch(outsider, key) == record
    assert net.metrics.messages > msgs


def test_fetch_survives_offline_holders_and_misses_cleanly():
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "fetch me"}, 10)
    key = record_key(record)
    net.publish(author, record)
    for holder in net.neighborhood(key):
        holder.online = False
    author.online = True
    outsider = next(a for a in net.agents if not a.holds(key) and a.online)
    assert net.fetch(outsider, key) == record  # author still serves it
    assert net.fetch(outsider, b"\x00" * 32) is None


# --- gossip ------------------------------------------------------------------

# --- each signature verified once per object -----------------------------

def test_one_publish_verifies_two_signatures_for_all_r_validators(verify_calls):
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "once"}, 10)
    key = record_key(record)
    receipts = net.publish(author, record)
    assert len(receipts) == net.redundancy == 4
    # the envelope's and the record header's, whatever r is
    assert len(verify_calls) == 2
    assert (net.metrics.validations, net.metrics.stores) == (4, 4)
    holders = [a for a in net.agents if key in a.shard]
    assert len(holders) == 4
    assert len({id(a.shard[key]) for a in holders}) == 1


def test_gossip_backup_of_a_validated_record_verifies_nothing(verify_calls):
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "backed up"}, 10)
    key = record_key(record)
    net.publish(author, record)
    src = next(a for a in net.agents if key in a.shard)
    dst = next(a for a in net.backup_targets(key) if not a.holds(key))
    verify_calls.clear()
    net._sync_records(src, dst)
    assert dst.shard[key] is src.shard[key]
    assert net.metrics.backup_transfers == 1
    assert net.metrics.validations == 5
    assert verify_calls == []


def test_wire_hook_corrupting_one_validators_copy_fails_that_validator_only(verify_calls):
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "mostly clean"}, 10)
    key = record_key(record)
    target = next(v for v in net.neighborhood(key) if v is not author)

    def corrupt(sender, receiver, payload):
        if receiver is target:
            return payload[:-1] + bytes([payload[-1] ^ 0x01])
        return payload

    net.wire_hooks.append(corrupt)
    receipts = net.publish(author, record)
    assert len(receipts) == net.redundancy - 1
    assert target.public_key not in {r.holder for r in receipts}
    assert not target.holds(key)
    assert all(v.holds(key) for v in net.neighborhood(key) if v is not target)
    assert net.metrics.rejections == 1
    assert author.public_key not in target.experience.rows
    # the shared envelope and its record once each, the tampered envelope once
    assert len(verify_calls) == 3


# --- validators share the author's record ---------------------------------

def test_an_honest_publish_decodes_nothing_and_its_holders_share_the_author_s_record(
    decode_record_calls,
):
    net = _network()
    author = net.agents[0]
    for record in (
        author.append("report", {"text": "shared"}, 10),
        author.append("vitals_pulse", _vitals_fields(author), 11),
    ):
        key = record_key(record)
        assert len(net.publish(author, record)) == net.redundancy
        holders = [a for a in net.agents if key in a.shard]
        assert len(holders) == net.redundancy
        assert all(a.shard[key] is author.chain.lookup(key) for a in holders)
        assert_record_caches_coherent(record)
    assert decode_record_calls == []


def test_the_author_s_own_copy_shipped_to_a_pending_holder_verifies_nothing(verify_calls):
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "from the author"}, 10)
    key = record_key(record)
    net.publish(author, record)
    dst = next(
        a for a in net.backup_targets(key)
        if a is not author and key in net._pending.get(a, ())
    )
    verify_calls.clear()
    net._sync_records(author, dst)
    assert dst.shard[key] is record
    assert net.metrics.backup_transfers == 1
    assert verify_calls == []


@pytest.mark.parametrize("change", ["corrupt", "copy"])
def test_only_a_validator_whose_bytes_a_hook_replaced_decodes_its_own_record(
    change, decode_record_calls
):
    """A corrupted payload fails the envelope signature before any decode
    and is rejected without scoring the author; an equal copy of the bytes
    is decoded afresh and stored. Either way the other validators hold the
    author's object."""
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "mostly shared"}, 10)
    key = record_key(record)
    target = next(v for v in net.neighborhood(key) if v is not author)

    def replace(sender, receiver, payload):
        if receiver is not target:
            return payload
        if change == "corrupt":
            return payload[:-1] + bytes([payload[-1] ^ 0x01])
        return bytes(bytearray(payload))

    net.wire_hooks.append(replace)
    net.publish(author, record)
    assert all(v.shard[key] is record for v in net.neighborhood(key) if v is not target)
    if change == "corrupt":
        assert author.public_key not in target.experience.rows
        assert decode_record_calls == []
        assert not target.holds(key)
        assert net.metrics.rejections == 1
    else:
        assert len(decode_record_calls) == 1
        copy = target.shard[key]
        assert copy == record and copy is not record
        assert_record_caches_coherent(copy)
        assert net.metrics.rejections == 0


@pytest.mark.parametrize("field, size", [("author", 31), ("signature", 63)])
def test_a_header_size_the_decoder_refuses_still_fails_the_decode(field, size):
    """The encoder writes an author or signature of any length, and the
    strict decode refuses all but 32 and 64 bytes. Such a record reaches no
    validator's rules: each rejects it as an encoding, with no claim."""
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "odd sizes"}, 10)
    header = record.header
    odd = Record(
        dataclasses.replace(header, **{field: getattr(header, field)[:size]}), record.payload
    )
    author.chain.replace_at(header.seq, odd)
    assert net.publish(author, odd) == []
    assert net.metrics.snapshot() == {
        **Metrics().snapshot(),
        "messages": net.redundancy,
        "rejections": net.redundancy,
    }
    for agent in net.agents:
        assert net.claims_of(agent, CLAIM_MISBEHAVIOR) == []
        assert author.public_key not in agent.experience.rows
    assert holders_of(net, record_key(odd)) == [author]


def oracle_gossip_contacts(net, rng):
    """The contact list built by filtering the online list per agent."""
    online = [a for a in net.agents if a.online]
    contacts = []
    for agent in net.agents:
        if not agent.online:
            continue
        peers = [p for p in online if p is not agent]
        if not peers:
            continue
        for peer in rng.sample(peers, min(net.fanout, len(peers))):
            contacts.append((agent, peer))
    return contacts


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_gossip_peer_choice_matches_the_filtering_oracle(n, monkeypatch):
    contacts = []
    monkeypatch.setattr(Network, "_exchange", lambda net, a, b: contacts.append((a, b)))
    for fanout in (1, 2, 3, 70):
        net = _network(n=n, seed=n, fanout=fanout)
        flips = random.Random(n * 100 + fanout)
        rng, oracle_rng = random.Random(fanout), random.Random(fanout)
        for _ in range(12):
            for agent in net.agents:
                if flips.random() < 0.3:
                    agent.online = not agent.online
            contacts.clear()
            assert net.gossip_round(rng) == len(contacts)
            assert contacts == oracle_gossip_contacts(net, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()


def test_draw_takes_the_draws_of_sampling_a_range():
    # n crosses sample's pool/set cutoff at 21 and its growth for k > 5:
    # to 85 for k of 6 to 21, to 277 for k of 22 to 85
    for n in range(301):
        for k in [*range(min(n, 9) + 1), *(k for k in (22, 70) if k <= n)]:
            rng, oracle = random.Random(n * 100 + k), random.Random(n * 100 + k)
            assert dht_module._draw(rng, n, k) == oracle.sample(range(n), k), (n, k)
            assert rng.getstate() == oracle.getstate(), (n, k)


def published_by(net, agent):
    """The keys agent published and still holds on its chain, read off the
    network's published index: one member per key, so only the author's
    chain holds a record it published."""
    return {key for key in net._holder_counts if key in agent.chain.keys}


def oracle_targets(net, key, record):
    """Who should hold record, online or not: the r members nearest its key
    for a restricted type, the backup_width nearest for any other."""
    if net.is_restricted(record.header.entry_type):
        return oracle_neighborhood(net, key)
    return oracle_backup_targets(net, key)


def oracle_sync_records(net, src, dst):
    """The per-contact loop the plan replaces: every key src holds or has
    published, lowest first, re-deriving dst's membership of the key's
    holder set each time."""
    for key in sorted(set(src.shard) | published_by(net, src)):
        if dst.holds(key):
            continue
        record = src.lookup(key)
        if record is None:
            continue
        if dst not in oracle_targets(net, key, record):
            continue
        if net._store_if_valid(dst, record, key, src.public_key):
            net.metrics.backup_transfers += 1


def _fork(net):
    """A deep copy of net that shares its records, key pairs and blueprint,
    so the shards of two forks compare by record identity."""
    memo = {id(net.dna): net.dna}
    for agent in net.agents:
        memo[id(agent.keys)] = agent.keys
        for record in agent.chain.records:
            memo[id(record)] = record
        for record in agent.shard.values():
            memo[id(record)] = record
    return copy.deepcopy(net, memo)


def _gossip_state(net):
    return (
        [[(key, id(record)) for key, record in a.shard.items()] for a in net.agents],
        [_pool_ids(net, a) for a in net.agents],
        [a.experience for a in net.agents],
        [a.rate_window for a in net.agents],
        net.transfer_index,
        net.metrics.snapshot(),
    )


def oracle_want_lists(net):
    """What gossip may ship to each online agent, re-derived from every
    online agent's holdings: each key some online agent holds in its shard,
    or has published and can still look up, goes to the online agents of
    its holder set that do not hold it."""
    online = [a for a in net.agents if a.online]
    records = {}
    for agent in online:
        for key in itertools.chain(agent.shard, published_by(net, agent)):
            if key not in records:
                record = agent.lookup(key)
                if record is not None:
                    records[key] = record
    wants = {a: set() for a in online}
    for key, record in records.items():
        for agent in oracle_targets(net, key, record):
            if agent.online and not agent.holds(key):
                wants[agent].add(key)
    return wants


def _assert_plan_matches_the_oracle(net):
    """The pending sets of online agents equal the oracle's want-lists on
    every key that can move. A pending set may also name keys the agent
    holds (on its chain: its pending set follows its shard) and keys no
    online agent can offer (held offline, or published and since
    rewritten). Those are inert: _sync_records offers only keys its sender
    holds, and only to a receiver that does not hold them, so neither kind
    ships a record, counts or draws anything."""
    online = [a for a in net.agents if a.online]
    offerable = {
        key
        for agent in online
        for key in itertools.chain(agent.shard, published_by(net, agent))
        if agent.lookup(key) is not None
    }
    live = {
        a: {k for k in net._pending.get(a, ()) if k in offerable and not a.holds(k)}
        for a in online
    }
    assert live == oracle_want_lists(net)


def _gossip_matches_the_oracle(net, rng):
    """One gossip round of net, and of a fork of it that ships by the
    per-contact oracle from the same rng state: the same contacts, state
    and draws. The plan matches the oracle's before and after the round."""
    _assert_plan_matches_the_oracle(net)
    oracle = _fork(net)
    oracle._sync_records = types.MethodType(oracle_sync_records, oracle)
    oracle_rng = random.Random()
    oracle_rng.setstate(rng.getstate())
    contacts = net.gossip_round(rng)
    assert oracle.gossip_round(oracle_rng) == contacts
    assert _gossip_state(oracle) == _gossip_state(net)
    assert oracle_rng.getstate() == rng.getstate()
    _assert_plan_matches_the_oracle(net)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_want_list_gossip_matches_the_per_contact_oracle(n):
    net = _network(n=n, seed=n)
    rng, flips = random.Random(n), random.Random(n + 1000)
    authors = net.agents[:6]
    for tick in range(12):
        net.begin_tick(tick)
        for agent in net.agents:
            if flips.random() < 0.3:
                agent.online = not agent.online
        if tick < 6:
            author = authors[tick % len(authors)]
            net.publish(author, author.append("report", {"text": f"note {tick}"}, tick))
            net.publish(author, author.append("vitals_pulse", _vitals_fields(author, 60 + tick), tick))
        if tick == 0:
            # every validator keeps a corrupted copy of the first report, so
            # their offers fail validation and only its author ships it intact
            report = authors[0].chain.records[-2]
            key = record_key(report)
            tampered = Record(report.header, report.payload[:-1] + b"\x00")
            for holder in holders_of(net, key):
                if key in holder.shard:
                    holder.shard[key] = tampered
        _gossip_matches_the_oracle(net, rng)
    if n >= 17:
        assert net.metrics.backup_transfers > 0
        # the corrupted copies were offered and refused
        assert net.metrics.rejections > 0


def _restricted_records(net):
    """One restricted record on each member's chain, by member."""
    return {a: a.append("vitals_pulse", _vitals_fields(a), 1) for a in net.agents}


def test_a_restricted_record_its_author_rewrote_is_shipped_back_to_the_author():
    """The author sits in its record's neighborhood but is offline at the
    publish, so its shard lacks the key; it holds the key on its chain
    until it rewrites the record. The per-contact oracle then ships the
    original back into the author's shard, so a pending set must follow
    the shard, not holds()."""
    net = _network(n=8, seed=5)
    rng = random.Random(5)
    author, record = next(
        (a, r) for a, r in _restricted_records(net).items()
        if a in net.neighborhood(record_key(r))
    )
    key = record_key(record)
    author.online = False
    net.publish(author, record)
    author.online = True
    assert author.holds(key) and key not in author.shard
    _gossip_matches_the_oracle(net, rng)
    assert net.metrics.backup_transfers == 0
    author.chain.replace_at(record.header.seq, Record(record.header, record.payload + b" "))
    assert not author.holds(key)
    for _ in range(6):
        _gossip_matches_the_oracle(net, rng)
    assert author.shard[key].payload == record.payload
    assert net.metrics.backup_transfers == 1


def test_a_restricted_publish_plans_its_offline_holder_before_any_round():
    """The plan is made where holdings change: right after the publish, the
    one neighborhood member that was offline has the key pending, and the
    members that stored it do not."""
    net = _network(n=8, seed=7)
    author = net.agents[0]
    record = author.append("vitals_pulse", _vitals_fields(author), 1)
    key = record_key(record)
    missing = next(a for a in net.neighborhood(key) if a is not author)
    missing.online = False
    net.publish(author, record)
    assert [a for a in net.neighborhood(key) if key in net._pending.get(a, ())] == [missing]


def test_a_stored_key_leaves_its_pending_set_whatever_stored_it():
    """A key stays pending at a member only while the member's shard lacks
    it. Here the member offline at a publish stores the key from a
    re-publish once it is back, not from gossip, and gossip rounds follow."""
    net = _network(n=8, seed=7)
    rng = random.Random(3)
    author = net.agents[0]
    records = [author.append("vitals_pulse", _vitals_fields(author, 60 + t), t) for t in range(4)]
    key = record_key(records[0])
    missing = next(a for a in net.neighborhood(key) if a is not author)
    missing.online = False
    for record in records:
        net.publish(author, record)
    assert key in net._pending[missing]
    missing.online = True
    net.publish(author, records[0])
    assert key in missing.shard
    for _ in range(4):
        net.gossip_round(rng)
    assert net._pending
    for member, keys in net._pending.items():
        assert not keys & member.shard.keys(), member.index


def test_a_member_that_joins_a_restricted_keys_neighborhood_receives_it_by_gossip():
    """The joiner takes the place of the key's farthest holder, which was
    offline at the publish and so still lacked the key: the joiner must
    receive it, and the member it pushed out must not."""
    net = _network(n=8, seed=6)
    rng = random.Random(6)
    author, record = next(
        (a, r) for a, r in _restricted_records(net).items()
        if a not in net.neighborhood(record_key(r))
    )
    key = record_key(record)
    k = int.from_bytes(key, "big")
    pushed = max(net.neighborhood(key), key=lambda a: a.node_id ^ k)
    pushed.online = False
    net.publish(author, record)
    _gossip_matches_the_oracle(net, rng)
    late = next(
        agent
        for agent in (make_agent(100 + i, agent_seed(6, 100 + i), net.dna) for i in range(64))
        if agent.node_id ^ k < pushed.node_id ^ k
    )
    net.join(late)
    pushed.online = True
    assert late in net.neighborhood(key) and pushed not in net.neighborhood(key)
    for _ in range(6):
        _gossip_matches_the_oracle(net, rng)
    assert late.shard[key].payload == record.payload
    assert not pushed.holds(key)
    assert net.metrics.backup_transfers == 1


def _report_with_its_author_outside_its_targets(net, author, text):
    """A report of author's and its key, with author outside the key's
    backup targets."""
    for clock in itertools.count(1):
        record = author.append("report", {"text": f"{text} {clock}"}, clock)
        if author not in net.backup_targets(record_key(record)):
            return record, record_key(record)


def test_a_report_s_offline_backup_target_receives_it_once_back_online():
    """Presence does not move a report's holder set: a backup target away
    at the publish keeps the key pending while it is away, the next member
    out never gets it, and gossip serves the target once it is back."""
    net = _network(n=12, seed=8)
    rng = random.Random(8)
    author = net.agents[0]
    record, key = _report_with_its_author_outside_its_targets(net, author, "while you were out")
    targets = net.backup_targets(key)
    away = targets[-1]
    outsider = next(a for a in _xor_sorted(net.agents, key)[len(targets):] if a is not author)
    away.online = False
    net.publish(author, record)
    for tick in range(6):
        net.begin_tick(tick)
        _gossip_matches_the_oracle(net, rng)
    assert set(holders_of(net, key)) == set(targets) - {away} | {author}
    assert key in net._pending[away]
    away.online = True
    for tick in range(6, 12):
        net.begin_tick(tick)
        _gossip_matches_the_oracle(net, rng)
    assert away.shard[key].payload == record.payload
    assert not net._pending[away] and not outsider.holds(key)
    assert net.metrics.backup_transfers == len(targets) - net.redundancy


def test_a_member_that_joins_a_report_s_backup_targets_receives_it_by_gossip():
    """The joiner takes the place of the report's farthest backup target,
    which was offline at the publish and so still lacked the key: the
    joiner must receive it, and the member it pushed out must not."""
    net = _network(n=12, seed=6)
    rng = random.Random(6)
    record, key = _report_with_its_author_outside_its_targets(net, net.agents[0], "join in")
    k = int.from_bytes(key, "big")
    pushed = net.backup_targets(key)[-1]
    pushed.online = False
    net.publish(net.agents[0], record)
    for _ in range(6):
        _gossip_matches_the_oracle(net, rng)
    late = next(
        agent
        for agent in (make_agent(100 + i, agent_seed(6, 100 + i), net.dna) for i in range(64))
        if agent.node_id ^ k < pushed.node_id ^ k
    )
    net.join(late)
    pushed.online = True
    assert late in net.backup_targets(key) and pushed not in net.backup_targets(key)
    assert key in net._pending[late] and pushed not in net._pending
    for _ in range(8):
        _gossip_matches_the_oracle(net, rng)
    assert late.shard[key].payload == record.payload
    assert not pushed.holds(key)


def test_reports_never_leave_their_backup_targets_under_churn():
    """Under churn of every member, holders and all, a report is copied
    only to its static backup targets, never to whoever is online."""
    net = _network(n=16, seed=4)
    author = net.agents[0]
    rng = random.Random(4)
    keys = []
    for i in range(4):
        record = author.append("report", {"text": f"churned {i}"}, i + 1)
        net.publish(author, record)
        keys.append(record_key(record))
    for tick in range(16):
        net.begin_tick(tick)
        for agent in net.agents:
            agent.online = rng.random() > 0.4
        net.gossip_round(rng)
    for key in keys:
        targets = set(net.backup_targets(key))
        assert set(holders_of(net, key)) <= targets | {author}
    assert net.metrics.backup_transfers > 0


@st.composite
def plan_steps(draw):
    """Random interleavings of the events a re-replication plan must
    follow: publishes (restricted or not, some by an offline author),
    presence flips, late joins, and rewrites and truncations of published
    records, each followed by a gossip round or not. Networks are small,
    so an author often sits in its own record's neighborhood and a joiner
    often lands in one."""
    n = draw(st.integers(2, 6))
    agents = st.integers(0, 15)  # modulo the members, late joiners included
    published = st.integers(0, 7)  # back from the newest publish
    event = st.one_of(
        st.tuples(st.just("publish"), agents, st.booleans(), st.booleans()),
        st.tuples(st.just("flip"), agents),
        st.tuples(st.just("join"), st.integers(0, 3)),
        st.tuples(st.just("replace"), published),
        st.tuples(st.just("truncate"), published),
    )
    steps = st.lists(st.tuples(event, st.booleans()), min_size=4, max_size=30)
    return n, draw(st.integers(1, 3)), draw(steps)


@settings(max_examples=150, deadline=None)
@given(plan_steps())
def test_plans_follow_publishes_presence_joins_and_rewrites_as_the_oracle_does(case):
    n, redundancy, steps = case
    dna = healthcare_dna(redundancy=redundancy)
    net = Network(dna, Marketplace())
    for i in range(n):
        net.join(make_agent(i, agent_seed(n, i), dna))
    # (author, record) of each publish, which rewrites and truncations pick
    # from, counting back from the newest
    published = []
    for clock, (step, gossip) in enumerate(steps, start=1):
        kind = step[0]
        if kind == "join":
            net.join(make_agent(len(net.agents), agent_seed(1000 + step[1], len(net.agents)), dna))
        elif kind in ("replace", "truncate") and published:
            author, record = published[-1 - step[1] % len(published)]
            seq = author.chain.keys.get(record_key(record))  # None once rewritten
            if seq is not None and kind == "replace":
                author.chain.replace_at(seq, Record(record.header, record.payload + b" "))
            elif seq is not None:
                author.chain.truncate(seq)
        elif kind == "flip":
            agent = net.agents[step[1] % len(net.agents)]
            agent.online = not agent.online
        elif kind == "publish":
            agent = net.agents[step[1] % len(net.agents)]
            restricted, offline = step[2], step[3]
            if restricted:
                record = agent.append("vitals_pulse", _vitals_fields(agent, 40 + clock), clock)
            else:
                record = agent.append("report", {"text": f"step {clock}"}, clock)
            was = agent.online
            agent.online = was and not offline
            net.publish(agent, record)
            agent.online = was
            published.append((agent, record))
        if gossip or clock == len(steps):
            net.begin_tick(clock)
            _gossip_matches_the_oracle(net, random.Random(clock))


@st.composite
def churn_scenarios(draw):
    """Small healthcare scenarios under churn: shared and restricted
    vitals, reports, grants, revokes, accesses and presence changes. Each
    grant is revoked at most once, and accesses to it stop once a published
    revocation has had time to spread, as the access audit expects of
    holders."""
    n = draw(st.integers(2, 9))
    ticks = draw(st.integers(3, 12))
    slack = math.ceil(math.log2(max(2, n))) + 2
    agents = st.integers(0, n - 1)
    script = []
    grants = []
    for tick in range(ticks):
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["vitals", "report", "grant", "revoke", "access", "presence"]))
            op = {"tick": tick, "op": kind}
            if kind == "vitals":
                op.update(patient=draw(agents), share=draw(st.booleans()))
            elif kind == "report":
                op.update(agent=draw(agents), share=draw(st.booleans()))
            elif kind == "grant":
                op.update(
                    patient=draw(agents), grantee=draw(agents), save_as=f"g{len(grants)}",
                    entry_type=draw(st.sampled_from(["vitals_*", "vitals_pulse", "report"])),
                    publish=draw(st.booleans()),
                )
                if draw(st.booleans()):
                    op["expires_at"] = tick + draw(st.integers(0, 6))
                grants.append({"op": op, "revoked": False, "last_access": ticks})
            elif kind == "presence":
                op.update(agent=draw(agents), online=draw(st.booleans()))
            else:
                live = [
                    g for g in grants
                    if (not g["revoked"] if kind == "revoke" else tick <= g["last_access"])
                ]
                if not live:
                    continue
                grant = draw(st.sampled_from(live))
                op.update(patient=grant["op"]["patient"], token="$" + grant["op"]["save_as"])
                if kind == "revoke":
                    op["publish"] = draw(st.booleans())
                    grant["revoked"] = True
                    if op["publish"]:
                        grant["last_access"] = tick + slack
                else:
                    op["requester"] = draw(st.one_of(st.just(grant["op"]["grantee"]), agents))
            script.append(op)
    # the access audit reads a tick as one instant, so a revocation covers
    # every access of its tick: grants first, then revocations, then the rest
    script.sort(key=lambda op: (op["tick"], {"grant": 0, "revoke": 1}.get(op["op"], 2)))
    return {
        "name": "generated-churn",
        "seed": draw(st.integers(0, 2**20)),
        "n_agents": n,
        "ticks": ticks,
        "redundancy": draw(st.integers(1, min(4, n))),
        "fanout": draw(st.integers(1, 3)),
        "backup_factor": draw(st.sampled_from([1.0, 1.5, 2.0])),
        "churn": draw(st.sampled_from([0.0, 0.2, 0.4])),
        "holder_serve": draw(st.booleans()),
        "script": script,
    }


@given(churn_scenarios())
@settings(max_examples=25, deadline=None)
def test_generated_churn_scenarios_match_the_per_contact_oracle(doc):
    planned = Network.gossip_round
    invariants = Simulation._check_invariants
    checked_ticks = []

    def checked(net, rng):
        _assert_plan_matches_the_oracle(net)
        return planned(net, rng)

    def coherent(self, tick):
        invariants(self, tick)
        assert_network_coherent(self.network)
        checked_ticks.append(tick)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "gossip_round", checked)
        patch.setattr(Simulation, "_check_invariants", coherent)
        production = run_scenario(config_from_dict(doc))
    assert checked_ticks == list(range(doc["ticks"]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "_sync_records", oracle_sync_records)
        oracle = run_scenario(config_from_dict(doc))
    assert production.metrics_log.to_csv() == oracle.metrics_log.to_csv()
    assert export_all_chains(production) == export_all_chains(oracle)
    assert production.access_log == oracle.access_log
    for result in (production, oracle):
        assert audit_access_log(result) == []
        # grant-exists resolves through online peers only, so a revocation
        # of an unpublished grant reads invalid while its patient is
        # offline; stored bytes are judged with every chain reachable
        for agent in result.network.agents:
            agent.online = True
        result.network.assert_shards_validated()


def _converge(net, rng, rounds):
    for _ in range(rounds):
        net.gossip_round(rng)


def test_claims_reach_everyone_within_log_bound():
    bound = math.ceil(math.log2(12)) + 2
    for seed in range(10):
        net = _network(n=12, seed=seed)
        claim = transfer_claim(bytes([seed]) * 32, net.agents[0].public_key, b"\x00" * 32)
        net._accept_claim(net.agents[0], claim)
        _converge(net, random.Random(seed), bound)
        assert all(net.has_claim(a, claim.claim_id) for a in net.agents)


def test_records_replicate_to_all_backup_targets():
    net = _network(n=12)
    author = net.agents[0]
    record = author.append("report", {"text": "replicate"}, 10)
    key = record_key(record)
    net.publish(author, record)
    _converge(net, random.Random(7), math.ceil(math.log2(12)) + 2)
    holders = {a.index for a in holders_of(net, key)}
    targets = {a.index for a in net.backup_targets(key)}
    assert targets <= holders
    # and nobody outside the target set hoards a copy
    assert holders <= targets | {author.index}
    assert net.metrics.backup_transfers > 0
    net.assert_shards_validated()


def test_restricted_records_never_leave_static_neighborhood():
    net = _network(n=16)
    author = net.agents[0]
    record = author.append("vitals_pulse", _vitals_fields(author), 10)
    key = record_key(record)
    net.publish(author, record)
    static = {a.index for a in net.neighborhood(key)}
    rng = random.Random(3)
    for tick in range(12):
        net.begin_tick(tick)
        # plenty of churn outside the pinned set
        for agent in net.agents:
            if agent.index not in static and agent is not author:
                agent.online = rng.random() > 0.4
        net.gossip_round(rng)
        assert {a.index for a in holders_of(net, key)} <= static | {author.index}


def test_gossip_reaches_fixpoint_without_churn():
    net = _network(n=12)
    author = net.agents[0]
    record = author.append("report", {"text": "settle"}, 10)
    net.publish(author, record)
    net._accept_claim(author, transfer_claim(b"\x01" * 32, author.public_key, b"\x00" * 32))
    rng = random.Random(11)
    _converge(net, rng, 8)
    stores, claims = net.metrics.stores, net.metrics.news_claims
    _converge(net, rng, 4)
    assert (net.metrics.stores, net.metrics.news_claims) == (stores, claims)


# --- claim pools against a dict-pool model -----------------------------------

class DictPoolNetwork(Network):
    """The model of the claim layer: a plain dict pool per agent, filled one
    claim at a time. It keeps no claim table and never touches news_bits;
    everything else (contacts, refusals, rate windows) is the production
    code, so the two networks differ in how pools are held only."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.pools = {}

    def _accept_claim(self, receiver, claim):
        pool = self.pools.setdefault(receiver.index, {})
        cid = claim.claim_id
        if cid in pool:
            return
        pool[cid] = claim
        self.metrics.news_claims += 1
        if claim.kind == CLAIM_TRANSFER:
            self.transfer_index.setdefault((claim.agent, claim.extra), {})[cid] = claim.subject
        if claim.kind != CLAIM_MISBEHAVIOR or claim.agent == receiver.public_key:
            return
        was = is_blacklisted(receiver.experience, claim.agent)
        update_experience(receiver.experience, claim.agent, ObservationKind(claim.detail))
        if not was and is_blacklisted(receiver.experience, claim.agent):
            self.metrics.blacklist_events += 1

    def _sync_claims(self, src, dst):
        pool = self.pools.get(src.index, {})
        for cid in sorted(pool):
            self._accept_claim(dst, pool[cid])

    def clear_news(self):
        self.pools.clear()
        self.transfer_index.clear()


def _pool_networks(n, rate_limit):
    dna = healthcare_dna()
    nets = (Network(dna, Marketplace(), rate_limit=rate_limit),
            DictPoolNetwork(dna, Marketplace(), rate_limit=rate_limit))
    for net in nets:
        for i in range(n):
            net.join(make_agent(i, agent_seed(n, i), dna))
    return nets


@st.composite
def claim_ops(draw):
    """Random interleavings of direct acceptance, sent claims, gossip
    rounds, presence flips, tick starts and pool resets over a few agents.
    Subjects come from small ranges, so claims repeat. Agents 0 to 2 are
    repeat offenders that cross the blacklist threshold, and reports reach
    them too, so an offender receives its own. A low rate limit turns
    bursts into flood reports as well."""
    n = draw(st.integers(3, 5))
    agents = st.integers(0, n - 1)
    reports = st.tuples(
        st.just("misbehavior"), st.integers(0, 5), st.integers(0, 2),
        st.sampled_from([ObservationKind.INVALID_DATA, ObservationKind.DOUBLE_SPEND]),
    )
    claims = st.one_of(
        st.tuples(st.just("transfer"), st.integers(0, 5), agents, st.integers(0, 1)),
        reports,
        st.tuples(st.just("revoke"), st.integers(0, 3), agents, st.integers(0, 1)),
    )
    ops = st.one_of(
        st.tuples(st.just("accept"), agents, claims),
        st.tuples(st.just("accept"), agents, reports),
        st.tuples(st.just("send"), agents, agents, claims),
        st.tuples(st.just("gossip"), st.integers(0, 2**16)),
        st.tuples(st.just("flip"), agents),
        st.tuples(st.just("tick")),
        st.tuples(st.just("clear")),
    )
    return n, draw(st.integers(1, 4)), draw(st.lists(ops, min_size=10, max_size=50))


def _make_claim(net, spec):
    """A claim naming agent: a transfer's prior state, an offense or a
    revoked token is the spec's last field."""
    kind, subject, agent, last = spec
    key = net.agents[agent].public_key
    if kind == "transfer":
        return transfer_claim(bytes([subject]) * 32, key, bytes([last]) * 32)
    if kind == "misbehavior":
        return misbehavior_claim(key, last, bytes([subject]) * 32)
    return revoke_claim(bytes([subject]) * 32, key, bytes([last]) * 32)


def _claim_state(net, pools):
    return (
        pools,
        [list(a.experience.rows.items()) for a in net.agents],
        [a.rate_window for a in net.agents],
        net.transfer_index,
        net.metrics.snapshot(),
    )


@settings(max_examples=80, deadline=None)
@given(claim_ops())
def test_bitset_pools_match_a_dict_pool_model(case):
    n, rate_limit, ops = case
    production, model = _pool_networks(n, rate_limit)
    tick = 0
    seen = set()
    for op in ops:
        for net in (production, model):
            if op[0] == "accept":
                claim = _make_claim(net, op[2])
                net._accept_claim(net.agents[op[1]], claim)
            elif op[0] == "send":
                claim = _make_claim(net, op[3])
                net.send_claim(net.agents[op[1]], net.agents[op[2]], claim)
            elif op[0] == "gossip":
                net.gossip_round(random.Random(op[1]))
            elif op[0] == "flip":
                net.agents[op[1]].online = not net.agents[op[1]].online
            elif op[0] == "tick":
                net.begin_tick(tick + 1)
            else:
                net.clear_news()
        tick += op[0] == "tick"
        if op[0] in ("accept", "send"):
            seen.add(claim.claim_id)
        # each kind's claims lowest id first, as claims_of promises
        model_pools = [
            [sorted(cid for cid, c in model.pools.get(a.index, {}).items() if c.kind == kind)
             for kind in CLAIM_KINDS]
            for a in model.agents
        ]
        assert _claim_state(production, [
            [[c.claim_id for c in production.claims_of(a, kind)] for kind in CLAIM_KINDS]
            for a in production.agents
        ]) == _claim_state(model, model_pools)
        assert [[production.has_claim(a, cid) for cid in sorted(seen)] for a in production.agents] == [
            [cid in model.pools.get(a.index, {}) for cid in sorted(seen)] for a in model.agents
        ]
        assert all(a.news_bits == 0 for a in model.agents)


# the attributes that hold news pools and the claim table behind them, and
# the only functions that may write them
_CLAIM_STATE = {"news_bits", "_claims", "_claim_bit", "_kind_bits"}
_CLAIM_WRITERS = {
    "Network.__init__", "Network._accept_claim", "Network._sync_claims", "Network.clear_news",
}
_MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
    "update", "setdefault", "popitem", "add", "discard",
}
# the methods that also count as a write when called on an element of state
# (state[k].discard(x)): the set methods, which no Agent method shares
_ELEMENT_MUTATORS = {"add", "discard"}


# the members list and the position index behind the peer pools, and the
# only functions that may write them
_MEMBER_STATE = {"agents", "_positions"}
_MEMBER_WRITERS = {"Network.__init__", "Network.join"}


# the re-replication plan: the published keys with their holder counts,
# and the pending sets; and the only functions that may write them
_PLAN_STATE = {"_holder_counts", "_pending"}
_PLAN_WRITERS = {
    "Network.__init__", "Network.join", "Network.publish", "Network._plan",
    "Network._store_if_valid",
}


def _claim_state_writes(tree, state=_CLAIM_STATE) -> list[tuple[int, str]]:
    """(line, enclosing Class.function) of each assignment, deletion or
    mutating call through an attribute in state."""

    def is_state(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in state

    def flat(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from flat(elt)
        elif isinstance(target, ast.Starred):
            yield from flat(target.value)
        else:
            yield target

    writes = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in (t for each in targets for t in flat(each)):
            if is_state(target) or isinstance(target, ast.Subscript) and is_state(target.value):
                writes.append((node.lineno, ".".join(scope)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if isinstance(receiver, ast.Subscript) and node.func.attr in _ELEMENT_MUTATORS:
                receiver = receiver.value
            if node.func.attr in _MUTATING_METHODS and is_state(receiver):
                writes.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sorted(writes)


def _writers_and_offenders(state, allowed) -> tuple[set[str], list[str]]:
    """The allowed dht.py functions that write state, and every other write
    of it in the package, the tests and the tools."""
    root = Path(__file__).parent.parent
    sources = [
        path
        for folder in ("src/agentchain", "tests", "tools")
        for path in sorted((root / folder).glob("*.py"))
    ]
    writers = set()
    offenders = []
    for path in sources:
        for line, scope in _claim_state_writes(ast.parse(path.read_text(), str(path)), state):
            if path.name == "dht.py" and scope in allowed:
                writers.add(scope)
            else:
                offenders.append(f"{path.relative_to(root)}:{line} {scope}")
    return writers, offenders


def test_only_join_writes_the_members_and_their_positions():
    assert _writers_and_offenders(_MEMBER_STATE, _MEMBER_WRITERS) == (_MEMBER_WRITERS, [])
    probe = ast.parse(
        "n.agents.append(a)\nn._positions[k] = 0\nn.agents[0] = a\n"
        "x = n._positions.get(k)\nclass Network:\n    def join(self, a):\n"
        "        self.agents += [a]\n"
    )
    assert _claim_state_writes(probe, _MEMBER_STATE) == [
        (1, ""), (2, ""), (3, ""), (7, "Network.join"),
    ]


def test_only_the_planners_write_the_re_replication_plan():
    assert _writers_and_offenders(_PLAN_STATE, _PLAN_WRITERS) == (_PLAN_WRITERS, [])
    probe = ast.parse(
        "n._pending[a].discard(k)\nn._pending.setdefault(a, set()).add(k)\n"
        "n._holder_counts |= {k: 4}\nn._holder_counts[k] = 8\nx = n._pending.get(a)\n"
        "y = n._holder_counts[k]\nclass Network:\n    def join(self, a):\n"
        "        self._pending.clear()\n"
    )
    assert _claim_state_writes(probe, _PLAN_STATE) == [
        (1, ""), (2, ""), (3, ""), (4, ""), (9, "Network.join"),
    ]


def test_only_the_claim_writers_touch_news_pools_and_the_claim_table():
    assert _writers_and_offenders(_CLAIM_STATE, _CLAIM_WRITERS) == (_CLAIM_WRITERS, [])
    # the detector itself sees every kind of write, and where it sits
    probe = ast.parse(
        "a.news_bits = 0\na.news_bits |= 1\nn._claims.append(c)\nn._claim_bit[k] = 1\n"
        "del n._kind_bits[k]\nn._kind_bits.clear()\nx, (y, a.news_bits) = 1, (2, 3)\n"
        "b = a.news_bits & 1\nclass N:\n    def f(self):\n        self._claims: list = []\n"
    )
    assert _claim_state_writes(probe) == [
        (1, ""), (2, ""), (3, ""), (4, ""), (5, ""), (6, ""), (7, ""), (11, "N.f"),
    ]


# --- rate limiting -------------------------------------------------------

def test_rate_limit_rejects_flood_and_penalizes_once_per_tick():
    net = _network(rate_limit=5)
    sender, receiver = net.agents[0], net.agents[1]
    net.begin_tick(0)
    results = [
        net.send_claim(sender, receiver, transfer_claim(bytes([i]) * 32, sender.public_key, b"\x00" * 32))
        for i in range(8)
    ]
    assert results == [True] * 5 + [False] * 3
    # one flood event, one penalty, regardless of how many exceeded calls
    assert receiver.experience.rows[sender.public_key].confidence == 0.25
    assert net.metrics.rejections == 3
    net.begin_tick(1)  # window resets
    ok = net.send_claim(sender, receiver, transfer_claim(b"\x63" * 32, sender.public_key, b"\x00" * 32))
    assert ok


def test_sustained_flooding_escalates_to_blacklist():
    net = _network(rate_limit=3)
    sender, receiver = net.agents[0], net.agents[1]
    for tick in range(3):
        net.begin_tick(tick)
        for i in range(5):
            net.send_claim(
                sender, receiver,
                transfer_claim(bytes([tick * 16 + i]) * 32, sender.public_key, b"\x00" * 32),
            )
    assert is_blacklisted(receiver.experience, sender.public_key)
    net.begin_tick(9)
    claim = transfer_claim(b"\x77" * 32, sender.public_key, b"\x00" * 32)
    assert not net.send_claim(sender, receiver, claim)
    assert not net.has_claim(receiver, claim.claim_id)
