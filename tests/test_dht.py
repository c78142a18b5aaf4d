"""Shared storage layer: neighborhoods, publish/fetch, gossip, defenses.

The neighborhood oracle recomputes XOR ranking from scratch with hashlib so
the production ranking is checked against an independent implementation.
The ``oracle_*`` functions are brute-force references that re-sort the
whole network on every call; the memoized lookups must return the same
lists in the same order.
"""

import copy
import hashlib
import math
import os
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain.chain import Record, record_key
from agentchain.dht import (
    CrossNetworkError,
    DhtError,
    Network,
    agent_seed,
    make_agent,
    make_envelope,
    transfer_claim,
)
from agentchain.healthcare import healthcare_dna
from agentchain.reputation import ObservationKind, is_blacklisted, update_experience
from agentchain.sim import (
    audit_access_log,
    config_from_dict,
    export_all_chains,
    load_scenario,
    run_scenario,
)
from agentchain.validation import Marketplace


def _network(n=12, seed=99, **kw):
    dna = healthcare_dna()
    net = Network(dna, Marketplace(), **kw)
    for i in range(n):
        net.join(make_agent(i, agent_seed(seed, i), dna))
    return net


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


def oracle_backup_targets(net, key, record):
    if net.is_restricted(record.header.entry_type):
        return net.neighborhood(key)
    online = _xor_sorted([a for a in net.agents if a.online], key)
    want = min(len(online), math.ceil(net.redundancy * net.backup_factor))
    return online[:want]


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
    for key in keys:
        for r in (None, 0, 1, 4, 9, 70):
            assert net.neighborhood(key, r) == oracle_neighborhood(net, key, r)
    for record in records:
        key = record_key(record)
        assert net.backup_targets(key, record) == oracle_backup_targets(net, key, record)
    for key in keys + [record_key(r) for r in records]:
        requester = rng.choice(net.agents)
        before = net.metrics.messages
        found = net.fetch(requester, key)
        used = net.metrics.messages - before
        assert oracle_fetch(net, requester, key) is found
        assert net.metrics.messages - before == 2 * used


@pytest.mark.parametrize("n", [1, 3, 17, 64])
def test_memoized_lookups_match_the_sorting_oracle_under_churn_and_late_joins(n):
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
    monkeypatch.setattr(Network, "backup_targets", oracle_backup_targets)
    monkeypatch.setattr(Network, "fetch", oracle_fetch)
    oracle = run_scenario(load_scenario(path))
    assert production.metrics_log.to_csv() == oracle.metrics_log.to_csv()
    assert export_all_chains(production) == export_all_chains(oracle)


def test_neighborhood_ignores_presence():
    net = _network()
    key = b"\x5c" * 32
    before = net.neighborhood(key)
    before[0].online = False
    assert net.neighborhood(key) == before


def test_backup_targets_follow_presence_for_normal_types():
    net = _network(n=16)
    author = net.agents[0]
    record = author.append("report", {"text": "spread me"}, 10)
    key = record_key(record)
    want = math.ceil(net.redundancy * net.backup_factor)
    targets = net.backup_targets(key, record)
    assert len(targets) == want
    assert all(t.online for t in targets)
    # knock the nearest target offline: the set re-forms around the living
    targets[0].online = False
    retargeted = net.backup_targets(key, record)
    assert targets[0] not in retargeted
    assert len(retargeted) == want


def test_backup_targets_pin_restricted_types_to_static_neighborhood():
    net = _network(n=16)
    author = net.agents[0]
    record = author.append("vitals_pulse", _vitals_fields(author), 10)
    key = record_key(record)
    static = net.neighborhood(key)
    static[0].online = False
    # presence changes nothing: restricted data must not migrate outward
    assert net.backup_targets(key, record) == static


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
    row = author.experience.rows[sleeper.public_key]
    assert (row.experience, row.confidence) == (0, 0.5)  # noted, not punished


def test_invalid_publish_rejected_and_scored_against_author():
    net = _network()
    author = net.agents[0]
    record = author.append("vitals_pulse", _vitals_fields(author, value=9999), 10)
    receipts = net.publish(author, record)
    assert receipts == []
    key = record_key(record)
    assert net.holders_of(key) == [author]  # only its own chain copy
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


def test_wire_tampering_is_rejected_without_blaming_anyone():
    net = _network()
    author = net.agents[0]
    record = author.append("report", {"text": "clean"}, 10)

    def corrupt(kind, sender, receiver, payload):
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
    envelope = make_envelope(relay.keys, "publish", Network._publish_payload(net.network_id, mangled))
    assert envelope.valid
    validator = next(a for a in net.agents if a not in (victim, relay))
    assert net._deliver_publish(relay, validator, envelope) is None
    assert validator.experience.rows[relay.public_key].confidence == 0.25
    assert victim.public_key not in validator.experience.rows


def test_signed_envelope_that_is_not_a_publish_encoding_is_rejected():
    net = _network()
    sender, validator = net.agents[0], net.agents[1]
    envelope = make_envelope(sender.keys, "publish", b"not a publish payload")
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
    envelope = make_envelope(
        stranger.keys, "publish", Network._publish_payload(net_b.network_id, record)
    )
    validator = net_a.agents[1]
    assert net_a._deliver_publish(stranger, validator, envelope) is None
    assert not validator.holds(record_key(record))
    # the shipper is attributable: it provably signed a misdirected push
    assert validator.experience.rows[stranger.public_key].confidence == 0.25


# every path a peer can push to another goes through the same receiver gate
GATED_DELIVERIES = {
    "publish": lambda net, sender, receiver, record, claim: net.publish(sender, record),
    "send_claim": lambda net, sender, receiver, record, claim: net.send_claim(sender, receiver, claim),
    "gossip_from_sender": lambda net, sender, receiver, record, claim: net._exchange(
        sender, receiver, net._want_lists()
    ),
    "gossip_from_receiver": lambda net, sender, receiver, record, claim: net._exchange(
        receiver, sender, net._want_lists()
    ),
}


@pytest.mark.parametrize("path", sorted(GATED_DELIVERIES))
def test_blacklist_gate_runs_before_rate_accounting(path):
    net = _network()
    sender = net.agents[0]
    record = sender.append("report", {"text": "hi"}, 10)
    key = record_key(record)
    # offered by gossip as well as by publish
    sender.published.add(key)
    claim = transfer_claim(b"\x42" * 32, sender.public_key, b"\x00" * 32)
    net._accept_claim(sender, claim)
    receiver = next(v for v in net.neighborhood(key) if v is not sender)
    assert receiver in net.backup_targets(key, record)
    for _ in range(3):
        update_experience(receiver.experience, sender.public_key, ObservationKind.INVALID_DATA)
    assert is_blacklisted(receiver.experience, sender.public_key)
    rejections, news = net.metrics.rejections, dict(receiver.news)

    outcome = GATED_DELIVERIES[path](net, sender, receiver, record, claim)

    if path == "publish":
        assert all(r.holder != receiver.public_key for r in outcome)
    assert net.metrics.rejections == rejections + 1
    assert not receiver.holds(key)
    assert receiver.news == news
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
    dst = next(a for a in net.backup_targets(key, record) if not a.holds(key))
    verify_calls.clear()
    net._sync_records(src, dst, net._want_lists()[dst])
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

    def corrupt(kind, sender, receiver, payload):
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
    monkeypatch.setattr(Network, "_exchange", lambda net, a, b, wants: contacts.append((a, b)))
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


def oracle_sync_records(net, src, dst, want=None):
    """The per-contact loop the want-lists replace: every key src holds or
    has published, lowest first, re-deriving dst's membership of the key's
    holder set each time. Ignores want."""
    for key in sorted(set(src.shard) | src.published):
        if dst.holds(key):
            continue
        record = src.lookup(key)
        if record is None:
            continue
        if dst not in net.backup_targets(key, record):
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
        [list(a.news) for a in net.agents],
        [a.experience for a in net.agents],
        [a.rate_window for a in net.agents],
        net.transfer_index,
        net.metrics.snapshot(),
    )


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
            for holder in net.holders_of(key):
                if key in holder.shard:
                    holder.shard[key] = tampered
        oracle = _fork(net)
        oracle._sync_records = types.MethodType(oracle_sync_records, oracle)
        oracle_rng = random.Random()
        oracle_rng.setstate(rng.getstate())
        contacts = net.gossip_round(rng)
        assert oracle.gossip_round(oracle_rng) == contacts
        assert _gossip_state(oracle) == _gossip_state(net)
        assert oracle_rng.getstate() == rng.getstate()
    if n >= 17:
        assert net.metrics.backup_transfers > 0
        # the corrupted copies were offered and refused
        assert net.metrics.rejections > 0


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
    production = run_scenario(config_from_dict(doc))
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
        assert all(claim.claim_id in a.news for a in net.agents)


def test_records_replicate_to_all_backup_targets():
    net = _network(n=12)
    author = net.agents[0]
    record = author.append("report", {"text": "replicate"}, 10)
    key = record_key(record)
    net.publish(author, record)
    _converge(net, random.Random(7), math.ceil(math.log2(12)) + 2)
    holders = {a.index for a in net.holders_of(key)}
    targets = {a.index for a in net.backup_targets(key, record)}
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
        assert {a.index for a in net.holders_of(key)} <= static | {author.index}


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
    assert claim.claim_id not in receiver.news
