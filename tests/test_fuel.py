"""Co-signed credit transfers: balances, signatures, audits, conservation.

The ``oracle_*`` functions are brute-force references: a sorted walk of
every queried news pool, one ``decode_fields`` per credit record per
``balance`` call, reverse scans of a chain for its newest credit record and
for a recorded tx_id, a sorted walk of the sender's whole pool per gossip
contact, accepting each claim the receiver lacks one at a time. The
transfer index, the running ledger per chain and the bitset merge of claim
pools must give the same verdicts, balances, keys and pools on every
history below, and a generated whole scenario must keep each running
balance equal to the walk after every tick. A pool is read through
``Network.claims_of`` and compared as claim ids, lowest first.
"""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain import canonical, fuel, sim
from agentchain.canonical import EncodingError
from agentchain.chain import Record, record_key, verify_chain
from agentchain.crypto import ZERO_DIGEST, hash_bytes, verify
from agentchain.dht import (
    CLAIM_MISBEHAVIOR,
    CLAIM_REVOKE,
    CLAIM_TRANSFER,
    Agent,
    Network,
    agent_seed,
    make_agent,
    misbehavior_claim,
    revoke_claim,
    transfer_claim,
)
from agentchain.fuel import (
    AMOUNT_CAP,
    FUEL_TX_TYPE,
    SEED_GRANT_TYPE,
    FuelError,
    FuelTransaction,
    FuelVerdict,
    TransferRefused,
    accept_fuel_tx,
    append_seed_grant,
    audit_double_spend,
    balance,
    complete_transfer,
    countersign,
    create_fuel_tx,
    has_transfer,
    latest_fuel_key,
    settle,
    walk_balance,
)
from agentchain.healthcare import healthcare_dna
from agentchain.reputation import ObservationKind, update_experience
from agentchain.sim import (
    ScenarioAssertion,
    Simulation,
    audit_access_log,
    config_from_dict,
    export_all_chains,
    load_scenario,
    run_double_spend_experiment,
    run_scenario,
)
from agentchain.validation import (
    TRANSFER_BODY_FIELDS,
    Marketplace,
    Reason,
    transfer_body,
    validate_transaction,
)
from conftest import assert_network_coherent

SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


def _network(n=8, seed=77, witness_count=7, dna=None, **kw):
    dna = dna or healthcare_dna()
    net = Network(dna, Marketplace(), witness_count=witness_count, **kw)
    for i in range(n):
        net.join(make_agent(i, agent_seed(seed, i), dna))
    return net


def test_exact_balances_after_one_transfer():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 10, 1)
    append_seed_grant(b, 3, 1)
    tx, verdict = settle(net, a, b, 4, 2, random.Random(0))
    assert tx is not None and verdict.ok
    assert balance(a.chain) == 6
    assert balance(b.chain) == 7
    assert verify_chain(a.chain).ok and verify_chain(b.chain).ok
    assert tx.sender_prior_balance == 10


def test_latest_fuel_key_tracks_credit_entries_only():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    assert latest_fuel_key(a.chain) == ZERO_DIGEST
    grant = append_seed_grant(a, 10, 1)
    assert latest_fuel_key(a.chain) == record_key(grant)
    a.append("report", {"text": "noise"}, 2)
    assert latest_fuel_key(a.chain) == record_key(grant)
    tx, _ = settle(net, a, b, 2, 3, random.Random(0))
    sender_copy = a.chain.records[-1]
    assert sender_copy.header.entry_type == "fuel_tx"
    assert latest_fuel_key(a.chain) == record_key(sender_copy)
    # both parties hold the same payload under different headers
    receiver_copy = b.chain.records[-1]
    assert receiver_copy.payload == sender_copy.payload
    assert record_key(receiver_copy) != record_key(sender_copy)


def test_create_rejects_bad_amounts_and_overdrafts():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 5, 1)
    for amount in (0, -3, AMOUNT_CAP + 1):
        with pytest.raises(FuelError):
            create_fuel_tx(a.chain, b.public_key, amount, 2)
    with pytest.raises(FuelError):
        create_fuel_tx(a.chain, a.public_key, 1, 2)
    with pytest.raises(FuelError):
        create_fuel_tx(a.chain, b.public_key, 6, 2)
    # a credit line in the sender chain's DNA moves the floor without
    # removing it
    lender = make_agent(0, agent_seed(77, 0), healthcare_dna(credit_limit=1))
    append_seed_grant(lender, 5, 1)
    assert create_fuel_tx(lender.chain, b.public_key, 6, 2).amount == 6
    with pytest.raises(FuelError):
        create_fuel_tx(lender.chain, b.public_key, 7, 2)


def test_a_double_spend_is_held_to_the_dna_credit_limit():
    dna = healthcare_dna(credit_limit=5)
    net = Network(dna, Marketplace(), witness_count=3, audit_samples=3)
    for i in range(6):
        net.join(make_agent(i, agent_seed(8, i), dna))
    spender = net.agents[0]
    tx1, _caught = sim.double_spend(net, spender, 5, 1, random.Random(0))
    assert (tx1.sender_prior_balance, tx1.amount) == (0, 5)
    with pytest.raises(FuelError):
        sim.double_spend(net, spender, 6, 2, random.Random(0))


def test_countersign_verifies_sender_and_addressee():
    net = _network()
    a, b, c = net.agents[0], net.agents[1], net.agents[2]
    append_seed_grant(a, 5, 1)
    pending = create_fuel_tx(a.chain, b.public_key, 2, 2)
    tx = countersign(b.keys, pending)
    body = pending.body_bytes
    assert verify(tx.sender, body, tx.sender_sig)
    assert verify(tx.receiver, body, tx.receiver_sig)
    assert tx.tx_id == pending.tx_id

    with pytest.raises(FuelError):
        countersign(c.keys, pending)  # not addressed to c
    forged = dataclasses.replace(pending, amount=3)
    with pytest.raises(FuelError):
        countersign(b.keys, forged)  # sender signature no longer covers body


def test_tx_fields_roundtrip():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 5, 1)
    tx = countersign(b.keys, create_fuel_tx(a.chain, b.public_key, 2, 2))
    # what lands on the chains decodes back to the same transfer; tx_id is
    # derived from the body, never carried as state
    fields = canonical.decode_fields(tx.payload)
    assert fields.pop("tx_id") == tx.tx_id == hash_bytes(tx.body_bytes)
    assert FuelTransaction(**fields) == tx


def test_settled_transfer_validates_under_the_blueprint():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 5, 1)
    tx, _ = settle(net, a, b, 2, 2, random.Random(0))
    assert tx is not None
    record = b.chain.records[-1]
    assert validate_transaction(record, net.dna).valid


def test_a_transfer_on_credit_is_held_to_its_blueprint_limit_without_a_resolver():
    """balance-nonneg reads the credit limit of the blueprint it validates
    under, whether or not the caller passes a record resolver."""
    net = _network(n=5, dna=healthcare_dna(credit_limit=5))
    a, b = net.agents[0], net.agents[1]
    tx, _ = settle(net, a, b, 5, 1, random.Random(0))
    assert (tx.sender_prior_balance, tx.amount) == (0, 5)
    record = b.chain.records[-1]
    assert validate_transaction(record, net.dna).valid
    verdict = validate_transaction(record, healthcare_dna(credit_limit=4))
    assert verdict.reason is Reason.RULE_VIOLATION
    assert verdict.detail == "balance-nonneg: balance 0 cannot cover 5"


def test_fuel_verdict_must_name_the_conflict():
    assert FuelVerdict(True).conflicting_tx is None
    with pytest.raises(ValueError):
        FuelVerdict(False)


def test_double_spend_rejected_when_a_witness_remembers():
    net = _network()  # witness_count=7 seeds every non-party
    a, b, c = net.agents[0], net.agents[1], net.agents[2]
    append_seed_grant(a, 10, 1)
    # a signs a transfer to b, then spends the same state to c instead
    stale = create_fuel_tx(a.chain, b.public_key, 4, 2)
    spent, _ = settle(net, a, c, 4, 3, random.Random(1))
    assert spent is not None
    before = b.experience.row(a.public_key).confidence

    tx, verdict = accept_fuel_tx(b, stale, net, 4, random.Random(2))
    assert tx is None
    assert not verdict.ok
    assert verdict.conflicting_tx == spent.tx_id
    assert verdict.witness == b.public_key  # receiver self-check fires first
    # the attempt halves the sender's standing at the receiver
    assert b.experience.rows[a.public_key].confidence == before * 0.5
    assert balance(b.chain) == 0


def test_audit_queries_skip_offline_and_nonwitnesses():
    net = _network()
    a, b, c, d = net.agents[:4]
    append_seed_grant(a, 10, 1)
    stale = create_fuel_tx(a.chain, b.public_key, 4, 2)
    spent, _ = settle(net, a, c, 4, 3, random.Random(1))

    ignorant = make_agent(99, agent_seed(0, 99), healthcare_dna())
    assert audit_double_spend(stale, [ignorant], net).ok
    d.online = False
    assert audit_double_spend(stale, [d], net).ok  # offline witness cannot answer
    d.online = True
    assert not audit_double_spend(stale, [d], net).ok


def test_fresh_transfer_passes_audit():
    net = _network()
    a, b, c = net.agents[0], net.agents[1], net.agents[2]
    append_seed_grant(a, 10, 1)
    first, _ = settle(net, a, c, 4, 2, random.Random(1))
    assert first is not None
    # second spend from the *updated* state is honest and must pass
    second, verdict = settle(net, a, b, 3, 3, random.Random(2))
    assert second is not None and verdict.ok
    assert balance(a.chain) == 3


def test_identical_transfer_cannot_be_recorded_twice():
    # not a double spend (same tx_id), so the audit has nothing to flag;
    # the receiver itself must refuse the replay or it gains credit twice
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 10, 1)
    pending = create_fuel_tx(a.chain, b.public_key, 4, 2)
    tx, verdict = accept_fuel_tx(b, pending, net, 2, random.Random(0))
    assert tx is not None and verdict.ok
    with pytest.raises(FuelError):
        accept_fuel_tx(b, pending, net, 3, random.Random(1))
    assert balance(b.chain) == 4


def test_blacklisted_sender_is_refused_outright():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 10, 1)
    for _ in range(3):
        update_experience(b.experience, a.public_key, ObservationKind.DOUBLE_SPEND)
    pending = create_fuel_tx(a.chain, b.public_key, 1, 2)
    rejections = net.metrics.rejections
    with pytest.raises(TransferRefused):
        accept_fuel_tx(b, pending, net, 2, random.Random(0))
    assert net.metrics.rejections == rejections + 1
    assert not has_transfer(b.chain, pending.tx_id)


def test_conservation_over_a_transfer_storm():
    net = _network(n=8, seed=13)
    rng = random.Random(29)
    seeded = 0
    for i, agent in enumerate(net.agents):
        append_seed_grant(agent, (i + 1) * 5, 1)
        seeded += (i + 1) * 5
    completed = 0
    for step in range(40):
        si, ri = rng.sample(range(8), 2)
        sender, receiver = net.agents[si], net.agents[ri]
        amount = rng.randint(1, 6)
        if balance(sender.chain) < amount:
            continue
        tx, verdict = settle(net, sender, receiver, amount, 10 + step, rng)
        assert tx is not None and verdict.ok  # honest flow never trips the audit
        completed += 1
    assert completed > 20
    assert sum(balance(a.chain) for a in net.agents) == seeded
    assert all(verify_chain(a.chain).ok for a in net.agents)
    assert all(balance(a.chain) >= 0 for a in net.agents)
    net.assert_shards_validated()
    assert net.metrics.fuel_txs == completed


# --- the index-driven paths against brute-force scans ---------------------------

CLAIM_KINDS = (CLAIM_TRANSFER, CLAIM_MISBEHAVIOR, CLAIM_REVOKE)


def pool(network, agent):
    """agent's whole news pool, lowest claim id first."""
    return sorted(
        (claim for kind in CLAIM_KINDS for claim in network.claims_of(agent, kind)),
        key=lambda claim: claim.claim_id,
    )


def pool_ids(network, agent):
    return [claim.claim_id for claim in pool(network, agent)]


def oracle_audit(candidate, queried, network):
    """Walk each online queried pool in claim-id order; first conflict wins."""
    for agent in queried:
        if not agent.online:
            continue
        for claim in pool(network, agent):
            if claim.kind != CLAIM_TRANSFER:
                continue
            if (
                claim.agent == candidate.sender
                and claim.extra == candidate.sender_prev_tx
                and claim.subject != candidate.tx_id
            ):
                return FuelVerdict(False, conflicting_tx=claim.subject, witness=agent.public_key)
    return FuelVerdict(True)


def oracle_balance(chain):
    """Decode every credit record's payload afresh."""
    owner = chain.owner.public_key
    total = 0
    for record in chain.records:
        if record.header.entry_type == SEED_GRANT_TYPE:
            total += canonical.decode_fields(record.payload)["amount"]
        elif record.header.entry_type == FUEL_TX_TYPE:
            fields = canonical.decode_fields(record.payload)
            if fields["receiver"] == owner:
                total += fields["amount"]
            if fields["sender"] == owner:
                total -= fields["amount"]
    return total


def oracle_latest_fuel_key(chain):
    """Hash the newest credit record found walking back from the head."""
    for record in reversed(chain.records):
        if record.header.entry_type in (FUEL_TX_TYPE, SEED_GRANT_TYPE):
            return record_key(record)
    return ZERO_DIGEST


def oracle_has_transfer(chain, tx_id):
    """Decode every fuel_tx record, newest first, for the tx_id."""
    return any(
        canonical.decode_fields(record.payload)["tx_id"] == tx_id
        for record in reversed(chain.records)
        if record.header.entry_type == FUEL_TX_TYPE
    )


def assert_news_bits_match(network):
    """The claim table holds each claim once, at the bit its id maps to,
    with each kind's bits naming exactly the claims of that kind; each
    agent's news_bits names table bits only, and the accessors read back
    exactly the claims those bits name."""
    table = network._claims
    ids = [claim.claim_id for claim in table]
    assert network._claim_bit == {cid: bit for bit, cid in enumerate(ids)}
    for kind in set(CLAIM_KINDS) | set(network._kind_bits):
        assert network._kind_bits.get(kind, 0) == sum(
            1 << bit for bit, claim in enumerate(table) if claim.kind == kind
        )
    for agent in network.agents:
        bits = agent.news_bits
        assert bits >= 0 and bits.bit_length() <= len(table)
        named = [claim for bit, claim in enumerate(table) if bits >> bit & 1]
        assert pool(network, agent) == sorted(named, key=lambda claim: claim.claim_id)
        for kind in CLAIM_KINDS:
            assert network.claims_of(agent, kind) == [
                claim for claim in pool(network, agent) if claim.kind == kind
            ]
        held = {claim.claim_id for claim in named}
        assert [network.has_claim(agent, cid) for cid in ids] == [cid in held for cid in ids]
        assert not network.has_claim(agent, hash_bytes(b"never a claim"))


def oracle_sync_claims(network, src, dst):
    """Offer dst every claim src holds, lowest id first; dst accepts each
    one it lacks."""
    for claim in pool(network, src):
        if not network.has_claim(dst, claim.claim_id):
            network._accept_claim(dst, claim)


def rebuilt_transfer_index(network):
    """The transfer index recomputed from every member's pool."""
    index = {}
    for agent in network.agents:
        for claim in network.claims_of(agent, CLAIM_TRANSFER):
            index.setdefault((claim.agent, claim.extra), {})[claim.claim_id] = claim.subject
    return index


def _verdict(v):
    return v.ok, v.conflicting_tx, v.witness


@pytest.fixture
def checked_audit(monkeypatch):
    """Every audit the program runs is checked against the oracle, and the
    transfer index and the claim bitmaps against the pools at that moment.
    Yields the verdicts seen."""
    production = fuel.audit_double_spend
    seen = []

    def audit(candidate, queried, network):
        verdict = production(candidate, queried, network)
        assert _verdict(verdict) == _verdict(oracle_audit(candidate, queried, network))
        assert network.transfer_index == rebuilt_transfer_index(network)
        assert_news_bits_match(network)
        seen.append(verdict)
        return verdict

    monkeypatch.setattr(fuel, "audit_double_spend", audit)
    return seen


def _tamper_or_truncate(net, rng):
    """Rewrite one credit record's amount in place on its chain, or cut a
    chain's tail. Either way the chain holds new or fewer Record objects."""
    agent = rng.choice(net.agents)
    credit = [
        r.header.seq for r in agent.chain.records
        if r.header.entry_type in (FUEL_TX_TYPE, SEED_GRANT_TYPE)
    ]
    if not credit:
        return
    seq = rng.choice(credit)
    if rng.random() < 0.5:
        original = agent.chain.records[seq]
        fields = dict(original.fields)
        fields["amount"] += rng.randint(1, 5)
        agent.chain.replace_at(seq, Record(original.header, canonical.encode_fields(fields)))
    else:
        agent.chain.truncate(seq)


@pytest.mark.parametrize("seed", range(4))
def test_audit_and_balance_match_the_scans_on_random_histories(seed, checked_audit):
    rng = random.Random(seed)
    net = _network(n=10, seed=seed, witness_count=3, audit_samples=3)
    ignorant = make_agent(99, agent_seed(seed, 99), healthcare_dna())
    for agent in net.agents:
        append_seed_grant(agent, 20, 1)
    candidates = []
    # draws for the checks only, so the histories do not depend on them
    pick = random.Random(seed + 1000)
    for step in range(80):
        clock = 2 + step
        net.begin_tick(clock)
        roll = rng.random()
        if roll < 0.55:
            sender, receiver = rng.sample(net.agents, 2)
            if balance(sender.chain) < 1:
                continue
            pending = create_fuel_tx(sender.chain, receiver.public_key, 1, clock)
            candidates.append(pending)
            try:
                tx, _ = accept_fuel_tx(
                    receiver, pending, net, clock, rng, audit=rng.random() < 0.7, publish=False
                )
            except FuelError:  # the receiver shuns the sender by now
                continue
            # a sender that does not record its transfer spends the same
            # prior state again next time: a double spend
            if tx is not None and rng.random() < 0.6:
                complete_transfer(sender, tx, net, clock, publish=False)
        elif roll < 0.75:
            net.gossip_round(rng)
        elif roll < 0.9:
            flip = rng.choice(net.agents)
            flip.online = not flip.online
        else:
            _tamper_or_truncate(net, rng)
        for agent in net.agents:
            assert balance(agent.chain) == oracle_balance(agent.chain)
            assert latest_fuel_key(agent.chain) == oracle_latest_fuel_key(agent.chain)
            for candidate in pick.sample(candidates, min(4, len(candidates))):
                assert has_transfer(agent.chain, candidate.tx_id) == oracle_has_transfer(
                    agent.chain, candidate.tx_id
                )
        assert_news_bits_match(net)
        for candidate in rng.sample(candidates, min(6, len(candidates))):
            queried = rng.sample(net.agents, 4) + [ignorant]
            rng.shuffle(queried)
            assert _verdict(audit_double_spend(candidate, queried, net)) == _verdict(
                oracle_audit(candidate, queried, net)
            )
    assert net.transfer_index == rebuilt_transfer_index(net)
    assert any(not v.ok for v in checked_audit)  # the histories do hold double spends


def test_repeated_double_spends_of_one_state_name_the_lowest_claim():
    net = _network()  # witness_count=7 seeds every non-party
    a = net.agents[0]
    append_seed_grant(a, 10, 1)
    # four spends of one prior state, each announced, none recorded by a
    spends = []
    for receiver in net.agents[1:5]:
        pending = create_fuel_tx(a.chain, receiver.public_key, 1, 2)
        tx, _ = accept_fuel_tx(
            receiver, pending, net, 2, random.Random(receiver.index), audit=False, publish=False
        )
        spends.append(tx)
    stale = create_fuel_tx(a.chain, net.agents[5].public_key, 1, 3)
    bucket = net.transfer_index[(a.public_key, stale.sender_prev_tx)]
    # one entry per distinct claim, however many pools hold it
    assert sorted(bucket.values()) == sorted(t.tx_id for t in spends)
    assert net.transfer_index == rebuilt_transfer_index(net)
    witness = net.agents[6]
    verdict = audit_double_spend(stale, [witness], net)
    assert _verdict(verdict) == _verdict(oracle_audit(stale, [witness], net))
    assert verdict.conflicting_tx == bucket[min(bucket)]
    # one of the four spends is not in conflict with itself
    again = audit_double_spend(spends[0], [witness], net)
    assert _verdict(again) == _verdict(oracle_audit(spends[0], [witness], net))
    assert again.conflicting_tx != spends[0].tx_id


def test_double_spend_experiment_reset_keeps_the_index_exact(checked_audit):
    # the pinned counts of tests/test_sim.py, with every audit checked and
    # the index compared to the pools after each trial's reset
    out = run_double_spend_experiment(seed=3, trials=60, n_agents=20, witnesses=6, audit_samples=6)
    assert out["detected"] == 54
    assert len(checked_audit) == 60


def _claim_history(seed):
    """Claims of every kind dropped at random agents, under presence flips,
    gossiped for 30 rounds; misbehavior claims blacklist some senders, so
    later contacts are refused."""
    rng = random.Random(seed)
    net = _network(n=12, seed=seed)
    keys = [a.public_key for a in net.agents]
    for tick in range(30):
        net.begin_tick(tick)
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.5:
                prev = rng.choice([ZERO_DIGEST, b"\x01" * 32])
                claim = transfer_claim(rng.randbytes(32), rng.choice(keys), prev)
            elif roll < 0.8:
                # two repeat offenders, so four reports blacklist them
                claim = misbehavior_claim(
                    rng.choice(keys[:2]), ObservationKind.INVALID_DATA, rng.randbytes(32)
                )
            else:
                claim = revoke_claim(rng.randbytes(32), rng.choice(keys), rng.randbytes(32))
            net._accept_claim(rng.choice(net.agents), claim)
        assert_news_bits_match(net)
        flip = rng.choice(net.agents)
        flip.online = not flip.online
        net.gossip_round(rng)
        assert_news_bits_match(net)
    return net


@pytest.mark.parametrize("seed", range(3))
def test_claim_sync_by_set_difference_matches_the_whole_pool_scan(seed, monkeypatch):
    production = _claim_history(seed)
    monkeypatch.setattr(Network, "_sync_claims", oracle_sync_claims)
    reference = _claim_history(seed)
    assert [pool_ids(production, a) for a in production.agents] == [
        pool_ids(reference, a) for a in reference.agents
    ]
    assert [list(a.experience.rows.items()) for a in production.agents] == [
        list(a.experience.rows.items()) for a in reference.agents
    ]
    assert production.metrics.snapshot() == reference.metrics.snapshot()
    assert production.metrics.blacklist_events > 0
    assert production.transfer_index == reference.transfer_index
    assert production.transfer_index == rebuilt_transfer_index(production)


def _market_doc(seed):
    """A small fuel market: unpublished transfers between traders under
    churn, and one double spend by each of four dedicated spenders."""
    rng = random.Random(seed)
    script = []
    for tick in range(1, 24):
        for _ in range(4):
            s, r = rng.sample(range(4, 16), 2)
            script.append({"tick": tick, "op": "transfer", "sender": s, "receiver": r,
                           "amount": 1, "publish": False, "expect_ok": False})
        if tick % 5 == 0:
            script.append({"tick": tick, "op": "attack", "kind": "double_spend",
                           "agent": tick // 5 % 4})
    return {"name": "market", "seed": seed, "n_agents": 16, "ticks": 24, "churn": 0.2,
            "seed_fuel": 50, "witnesses": 4, "audit_samples": 4, "script": script}


@pytest.mark.parametrize(
    "config",
    [load_scenario(str(p)) for p in SCENARIO_FILES] + [config_from_dict(_market_doc(s)) for s in (1, 2)],
    ids=[p.stem for p in SCENARIO_FILES] + ["market1", "market2"],
)
def test_scenarios_give_the_same_bytes_and_pools_with_the_scans(config, monkeypatch):
    production = run_scenario(config)
    monkeypatch.setattr(Network, "_sync_claims", oracle_sync_claims)
    monkeypatch.setattr(fuel, "audit_double_spend", oracle_audit)
    monkeypatch.setattr(fuel, "balance", oracle_balance)
    monkeypatch.setattr(sim, "balance", oracle_balance)
    reference = run_scenario(config)
    assert production.metrics_log.to_csv() == reference.metrics_log.to_csv()
    assert export_all_chains(production) == export_all_chains(reference)
    assert [pool_ids(production.network, a) for a in production.network.agents] == [
        pool_ids(reference.network, a) for a in reference.network.agents
    ]


# --- the running ledger and the claim bitmaps ------------------------------------

def test_the_ledger_catches_up_over_new_records_only():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    assert a.chain.ledger is None
    assert balance(a.chain) == 0 and latest_fuel_key(a.chain) == ZERO_DIGEST
    ledger = a.chain.ledger
    assert ledger.seen == len(a.chain)
    append_seed_grant(a, 10, 1)
    a.append("report", {"text": "noise"}, 2)
    tx, _ = settle(net, a, b, 4, 3, random.Random(0))
    # the sender's copy went on after create_fuel_tx's read: not yet counted
    assert ledger.seen == len(a.chain) - 1
    assert balance(a.chain) == 6
    assert a.chain.ledger is ledger and ledger.seen == len(a.chain)
    assert ledger.tx_ids == {tx.tx_id} and ledger.credit_seq == len(a.chain) - 1
    assert has_transfer(b.chain, tx.tx_id) and not has_transfer(b.chain, b"\x07" * 32)


def test_a_tampered_seed_grant_moves_the_running_balance_as_the_walk_does():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    grant = append_seed_grant(a, 10, 1)
    settle(net, a, b, 3, 2, random.Random(0))
    assert balance(a.chain) == walk_balance(a.chain) == 7
    fields = dict(grant.fields)
    fields["amount"] = 25
    a.chain.replace_at(grant.header.seq, Record(grant.header, canonical.encode_fields(fields)))
    assert a.chain.ledger is None
    assert balance(a.chain) == walk_balance(a.chain) == oracle_balance(a.chain) == 22
    assert latest_fuel_key(a.chain) == oracle_latest_fuel_key(a.chain)
    # and through the simulator's own attack: the seed grant is the only
    # record the tamperer may pick
    config = config_from_dict({
        "seed": 4, "n_agents": 4, "ticks": 3, "seed_fuel": 50,
        "script": [{"tick": 1, "op": "attack", "kind": "tamper_own_history", "agent": 2}],
    })
    result = run_scenario(config)
    tamperer = result.network.agents[2].chain
    assert balance(tamperer) == walk_balance(tamperer) == oracle_balance(tamperer) != 50
    assert result.metrics.conservation_violations == 2  # ticks 1 and 2


def test_a_credit_payload_that_does_not_decode_raises_on_every_read():
    net = _network()
    a = net.agents[0]
    grant = append_seed_grant(a, 10, 1)
    assert balance(a.chain) == 10
    a.chain.replace_at(grant.header.seq, Record(grant.header, b"\xff"))
    for read in (balance, latest_fuel_key, balance, walk_balance):
        with pytest.raises(EncodingError):
            read(a.chain)
    with pytest.raises(EncodingError):
        has_transfer(a.chain, b"\x00" * 32)


def test_the_end_of_run_cross_check_names_a_running_balance_off_the_walk(monkeypatch):
    config = config_from_dict({"seed": 2, "n_agents": 4, "ticks": 2, "seed_fuel": 10})
    simulation = Simulation(config)
    monkeypatch.setattr(sim, "balance", lambda chain: 0 if chain is simulation.agent(1).chain else 10)
    with pytest.raises(ScenarioAssertion, match=r"^agent 1: running balance 0 != walk 10$"):
        simulation.run()


def test_clear_news_empties_every_bitmap_and_restarts_the_numbering():
    net = _network(n=6)
    rng = random.Random(5)
    for i in range(5):
        claim = transfer_claim(bytes([i]) * 32, net.agents[i].public_key, ZERO_DIGEST)
        net._accept_claim(net.agents[i], claim)
    for _ in range(3):
        net.gossip_round(rng)
    assert_news_bits_match(net)
    assert any(a.news_bits for a in net.agents)
    net.clear_news()
    assert all(a.news_bits == 0 and pool(net, a) == [] for a in net.agents)
    assert net._claims == [] and net._claim_bit == {} and net._kind_bits == {}
    assert net.transfer_index == {}
    claim = transfer_claim(b"\x09" * 32, net.agents[0].public_key, ZERO_DIGEST)
    net._accept_claim(net.agents[3], claim)
    assert net.agents[3].news_bits == 1 and net._claims == [claim]
    net.gossip_round(rng)
    assert_news_bits_match(net)


# --- peer pools drawn in place, and one field map per transfer -----------------

# random.sample copies a population of at most this many into a list and
# draws by pops from the copy; above it, it draws indices into the
# population and rejects repeats by a set (for k = 7 or 8). _draw takes
# the same draws in both branches.
SAMPLE_CUTOFF = 21 + 4 ** 3
_POOL_KEYPAIRS = SAMPLE_CUTOFF + 35


@pytest.fixture(scope="module")
def pool_agents():
    """One bootstrapped agent per keypair, to copy into memberships."""
    dna = healthcare_dna()
    return dna, [make_agent(i, agent_seed(31, i), dna) for i in range(_POOL_KEYPAIRS)]


@st.composite
def memberships(draw, agents):
    """A network of distinct keypairs in a drawn order, under Agent.index
    values that are not their positions; and a sender key and a receiver
    agent, either of which may not be a member."""
    dna, bases = agents
    size = draw(st.one_of(
        st.integers(0, 12),
        st.integers(SAMPLE_CUTOFF - 6, SAMPLE_CUTOFF + 4),
        st.integers(SAMPLE_CUTOFF + 5, SAMPLE_CUTOFF + 25),
    ))
    order = draw(st.permutations(range(len(bases))))
    network = Network(dna, Marketplace())
    for i in order[:size]:
        base = bases[i]
        network.join(Agent(index=draw(st.integers(-5, 10**6)), keys=base.keys, chain=base.chain))
    # a member, or an agent on a keypair that never joined
    outsider = bases[order[-1]]
    receiver = draw(st.one_of(
        st.sampled_from(network.agents) if network.agents else st.nothing(),
        st.just(Agent(index=0, keys=outsider.keys, chain=outsider.chain)),
    ))
    sender = draw(st.one_of(
        st.sampled_from([a.public_key for a in network.agents]) if network.agents else st.nothing(),
        st.just(outsider.public_key),
        st.just(b"\x05" * 32),
    ))
    return network, sender, receiver


@given(st.data(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_drawn_strangers_are_the_samples_of_the_scanned_pools(pool_agents, data, seed):
    network, sender, receiver = data.draw(memberships(pool_agents))
    # the excluded keys of accept_fuel_tx's audit and announce_transfer's
    # witnesses, and the pools their scans once built and sampled
    pools = [
        ((receiver.public_key,), [a for a in network.agents if a is not receiver]),
        ((sender, receiver.public_key),
         [a for a in network.agents if a.public_key not in (sender, receiver.public_key)]),
    ]
    for keys, scanned in pools:
        # the whole pool too: every member of the scan, each drawn once
        for k in (0, 7, 8, 70, len(scanned)):
            rng, oracle = random.Random(seed), random.Random(seed)
            drawn = network.draw_strangers(rng, k, *keys)
            assert drawn == oracle.sample(scanned, min(k, len(scanned)))  # Agent compares by identity
            assert rng.getstate() == oracle.getstate()


def test_a_transfer_decodes_no_field_map(decode_calls):
    net = _network()
    a, b, spender = net.agents[0], net.agents[1], net.agents[2]
    for agent in net.agents:
        append_seed_grant(agent, 10, 1)
        balance(agent.chain)  # a seed grant's map is decoded, once
    decode_calls.clear()
    tx, _ = settle(net, a, b, 4, 2, random.Random(0), publish=False)
    sender_copy, receiver_copy = a.chain.records[-1], b.chain.records[-1]
    for agent in (a, b):
        balance(agent.chain), latest_fuel_key(agent.chain), has_transfer(agent.chain, tx.tx_id)
    tx1, _ = sim.double_spend(net, spender, 3, 3, random.Random(1))
    for agent in net.agents:
        balance(agent.chain), latest_fuel_key(agent.chain), has_transfer(agent.chain, tx1.tx_id)
    assert decode_calls == []
    # both chain records of the transfer share the map their payload
    # was encoded from, names in the order decode_fields gives them
    assert sender_copy.fields is receiver_copy.fields is tx.fields
    decoded = canonical.decode_fields(sender_copy.payload)
    assert list(tx.fields.items()) == list(decoded.items())
    decode_calls.clear()
    # a rewritten record is a new one, with nothing but its payload to go on
    before = balance(b.chain)
    fields = dict(receiver_copy.fields)
    fields["amount"] += 1
    forged = Record(receiver_copy.header, canonical.encode_fields(fields))
    b.chain.replace_at(receiver_copy.header.seq, forged)
    assert balance(b.chain) == walk_balance(b.chain) == before + 1
    assert decode_calls == [(forged.payload,)]
    assert forged.fields == fields and sender_copy.fields is tx.fields


def test_a_settle_encodes_the_transfer_body_once_and_its_entry_once(encode_calls):
    """A settle writes two field maps through the one writer: the body, for
    tx_id and both signatures, and the co-signed entry both chains hold."""
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 10, 1)
    encode_calls.clear()
    tx, _ = settle(net, a, b, 4, 2, random.Random(0), publish=False)
    assert [sorted(fields) for (fields,) in encode_calls] == [
        sorted(TRANSFER_BODY_FIELDS), sorted(tx.fields),
    ]
    assert tx.body_bytes == transfer_body(tx.fields)
    payload = canonical.encode_fields(dict(tx.fields))
    assert a.chain.records[-1].payload == b.chain.records[-1].payload == tx.payload == payload


# --- whole scenarios -------------------------------------------------------------

FUEL_SCRIPT_SEED = 1000  # covers the most a generated script can spend


@st.composite
def fuel_scenarios(draw):
    """Valid fuel scripts: transfers published or not, seed grants, at most
    two double spends per spender, history tampering and presence changes.

    The seed fuel of every agent covers the most it can send, so no
    transfer runs over balance. A double spend and a tamper each cost the attacker one
    strike at every peer, and three blacklist it, which turns its next
    transfer into an error; so each agent makes at most two attacks. A
    double spend is drawn only while two other agents are online.
    """
    n = draw(st.integers(3, 10))
    ticks = draw(st.integers(5, 20))
    agents = st.integers(0, n - 1)
    online = [True] * n
    attacks = [0] * n
    double_spends = [0] * n
    script = []
    for tick in range(ticks):
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["transfer", "seed_fuel", "double_spend", "tamper", "presence"]))
            if kind == "transfer":
                sender = draw(agents)
                receiver = (sender + draw(st.integers(1, n - 1))) % n
                script.append({"tick": tick, "op": "transfer", "sender": sender, "receiver": receiver,
                               "amount": draw(st.integers(1, 5)), "publish": draw(st.booleans())})
            elif kind == "seed_fuel":
                script.append({"tick": tick, "op": "seed_fuel", "agent": draw(agents),
                               "amount": draw(st.integers(1, 50))})
            elif kind == "presence":
                agent = draw(agents)
                online[agent] = draw(st.booleans())
                script.append({"tick": tick, "op": "presence", "agent": agent, "online": online[agent]})
            else:
                agent = draw(agents)
                if attacks[agent] == 2:
                    continue
                if kind == "double_spend":
                    if double_spends[agent] == 2 or sum(online) - online[agent] < 2:
                        continue
                    double_spends[agent] += 1
                    op = {"kind": "double_spend", "agent": agent, "amount": draw(st.integers(1, 5))}
                else:
                    op = {"kind": "tamper_own_history", "agent": agent}
                attacks[agent] += 1
                script.append({"tick": tick, "op": "attack", **op})
    return {
        "name": "generated-fuel",
        "seed": draw(st.integers(0, 2**20)),
        "n_agents": n,
        "ticks": ticks,
        "redundancy": draw(st.integers(1, min(4, n))),
        "witnesses": draw(st.integers(1, n)),
        "audit_samples": draw(st.integers(0, n)),
        "seed_fuel": FUEL_SCRIPT_SEED,
        "script": script,
    }


@given(fuel_scenarios())
@settings(max_examples=25, deadline=None)
def test_generated_fuel_scenarios_keep_every_running_balance_on_the_walk(doc):
    checked = []
    real = Simulation._check_invariants

    def check_invariants(self, tick):
        real(self, tick)
        for agent in self.network.agents:
            assert balance(agent.chain) == oracle_balance(agent.chain), (tick, agent.index)
        assert_network_coherent(self.network)
        checked.append(tick)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "_check_invariants", check_invariants)
        result = run_scenario(config_from_dict(doc))
    assert checked == list(range(doc["ticks"]))
    m = result.metrics
    attacks = sum(op["op"] == "attack" for op in doc["script"])
    assert m.attacks_attempted == attacks == m.attacks_detected + m.attacks_missed
    assert audit_access_log(result) == []
    again = run_scenario(config_from_dict(doc))
    assert again.metrics_log.to_csv() == result.metrics_log.to_csv()
    assert export_all_chains(again) == export_all_chains(result)


def test_a_published_transfer_checks_its_cosignatures_once(verify_calls):
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 5, 1)
    tx = countersign(b.keys, create_fuel_tx(a.chain, b.public_key, 2, 2))
    record = b.append(FUEL_TX_TYPE, tx.payload, 2)
    verify_calls.clear()
    receipts = net.publish(b, record)
    assert len(receipts) == net.redundancy == 4
    # the envelope's, the header's and the two transfer signatures, once
    # each for all r validators of the one record object
    assert len(verify_calls) == 4
    key = record_key(record)
    (held,) = {id(h.shard[key]): h.shard[key] for h in net.agents if key in h.shard}.values()
    assert validate_transaction(held, net.dna).valid
    assert len(verify_calls) == 4
