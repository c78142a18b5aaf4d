"""Co-signed credit transfers: balances, signatures, audits, conservation."""

import dataclasses
import random

import pytest

from agentchain import canonical
from agentchain.chain import record_key, verify_chain
from agentchain.crypto import ZERO_DIGEST, hash_bytes, verify
from agentchain.dht import Network, agent_seed, make_agent
from agentchain.fuel import (
    AMOUNT_CAP,
    FuelError,
    FuelTransaction,
    FuelVerdict,
    accept_fuel_tx,
    append_seed_grant,
    audit_double_spend,
    balance,
    countersign,
    create_fuel_tx,
    latest_fuel_key,
    settle,
)
from agentchain.healthcare import healthcare_dna
from agentchain.reputation import ObservationKind, update_experience
from agentchain.validation import Marketplace, validate_transaction


def _network(n=8, seed=77, witness_count=7, **kw):
    dna = healthcare_dna()
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
    # a credit line moves the floor without removing it
    assert create_fuel_tx(a.chain, b.public_key, 6, 2, credit_limit=1).amount == 6
    with pytest.raises(FuelError):
        create_fuel_tx(a.chain, b.public_key, 7, 2, credit_limit=1)


def test_countersign_verifies_sender_and_addressee():
    net = _network()
    a, b, c = net.agents[0], net.agents[1], net.agents[2]
    append_seed_grant(a, 5, 1)
    pending = create_fuel_tx(a.chain, b.public_key, 2, 2)
    tx = countersign(b.keys, pending)
    body = pending.body_bytes()
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
    fields = canonical.decode_fields(canonical.encode_fields(tx.to_fields()))
    assert fields.pop("tx_id") == tx.tx_id == hash_bytes(tx.body_bytes())
    assert FuelTransaction(**fields) == tx


def test_settled_transfer_validates_under_the_blueprint():
    net = _network()
    a, b = net.agents[0], net.agents[1]
    append_seed_grant(a, 5, 1)
    tx, _ = settle(net, a, b, 2, 2, random.Random(0))
    assert tx is not None
    record = b.chain.records[-1]
    assert validate_transaction(record, net.dna).valid


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
    assert audit_double_spend(stale, [ignorant]).ok
    d.online = False
    assert audit_double_spend(stale, [d]).ok  # offline witness cannot answer
    d.online = True
    assert not audit_double_spend(stale, [d]).ok


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
    with pytest.raises(FuelError):
        accept_fuel_tx(b, pending, net, 2, random.Random(0))


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
