"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises the public API the way an operator would and appends
one PASS line to the terminal summary (see conftest). A regression shows
up as an ordinary pytest failure and the line simply never prints.
"""

from __future__ import annotations

import dataclasses
import glob
import math
import os
import random
import time

import pytest
from conftest import ACCEPTANCE_LINES, SUITE_BUDGET_SECONDS, session_elapsed

from agentchain.bench import compare_sweep, eval_model
from agentchain.canonical import decode_fields
from agentchain.chain import DnaDocument, record_key, verify_records
from agentchain.dht import CrossNetworkError, Network, agent_seed, make_agent
from agentchain.fuel import SEED_GRANT_TYPE, append_seed_grant, balance
from agentchain.healthcare import VitalsReading, healthcare_dna, publish_vitals
from agentchain.reputation import (
    ExperienceMatrix,
    ObservationKind,
    is_blacklisted,
    update_experience,
)
from agentchain.sim import (
    config_from_dict,
    export_all_chains,
    load_scenario,
    mutate_record,
    run_double_spend_experiment,
    run_forged_token_experiment,
    run_scenario,
)
from agentchain.validation import Marketplace, Reason, authenticate_channel

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SCENARIOS = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))

# every way a single record can be altered in place
MUTATION_KINDS = (
    "seq",
    "timestamp",
    "entry_type",
    "entry_hash",
    "author",
    "prev_header_hash",
    "signature",
    "payload",
)


def _busy_chain(length: int, index: int):
    agent = make_agent(index, agent_seed(1101, index), healthcare_dna())
    append_seed_grant(agent, 40, 1)
    clock = 2
    while len(agent.chain.records) < length:
        agent.append("report", {"text": f"entry {clock}"}, clock)
        clock += 1
    assert len(agent.chain.records) == length
    return agent.chain.records


def test_01_any_single_record_mutation_is_caught_at_the_exact_spot():
    t0 = time.monotonic()
    rng = random.Random(0xC0FFEE)
    attempted = 0

    # exhaustive: every prefix length up to 20, every record, every field
    records = _busy_chain(20, 0)
    for length in range(2, len(records) + 1):
        prefix = records[:length]
        assert verify_records(prefix).ok
        for i in range(length):
            for how in MUTATION_KINDS:
                mutated = list(prefix)
                mutated[i] = mutate_record(prefix[i], how, rng)
                report = verify_records(mutated)
                assert not report.ok, (length, i, how)
                assert report.first_failure_index == i, (length, i, how)
                attempted += 1

    # randomized: a long chain probed at arbitrary spots
    long_records = _busy_chain(50, 1)
    for _ in range(1000):
        i = rng.randrange(len(long_records))
        how = MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]
        mutated = list(long_records)
        mutated[i] = mutate_record(long_records[i], how, rng)
        report = verify_records(mutated)
        assert not report.ok, (i, how)
        assert report.first_failure_index == i, (i, how)
        attempted += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    ACCEPTANCE_LINES.append(
        f"PASS 01 tamper detection: {attempted} single mutations, every one "
        f"detected at the exact record ({elapsed:.1f}s)"
    )


def test_02_channel_authentication_truth_table():
    dna = healthcare_dna()
    registered = Marketplace()
    registered.register(dna)
    unregistered = Marketplace()
    agent = make_agent(0, agent_seed(2202, 0), dna)
    honest = publish_vitals(agent, VitalsReading("pulse", 80, 1), 1)
    # the device-side bounds check is bypassed on purpose: the record is
    # correctly signed and linked but breaks the blueprint's range rule
    bogus = agent.append(
        "vitals_pulse",
        {
            "metric": "pulse",
            "value": 9000,
            "unit": "bpm",
            "taken_at": 2,
            "patient": agent.public_key,
        },
        2,
    )

    grid = [
        authenticate_channel(honest, dna, registered),
        authenticate_channel(bogus, dna, registered),
        authenticate_channel(honest, dna, unregistered),
        authenticate_channel(bogus, dna, unregistered),
    ]
    assert [v.valid for v in grid] == [True, False, False, False]
    assert grid[0].reason is Reason.OK
    assert all(v.reason is not Reason.OK for v in grid[1:])
    ACCEPTANCE_LINES.append(
        "PASS 02 channel authentication: {valid tx, bogus tx} x {registered, "
        "unregistered} resolves to ok/invalid/invalid/invalid"
    )


def _edited_blueprints(dna: DnaDocument):
    yield dataclasses.replace(dna, app_name=dna.app_name + "!")
    yield dataclasses.replace(dna, description=dna.description + " v2")
    yield dataclasses.replace(dna, dht_redundancy=dna.dht_redundancy + 1)
    yield dataclasses.replace(dna, validation_function_ids=("other-fn",))
    yield dataclasses.replace(dna, params=dna.params + (("extra", "1"),))
    first, rest = dna.entry_type_defs[0], dna.entry_type_defs[1:]
    yield dataclasses.replace(
        dna,
        entry_type_defs=(dataclasses.replace(first, type_name=first.type_name + "2"),) + rest,
    )
    yield dataclasses.replace(
        dna,
        entry_type_defs=(dataclasses.replace(first, rule_ids=first.rule_ids + ("required:zz",)),)
        + rest,
    )
    yield dataclasses.replace(
        dna,
        entry_type_defs=(dataclasses.replace(first, validation_cost_class="heavy"),) + rest,
    )
    yield dataclasses.replace(
        dna,
        entry_type_defs=(
            dataclasses.replace(first, payload_schema=first.payload_schema + (("zz", "int"),)),
        )
        + rest,
    )


def test_03_blueprint_edits_rekey_the_network_and_forks_stay_apart():
    base = healthcare_dna()
    base_id = base.network_id
    ids = {base_id}
    edits = 0
    for variant in _edited_blueprints(base):
        vid = variant.network_id
        assert vid != base_id
        ids.add(vid)
        edits += 1
    assert len(ids) == edits + 1  # all edits distinct from base and each other

    # two live networks from a one-field fork, 10 agents each, same market
    market = Marketplace()
    fork = dataclasses.replace(base, description=base.description + " fork")
    net_a = Network(base, market)
    net_b = Network(fork, market)
    assert net_a.network_id != net_b.network_id
    for i in range(10):
        net_a.join(make_agent(i, agent_seed(3301, i), base))
        net_b.join(make_agent(i, agent_seed(3302, i), fork))

    rng = random.Random(33)
    for tick in (1, 2, 3):
        for net in (net_a, net_b):
            net.begin_tick(tick)
            for ag in net.agents:
                publish_vitals(
                    ag,
                    VitalsReading("pulse", 70 + ag.index, tick),
                    tick,
                    network=net,
                    to_dht=True,
                )
                rec = ag.append("report", {"text": f"note {tick}"}, tick)
                net.publish(ag, rec)
            net.gossip_round(rng)

    a_members = {a.public_key for a in net_a.agents}
    b_members = {b.public_key for b in net_b.agents}
    assert not a_members & b_members
    stored = 0
    for net, members in ((net_a, a_members), (net_b, b_members)):
        for ag in net.agents:
            for held in ag.shard.values():
                assert held.header.author in members
                stored += 1
    assert stored > 0

    stranger = net_b.agents[0]
    with pytest.raises(CrossNetworkError):
        net_a.join(stranger)
    with pytest.raises(CrossNetworkError):
        net_a.publish(stranger, stranger.chain.records[-1])
    ACCEPTANCE_LINES.append(
        f"PASS 03 fork isolation: {edits} one-field blueprint edits each rekey "
        f"the network; {stored} stored records, zero held across the fork"
    )


def test_04_double_spend_detection_rate_matches_the_sampling_model():
    # the closed form, recomputed here rather than trusted from the library
    pool, witnesses, audited = 49, 8, 8
    expected = 1.0 - math.comb(pool - witnesses, audited) / math.comb(pool, audited)
    assert abs(expected - 0.7881310595713096) < 1e-15

    t0 = time.monotonic()
    out = run_double_spend_experiment(seed=8191, trials=10_000)
    elapsed = time.monotonic() - t0
    assert out["attempted"] == 10_000
    assert out["expected_rate"] == pytest.approx(expected, abs=1e-15)
    assert abs(out["rate"] - expected) <= 0.03
    assert elapsed < 60.0

    certain = run_double_spend_experiment(seed=4242, trials=200, witnesses=49)
    assert certain["rate"] == 1.0
    ACCEPTANCE_LINES.append(
        f"PASS 04 double-spend detection: rate {out['rate']:.4f} vs model "
        f"{expected:.4f} over 10000 trials ({elapsed:.1f}s); full witness "
        f"coverage detects 100%"
    )


def test_05_fuel_is_conserved_in_every_scenario():
    assert len(SCENARIOS) == 8
    for path in SCENARIOS:
        result = run_scenario(load_scenario(path))
        assert result.metrics.conservation_violations == 0, path
        seeded = 0
        for ag in result.network.agents:
            for rec in ag.chain.records:
                if rec.header.entry_type == SEED_GRANT_TYPE:
                    seeded += decode_fields(rec.payload)["amount"]
        total = sum(balance(a.chain) for a in result.network.agents)
        assert total == seeded, path
    ACCEPTANCE_LINES.append(
        f"PASS 05 fuel conservation: {len(SCENARIOS)} scenarios, balances sum "
        f"to the seeded fuel at every tick, zero violations"
    )


def test_06_storage_and_messaging_scale_as_modeled():
    t0 = time.monotonic()
    sizes = (8, 16, 32, 64, 128, 256)
    m, r = 100, 4
    rows = compare_sweep(sizes=sizes, m=m, r=r)
    assert [row["n"] for row in rows] == list(sizes)
    last_ratio = 0.0
    for row in rows:
        n = row["n"]
        assert row["hc_stores"] == m * (1 + r) + 2 * n
        assert row["bc_stores"] == n * m
        ratio = row["bc_msgs"] / row["hc_msgs"]
        assert ratio > last_ratio
        last_ratio = ratio
    model_bc, model_hc = eval_model(100, 1)
    assert model_bc == 10000.0
    assert model_hc == math.log2(100) + 1
    assert model_hc == 7.643856189774724
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    ACCEPTANCE_LINES.append(
        f"PASS 06 scaling: counted stores match the closed forms up to n=256, "
        f"message advantage strictly grows, model agrees at n=100 ({elapsed:.1f}s)"
    )


def test_07_capability_gated_access_is_exact():
    result = run_scenario(
        load_scenario(os.path.join(SCENARIO_DIR, "patient_doctor.json"))
    )
    outcomes = [e["outcome"] for e in result.access_log]
    assert outcomes.count("granted") == 1
    assert "denied:revoked" in outcomes

    forged = run_forged_token_experiment(seed=90210, probes=100_000)
    assert forged["attempted"] == 100_000
    assert forged["detected"] == 100_000
    assert forged["missed"] == 0
    ACCEPTANCE_LINES.append(
        "PASS 07 capability access: the one granted request succeeds, 100000 "
        "forged tokens all refused, revoked token denied as revoked"
    )


def test_08_repeat_offenders_are_shunned_network_wide():
    # three violations halve 0.5 down to 0.0625, under the 0.1 cutoff
    matrix = ExperienceMatrix()
    offender_key = b"\x07" * 32
    for expected in (0.25, 0.125, 0.0625):
        update_experience(matrix, offender_key, ObservationKind.INVALID_DATA)
        assert matrix.row(offender_key).confidence == expected
    assert is_blacklisted(matrix, offender_key)

    result = run_scenario(
        load_scenario(os.path.join(SCENARIO_DIR, "tamper_blacklist.json"))
    )
    offender = result.network.agents[5]
    peers = [a for a in result.network.agents if a is not offender]
    assert len(peers) == 11
    for peer in peers:
        assert is_blacklisted(peer.experience, offender.public_key)

    # anything it publishes afterwards goes nowhere
    fresh = offender.append("report", {"text": "please trust me"}, 999)
    receipts = result.network.publish(offender, fresh)
    assert receipts == []
    key = record_key(fresh)
    assert all(not peer.holds(key) for peer in peers)
    ACCEPTANCE_LINES.append(
        "PASS 08 reputation exclusion: 3 strikes drop confidence to 0.0625 "
        "(< 0.1), all 11 peers shun the offender and refuse its publishes"
    )


def test_09_same_seed_reproduces_any_scenario_byte_for_byte():
    for path in SCENARIOS:
        first = run_scenario(load_scenario(path))
        second = run_scenario(load_scenario(path))
        assert first.metrics_log.to_csv() == second.metrics_log.to_csv(), path
        assert export_all_chains(first) == export_all_chains(second), path

    # and the seed is actually load-bearing
    probe = {
        "name": "determinism-probe",
        "seed": 404,
        "n_agents": 8,
        "ticks": 6,
        "churn": 0.3,
        "seed_fuel": 20,
        "script": [
            {"tick": 1, "op": "vitals", "patient": 0, "metric": "pulse", "value": 70, "share": True},
            {"tick": 2, "op": "report", "agent": 1, "text": "rounds done"},
        ],
    }
    base = run_scenario(config_from_dict(probe))
    reseeded = run_scenario(config_from_dict({**probe, "seed": 405}))
    assert base.metrics_log.to_csv() != reseeded.metrics_log.to_csv()
    ACCEPTANCE_LINES.append(
        f"PASS 09 determinism: {len(SCENARIOS)} scenarios re-run to identical "
        f"metrics and chain exports; changing the seed changes both"
    )


def test_10_whole_suite_fits_the_time_budget():
    # this file is collected last, so the suite is nearly done here; the
    # conftest session hook re-checks the final total and fails the run
    # if the budget is blown after this point
    elapsed = session_elapsed()
    assert elapsed < SUITE_BUDGET_SECONDS
    ACCEPTANCE_LINES.append(
        f"PASS 10 time budget: {elapsed:.1f}s elapsed of the "
        f"{SUITE_BUDGET_SECONDS:.0f}s allowance when checked"
    )
