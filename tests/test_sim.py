"""Scenario engine: config handling, determinism, the shipped scenario
corpus, and the standalone attack experiments.

The per-scenario numbers pinned here are regression anchors: they were
observed on the first verified-clean runs and must stay byte-stable because
every source of randomness derives from the scenario seed.
"""

import ast
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from agentchain.reputation import is_blacklisted
from agentchain.sim import (
    AttackKind,
    ConfigError,
    ScenarioAssertion,
    ScenarioConfig,
    Simulation,
    audit_access_log,
    config_from_dict,
    expected_double_spend_rate,
    export_all_chains,
    load_scenario,
    run_double_spend_experiment,
    run_experiment,
    run_scenario,
    run_tamper_experiment,
)

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


def _cfg(**kw) -> ScenarioConfig:
    base = dict(name="unit", seed=5, n_agents=8, ticks=4)
    base.update(kw)
    return ScenarioConfig(**base)


# --- configuration -----------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        dict(n_agents=3, redundancy=4),
        dict(ticks=0),
        dict(churn=1.0),
        dict(churn=-0.1),
        dict(fanout=0),
        dict(redundancy=0),
        dict(n_agents=0),
    ],
)
def test_config_rejects_impossible_shapes(bad):
    with pytest.raises(ConfigError):
        _cfg(**bad)


def test_member_counts_stop_at_the_u32_index_range():
    """Each member's key seed holds its index as a u32, so a scenario has
    at most 2**32 members; the check refuses more before any is built."""
    assert ScenarioConfig(n_agents=2**32).n_agents == 2**32
    with pytest.raises(ConfigError, match=r"^n_agents must be an integer in \[1, 4294967296\]$"):
        ScenarioConfig(n_agents=2**32 + 1)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"name": "x", "banana": 1})
    assert "banana" in str(err.value)


def test_load_scenario_errors(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(str(broken))
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_scenario(str(listy))
    with pytest.raises(FileNotFoundError):
        load_scenario(str(tmp_path / "absent.json"))


def test_script_ops_are_checked():
    with pytest.raises(ConfigError):
        Simulation(_cfg(script=({"op": "report", "agent": 0},)))  # no tick
    with pytest.raises(ConfigError):
        Simulation(_cfg(script=({"tick": 1, "op": "levitate"},))).run()
    # malformed ops are refused when the script loads, before any tick runs
    for op, problem in (
        ({"tick": 3, "op": "transfer", "sender": 0, "amount": 1}, "missing field(s) receiver"),
        ({"tick": 3, "op": "attack", "victim": 1}, "missing field 'kind'"),
        ({"tick": 3, "op": "attack", "kind": "phishing"}, "unknown script op 'attack:phishing'"),
        ({"tick": 3, "op": "attack", "kind": "dos_flood", "agent": 2}, "missing field(s) victim"),
        ({"tick": 3, "op": ["report"], "agent": 0}, "unknown script op ['report']"),
        ({"tick": 3, "op": "vitals", "patient": 0, "metric": ["pulse"]}, "unknown metric ['pulse']"),
        ({"tick": 3, "op": "vitals", "patient": 0, "metric": "oxygen", "value": 101},
         "oxygen value 101 outside [50, 100]"),
        ({"tick": 3, "op": "vitals", "patient": 0, "value": 72.5}, "pulse value 72.5 outside [20, 250]"),
        ({"tick": 3, "op": "report", "agent": 8}, "agent must be an agent index in [0, 8)"),
        ({"tick": 3, "op": "grant", "patient": 0, "grantee": False},
         "grantee must be an agent index in [0, 8)"),
        ({"tick": 3, "op": "attack", "kind": "mitm_mutation", "victim": "1"},
         "victim must be an agent index in [0, 8)"),
        ({"tick": 3, "op": "transfer", "sender": 0, "receiver": 1.0, "amount": 1},
         "receiver must be an agent index in [0, 8)"),
        ({"tick": 3, "op": "report", "agent": 0, "txt": "ok"}, "unknown field(s) txt"),
        ({"tick": 3, "op": "presence", "agent": 0, "online": 1}, "online must be a boolean"),
        ({"tick": 3, "op": "attack", "kind": "dna_fork", "agent": 3},
         "agent must be an integer in [8, 4294957295]"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"tick 3 op {op['op']}: {problem}")):
            Simulation(_cfg(script=(op,)))
    for tick in ("1", 1.0, True, 4, -1):
        with pytest.raises(ConfigError, match="tick must be an integer"):
            Simulation(_cfg(script=({"tick": tick, "op": "report", "agent": 0},)))
    with pytest.raises(ConfigError):
        Simulation(_cfg(script=({"tick": 1, "op": "report", "agent": 99},))).run()
    # dna_fork's optional agent names a rogue outside the population
    rogue = ({"tick": 1, "op": "attack", "kind": "dna_fork", "agent": 8},)
    assert Simulation(_cfg(script=rogue)).run().metrics.attacks_detected == 1
    # a double spend needs two other agents online when its tick runs
    lonely = tuple(
        {"tick": 1, "op": "presence", "agent": i, "online": False} for i in range(2, 8)
    ) + ({"tick": 1, "op": "attack", "kind": "double_spend", "agent": 0},)
    with pytest.raises(ConfigError, match="two other online agents"):
        Simulation(_cfg(seed_fuel=5, script=lonely)).run()
    unfilled = ({"tick": 1, "op": "access", "patient": 0, "requester": 1, "token": "$nope"},)
    with pytest.raises(ConfigError):
        Simulation(_cfg(script=unfilled)).run()


def test_a_checked_config_rebuilds_to_itself():
    """The command line's --seed rebuilds a loaded config with
    dataclasses.replace, which checks its filled-in script again."""
    from perfbench import workloads  # importable from the repository root only

    docs = [json.loads(path.read_text()) for path in SCENARIO_FILES]
    docs += [workloads.ward_churn_doc(1), workloads.fuel_market_doc(1)]
    for doc in docs:
        config = config_from_dict(doc)
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert reseeded != config
        assert dataclasses.replace(reseeded, seed=config.seed) == config


def default_rereads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, handler) for each op.get call, and each bool() or int() of an
    op field, in a script op or attack handler: the config holds every
    field already checked and defaulted, so a handler reads op[field]."""
    found = []
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.FunctionDef) and handler.name.startswith(("_op_", "_attack_"))):
            continue
        for node in ast.walk(handler):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" and (
                isinstance(func.value, ast.Name) and func.value.id == "op"
            ):
                found.append((node.lineno, handler.name))
            elif isinstance(func, ast.Name) and func.id in ("bool", "int") and any(
                isinstance(name, ast.Name) and name.id == "op"
                for arg in node.args
                for name in ast.walk(arg)
            ):
                found.append((node.lineno, handler.name))
    return sorted(found)


def test_script_handlers_read_op_fields_by_subscript():
    sim_source = Path(__file__).parent.parent / "src" / "agentchain" / "sim.py"
    assert default_rereads(ast.parse(sim_source.read_text())) == []
    # the detector itself fires on each kind of reread, and only in handlers
    probe = ast.parse(
        "def _op_x(self, tick, op):\n    a = op.get('a', 1)\n    b = bool(op['b'])\n"
        "    c = op['c']\n    d = self.rng.get()\n"
        "def _attack_y(self, tick, op):\n    return int(op['n'])\n"
        "def helper(op):\n    return op.get('a')\n"
    )
    assert default_rereads(probe) == [(2, "_op_x"), (3, "_op_x"), (7, "_attack_y")]


def test_expectation_mismatch_fails_the_run():
    script = (
        {
            "tick": 1,
            "op": "access",
            "patient": 0,
            "requester": 1,
            "token": "00" * 32,
            "expect": "granted",
        },
    )
    with pytest.raises(ScenarioAssertion) as err:
        Simulation(_cfg(script=script)).run()
    assert "denied:unknown_token" in str(err.value)


def _same_tick_script(first: dict, second: dict) -> tuple:
    grant = {"tick": 0, "op": "grant", "patient": 0, "grantee": 1,
             "entry_type": "report", "save_as": "cap"}
    return (grant, first, second)


_ACCESS = {"tick": 1, "op": "access", "patient": 0, "requester": 1, "token": "$cap"}
_REVOKE = {"tick": 1, "op": "revoke", "patient": 0, "token": "$cap"}


def test_an_access_before_a_revoke_in_the_same_tick_passes_the_audit():
    # both ops share a timestamp, so only the chain length logged at serve
    # time tells that the revocation came after the access
    script = _same_tick_script(dict(_ACCESS, expect="granted"), _REVOKE)
    result = Simulation(_cfg(n_agents=4, script=script)).run()
    [entry] = result.access_log
    assert entry["outcome"] == "granted"
    assert entry["chain_length"] == len(result.network.agents[0].chain) - 1
    assert audit_access_log(result) == []


def test_a_revoke_before_an_access_in_the_same_tick_denies_it():
    script = _same_tick_script(_REVOKE, dict(_ACCESS, expect="denied:revoked"))
    result = Simulation(_cfg(n_agents=4, script=script)).run()
    assert [e["outcome"] for e in result.access_log] == ["denied:revoked"]


def test_the_audit_flags_a_patient_serve_after_the_revoke():
    script = _same_tick_script(dict(_ACCESS, expect="granted"), _REVOKE)
    result = Simulation(_cfg(n_agents=4, script=script)).run()
    result.access_log[0]["chain_length"] += 1  # as if served after the revoke
    assert audit_access_log(result) == ["tick 1: patient served a revoked grant"]
    result.access_log[0]["chain_length"] = 2  # as if served before the grant
    assert audit_access_log(result) == ["tick 1: granted access with no grant on chain"]


# --- the engine itself ---------------------------------------------------------

def test_a_holder_served_unauthorized_access_is_logged_by_its_holder():
    script = (
        {"tick": 1, "op": "grant", "patient": 0, "grantee": 1, "save_as": "cap"},
        {"tick": 2, "op": "presence", "agent": 0, "online": False},
        {"tick": 3, "op": "attack", "kind": "unauthorized_access", "agent": 2, "patient": 0,
         "token": "$cap"},
    )
    result = Simulation(_cfg(ticks=5, holder_serve=True, script=script)).run()
    [entry] = result.access_log
    assert entry["outcome"] == "denied:wrong_grantee"
    assert re.fullmatch(r"holder:\d+", entry["served_by"])
    assert result.metrics.attacks_detected == 1


def test_empty_script_runs_clean():
    result = Simulation(_cfg(ticks=6)).run()
    assert len(result.metrics_log.rows) == 6
    assert result.access_log == []
    summary = result.summary()
    assert summary["conservation_intact"]
    assert summary["attacks"] == {"attempted": 0, "detected": 0, "missed": 0}
    assert audit_access_log(result) == []


def test_same_seed_same_bytes_different_seed_different_bytes():
    cfg = _cfg(
        ticks=8,
        seed_fuel=10,
        script=(
            {"tick": 1, "op": "vitals", "patient": 0, "share": True},
            {"tick": 2, "op": "transfer", "sender": 0, "receiver": 3, "amount": 4},
            {"tick": 3, "op": "report", "agent": 2},
        ),
    )
    a = Simulation(cfg).run()
    b = Simulation(cfg).run()
    assert a.metrics_log.to_csv() == b.metrics_log.to_csv()
    assert export_all_chains(a) == export_all_chains(b)
    c = Simulation(dataclasses.replace(cfg, seed=cfg.seed + 1)).run()
    assert export_all_chains(a) != export_all_chains(c)


# --- shipped scenario corpus ------------------------------------------------------

def test_scenario_corpus_is_present():
    names = {p.stem for p in SCENARIO_FILES}
    assert names == {
        "churn_availability",
        "dos_flood",
        "fork_probe",
        "fuel_roundtrip",
        "holder_serve",
        "mitm_wire",
        "patient_doctor",
        "tamper_blacklist",
    }


# observed on the first clean runs; deterministic thereafter. digest pins
# the bytes of a run (see _artifact_digest), so a refactor that claims to
# keep behaviour can be checked against the commit before it.
CORPUS_ANCHORS = {
    "churn_availability": dict(
        attempted=0, granted=0, denied=0, availability=(118, 118),
        digest="0c4540402ffff03ad98af9307b95b0d9234fd4efaf831e7dff2abd863192f0f8",
    ),
    "dos_flood": dict(
        attempted=4, blacklist_events=9,
        digest="f698391a47a31027d4cea01d0dbe24d9fbb367c8f2c5ca42b0e947af2cfe28dd",
    ),
    "fork_probe": dict(
        attempted=2,
        digest="aca59ad4d6f719fe3a86091e8686abc83a86c9424111115f3bf7fa8cf4aacf48",
    ),
    "fuel_roundtrip": dict(
        attempted=2,
        digest="dfb2b2ef82063299f48ccf1e318fb85efacc23996f7de56539b137c2fdcdb810",
    ),
    "holder_serve": dict(
        attempted=0, granted=2, denied=1,
        digest="2bf67ceaed1069a888fb382ee33460c58ccb28445d79d556eec5db751f836044",
    ),
    "mitm_wire": dict(
        attempted=3,
        digest="c3c5f5cd2a7cd5680ea04d84ed023a3640cfede5396fe0e6511d7e775eb524ba",
    ),
    "patient_doctor": dict(
        attempted=301, granted=1, denied=4,
        digest="b2e42f693f39d052010065231e7e49f19d018bab0134db735d0cd95c2b2c9bf0",
    ),
    "tamper_blacklist": dict(
        attempted=3, blacklist_events=11,
        digest="82935823ba26c865ec04cb27d46b999bdace6315a90b5e7b028d40869b018ff6",
    ),
}


def _artifact_digest(result) -> str:
    """SHA-256 over metrics.csv, then each chain export in name order."""
    h = hashlib.sha256(result.metrics_log.to_csv().encode())
    for name, text in sorted(export_all_chains(result).items()):
        h.update(name.encode())
        h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_scenario_runs_clean(path):
    result = run_scenario(load_scenario(str(path)))
    m = result.metrics
    assert m.conservation_violations == 0
    assert m.attacks_missed == 0
    assert m.attacks_detected == m.attacks_attempted
    assert result.availability_hits == result.availability_slots
    assert audit_access_log(result) == []

    anchor = CORPUS_ANCHORS[path.stem]
    assert m.attacks_attempted == anchor["attempted"]
    summary = result.summary()
    if "granted" in anchor:
        assert summary["access"]["granted"] == anchor["granted"]
        assert summary["access"]["denied"] == anchor["denied"]
    if "blacklist_events" in anchor:
        assert m.blacklist_events == anchor["blacklist_events"]
    if "availability" in anchor:
        assert (result.availability_hits, result.availability_slots) == anchor["availability"]
    assert _artifact_digest(result) == anchor["digest"]


def test_tampering_agent_ends_up_shunned_everywhere():
    result = run_scenario(load_scenario(str(SCENARIO_DIR / "tamper_blacklist.json")))
    offender = result.network.agents[5]
    peers = [a for a in result.network.agents if a is not offender]
    assert all(is_blacklisted(a.experience, offender.public_key) for a in peers)
    # one transition per honest peer, counted exactly once
    assert result.metrics.blacklist_events == len(peers)


# --- standalone experiments ---------------------------------------------------

def test_expected_double_spend_rate_oracle():
    # frozen from an independent hypergeometric computation
    assert expected_double_spend_rate(50, 8, 8) == 0.7881310595713096
    assert expected_double_spend_rate(50, 49, 8) == 1.0
    assert expected_double_spend_rate(50, 8, 0) == 0.0
    assert expected_double_spend_rate(10, 9, 1) == 1.0
    more_witnesses = [expected_double_spend_rate(30, g, 6) for g in (2, 6, 12, 20)]
    assert more_witnesses == sorted(more_witnesses)
    more_samples = [expected_double_spend_rate(30, 6, k) for k in (1, 4, 8, 16)]
    assert more_samples == sorted(more_samples)


def test_double_spend_experiment_accounting():
    out = run_double_spend_experiment(seed=3, trials=60, n_agents=20, witnesses=6, audit_samples=6)
    assert out["attempted"] == 60
    assert out["detected"] + out["missed"] == 60
    assert out["expected_rate"] == expected_double_spend_rate(20, 6, 6)
    # loose envelope; the acceptance suite holds the tight one
    assert abs(out["rate"] - out["expected_rate"]) < 0.2
    # exact counts, recorded before the scripted attack and this experiment
    # shared one double-spend routine
    for seed, trials, n_agents, witnesses, audit_samples, detected in (
        (3, 60, 20, 6, 6, 54),
        (2, 40, 15, 5, 5, 38),
        (5, 300, 3, 1, 1, 164),
    ):
        out = run_double_spend_experiment(seed, trials, n_agents, witnesses, audit_samples)
        assert (out["attempted"], out["detected"]) == (trials, detected)


def test_double_spend_certain_with_full_witness_coverage():
    out = run_double_spend_experiment(seed=3, trials=25, n_agents=12, witnesses=11, audit_samples=2)
    assert out["rate"] == 1.0


def test_tamper_experiment_catches_every_edit():
    out = run_tamper_experiment(seed=9, rounds=1)
    assert out["attempted"] > 0
    assert out["missed"] == 0
    assert out["detected"] == out["attempted"]


def test_forged_token_experiment_never_leaks():
    out = run_experiment(AttackKind.FORGED_TOKEN, 9, 500)
    assert out == {"attempted": 500, "detected": 500, "missed": 0}


@pytest.mark.parametrize(
    "kind",
    [AttackKind.MITM_MUTATION, AttackKind.DNA_FORK, AttackKind.DOS_FLOOD, AttackKind.UNAUTHORIZED_ACCESS],
)
def test_canned_attack_experiments(kind):
    out = run_experiment(kind, seed=17, trials=2)
    assert out["attempted"] >= 2
    assert out["missed"] == 0
    assert out["detected"] == out["attempted"]
