"""Command line behavior: artifacts, determinism, and the exit-code contract
(0 success, 1 failed check, 2 unusable input)."""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain.bench import SWEEP_HEADER
from agentchain.chain import Record, export_records, parse_chain_text
from agentchain.cli import SEED_ENV, main
from agentchain.metrics import CSV_HEADER


def _scenario(tmp_path, **overrides) -> str:
    doc = {
        "name": "cli-test",
        "seed": 9,
        "n_agents": 8,
        "ticks": 3,
        "script": [{"tick": 1, "op": "vitals", "patient": 0, "share": True}],
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _read_artifacts(out: Path) -> dict[str, str]:
    files = {"metrics.csv": (out / "metrics.csv").read_text()}
    for chain_file in sorted((out / "chains").iterdir()):
        files[chain_file.name] = chain_file.read_text()
    return files


# --- run -----------------------------------------------------------------------

def test_run_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _scenario(tmp_path), "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == CSV_HEADER
    assert len(metrics) == 1 + 3  # header plus one row per tick
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "cli-test"
    assert summary["conservation_intact"] is True
    chains = sorted(p.name for p in (out / "chains").iterdir())
    assert chains == [f"agent_{i:03d}.chain" for i in range(8)]
    stdout = capsys.readouterr().out
    assert "cli-test: 8 agents, 3 ticks" in stdout


def test_run_artifacts_are_reproducible(tmp_path):
    scenario = _scenario(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", scenario, "--out", str(a)]) == 0
    assert main(["run", scenario, "--out", str(b)]) == 0
    assert _read_artifacts(a) == _read_artifacts(b)
    assert main(["run", scenario, "--out", str(c), "--seed", "777"]) == 0
    assert _read_artifacts(a) != _read_artifacts(c)


def test_env_seed_matches_flag_seed(tmp_path, monkeypatch):
    scenario = _scenario(tmp_path)
    flagged, via_env = tmp_path / "flagged", tmp_path / "env"
    assert main(["run", scenario, "--out", str(flagged), "--seed", "321"]) == 0
    monkeypatch.setenv(SEED_ENV, "321")
    assert main(["run", scenario, "--out", str(via_env)]) == 0
    assert _read_artifacts(flagged) == _read_artifacts(via_env)


def test_flag_seed_beats_env_seed(tmp_path, monkeypatch):
    scenario = _scenario(tmp_path)
    flagged, mixed = tmp_path / "flagged", tmp_path / "mixed"
    monkeypatch.setenv(SEED_ENV, "111")
    assert main(["run", scenario, "--out", str(mixed), "--seed", "321"]) == 0
    monkeypatch.delenv(SEED_ENV)
    assert main(["run", scenario, "--out", str(flagged), "--seed", "321"]) == 0
    assert _read_artifacts(flagged) == _read_artifacts(mixed)


def test_unusable_inputs_exit_2(tmp_path, monkeypatch, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    assert main(["run", str(garbled)]) == 2
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'{"name": "\xff"}')
    assert main(["run", str(undecodable)]) == 2
    impossible = _scenario(tmp_path, n_agents=3)  # cannot host 4 holders
    assert main(["run", impossible, "--out", str(tmp_path / "x")]) == 2
    for bad_op, problem in (
        ({"tick": 1, "op": "vitals", "metric": "pulse"}, "tick 1 op vitals: missing field(s) patient"),
        ({"tick": 1, "op": "vitals", "patient": 0, "metric": "mood"},
         "tick 1 op vitals: unknown metric 'mood'"),
        ({"tick": 1, "op": "vitals", "patient": 0, "value": 9999},
         "tick 1 op vitals: pulse value 9999 outside [20, 250]"),
        ({"tick": "x", "op": "report", "agent": 0}, "tick x op report: tick must be an integer"),
        ({"tick": 1.5, "op": "report", "agent": 0}, "tick 1.5 op report: tick must be an integer"),
        ({"tick": 1, "op": "report", "agent": "zero"},
         "tick 1 op report: agent must be an agent index in [0, 8)"),
        ({"tick": 1, "op": "report", "agent": -1},
         "tick 1 op report: agent must be an agent index in [0, 8)"),
        ({"tick": 1, "op": "report", "agent": True},
         "tick 1 op report: agent must be an agent index in [0, 8)"),
        # the balance depends on the run, so this one is refused when its tick runs
        ({"tick": 1, "op": "transfer", "sender": 0, "receiver": 1, "amount": 5},
         "tick 1 op transfer: balance 0 cannot cover 5"),
        ({"tick": 1, "op": "attack", "kind": "double_spend", "agent": 0},
         "tick 1 op attack: balance 0 cannot cover 1"),
        ({"tick": 1, "op": "publish_seq", "agent": 0, "seq": 99},
         "tick 1 op publish_seq: seq 99 outside the chain [0, 2)"),
        ({"tick": 1, "op": "seed_fuel", "agent": 0, "amount": 0},
         "tick 1 op seed_fuel: amount must be an integer in [1, 1000000000000]"),
        ({"tick": 1, "op": "access", "patient": 0, "requester": 1, "token": "zz"},
         "tick 1 op access: token 'zz' is neither a $slot nor hex"),
        ({"tick": 1, "op": "transfer", "sender": 0, "receiver": 1, "amount": "x"},
         "tick 1 op transfer: amount must be an integer in [1, 1000000000000]"),
        ({"tick": 1, "op": "transfer", "sender": 0, "receiver": 1, "amount": 1.5},
         "tick 1 op transfer: amount must be an integer in [1, 1000000000000]"),
        ({"tick": 1, "op": "attack", "kind": "double_spend", "agent": 0, "amount": "x"},
         "tick 1 op attack: amount must be an integer in [1, 1000000000000]"),
        ({"tick": 1, "op": "attack", "kind": "double_spend", "agent": 0, "amount": 1.5},
         "tick 1 op attack: amount must be an integer in [1, 1000000000000]"),
        # refused when their tick runs: what the chain holds depends on the run
        ({"tick": 1, "op": "revoke", "patient": 0, "token": "00" * 32},
         "tick 1 op revoke: token does not resolve to a grant on this chain"),
        ({"tick": 1, "op": "attack", "kind": "tamper_own_history", "agent": 0, "seq": 99},
         "tick 1 op attack: seq 99 outside the chain [0, 2)"),
        # the rest are refused when the script loads
        ({"tick": 1, "op": "attack", "kind": "dos_flood", "agent": 1, "victim": 0, "count": "x"},
         "tick 1 op attack: count must be an integer >= 0"),
        ({"tick": 1, "op": "attack", "kind": "dna_fork", "agent": "x"},
         "tick 1 op attack: agent must be an integer in [8, 4294957295]"),
        ({"tick": 1, "op": "attack", "kind": "forged_token", "agent": 1, "patient": 0, "probes": -3},
         "tick 1 op attack: probes must be an integer >= 0"),
        ({"tick": 1, "op": "grant", "patient": 0, "grantee": 1, "publish": "no"},
         "tick 1 op grant: publish must be a boolean"),
        ({"tick": 1, "op": "grant", "patient": 0, "grantee": 1, "expires_at": "x"},
         "tick 1 op grant: expires_at must be an integer in [0, 9223372036854775807]"),
        ({"tick": 1, "op": "grant", "patient": 0, "grantee": 1, "entry_type": 5},
         "tick 1 op grant: entry_type must be a UTF-8 string"),
        ({"tick": 1, "op": "grant", "patient": 0, "grantee": 1, "save_as": 5},
         "tick 1 op grant: save_as must be a UTF-8 string"),
        ({"tick": 1, "op": "report", "agent": 0, "text": 5}, "tick 1 op report: text must be a UTF-8 string"),
        ({"tick": 1, "op": "report", "agent": 0, "text": "\udc00"},
         "tick 1 op report: text must be a UTF-8 string"),
        ({"tick": 1, "op": "presence", "agent": 0, "online": "no"},
         "tick 1 op presence: online must be a boolean"),
        ({"tick": 99, "op": "report", "agent": 0}, "tick 99 op report: tick must be an integer in [0, 3)"),
        ({"tick": -1, "op": "report", "agent": 0}, "tick -1 op report: tick must be an integer in [0, 3)"),
        ({"tick": 1, "op": "access", "patient": 0, "requester": 1, "token": "$x", "expct": "granted"},
         "tick 1 op access: unknown field(s) expct"),
        ({"tick": 1, "op": "access", "patient": 0, "requester": 1, "token": "00", "expect": "maybe"},
         "tick 1 op access: unknown expect 'maybe'"),
    ):
        capsys.readouterr()
        malformed = _scenario(tmp_path, script=[bad_op])
        assert main(["run", malformed, "--out", str(tmp_path / "z")]) == 2
        assert problem in capsys.readouterr().err
    for overrides, problem in (
        ({"n_agents": "x"}, "n_agents must be an integer >= 1"),
        ({"n_agents": 2.5}, "n_agents must be an integer >= 1"),
        ({"churn": "x"}, "churn must be a number in [0, 1)"),
        ({"fanout": "x"}, "fanout must be an integer >= 1"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"churn_start_tick": "x"}, "churn_start_tick must be an integer >= 0"),
        ({"rate_limit": None}, "rate_limit must be an integer >= 1"),
        ({"script": [1]}, "script op needs tick and op: 1"),
        ({"script": {}}, "script must be a list of ops"),
        ({"backup_factor": -1}, "backup_factor must be a number >= 1"),
        ({"backup_factor": math.inf}, "backup_factor must be a number >= 1"),
        ({"witnesses": "x"}, "witnesses must be an integer >= 1"),
        ({"blacklist_threshold": "x"}, "blacklist_threshold must be a number in [0, 1]"),
        ({"seed_fuel": -5}, "seed_fuel must be an integer in [0, 1000000000000]"),
        ({"audit_samples": -1}, "audit_samples must be an integer >= 0"),
        ({"holder_serve": "yes"}, "holder_serve must be a boolean"),
        ({"ticks": True}, "ticks must be an integer >= 1"),
        ({"name": 5}, "name must be a UTF-8 string"),
        ({"name": "x\ud800"}, "name must be a UTF-8 string"),
        ({"n_agents": 3}, "n_agents 3 is below redundancy 4"),
    ):
        capsys.readouterr()
        assert main(["run", _scenario(tmp_path, **overrides), "--out", str(tmp_path / "k")]) == 2
        assert f"error: {problem}" in capsys.readouterr().err
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    assert main(["run", _scenario(tmp_path), "--out", str(tmp_path / "y")]) == 2


def test_failed_expectation_exits_1(tmp_path):
    scenario = _scenario(
        tmp_path,
        script=[
            {
                "tick": 1,
                "op": "access",
                "patient": 0,
                "requester": 1,
                "token": "00" * 32,
                "expect": "granted",
            }
        ],
    )
    assert main(["run", scenario, "--out", str(tmp_path / "out")]) == 1


def test_transfer_refused_by_a_shunning_receiver_is_a_protocol_outcome(tmp_path, capsys):
    """Agent 0 tampers with its history until agent 1 blacklists it. Its
    transfer to agent 1 is then refused: one rejection and no transfer. The
    scripted expectation fails (exit 1), unless the script expects the
    refusal; a transfer over the balance is still bad input (exit 2)."""
    tampering = [
        {"tick": t, "op": "attack", "kind": "tamper_own_history", "agent": 0} for t in (0, 1, 2)
    ]
    transfer = {"tick": 6, "op": "transfer", "sender": 0, "receiver": 1, "amount": 5}

    def run(script: list[dict], out: str) -> int:
        scenario = _scenario(tmp_path, seed=3, n_agents=5, ticks=8, seed_fuel=100, script=script)
        return main(["run", scenario, "--out", str(tmp_path / out)])

    def last_row(out: str) -> dict[str, str]:
        header, *rows = (tmp_path / out / "metrics.csv").read_text().split()
        return dict(zip(header.split(","), rows[-1].split(",")))

    capsys.readouterr()
    assert run(tampering + [transfer], "expected") == 1
    assert "tick 6: transfer refused: sender is blacklisted at the receiver" in capsys.readouterr().err
    assert run(tampering, "without") == 0
    assert run(tampering + [{**transfer, "expect_ok": False}], "refused") == 0
    without, refused = last_row("without"), last_row("refused")
    assert int(refused.pop("rejections")) == int(without.pop("rejections")) + 1
    assert refused == without and refused["fuel_txs"] == "0"
    capsys.readouterr()
    assert run(tampering + [{**transfer, "amount": 1000, "expect_ok": False}], "over") == 2
    assert "tick 6 op transfer: balance 101 cannot cover 1000" in capsys.readouterr().err
    # a grant to a grantee the patient shuns is refused the same way
    assert run(tampering + [{"tick": 6, "op": "grant", "patient": 1, "grantee": 0}], "grant") == 1
    assert "tick 6: grant refused: grantee is blacklisted at the grantor" in capsys.readouterr().err


# --- malformed input, generated ----------------------------------------------------
# The keys, fields and ranges below restate the README's scenario contract.
# They are not read from the program's own schema: inputs derived from the
# checker would only test the checker against itself.

_SAMPLES = {
    int: st.integers(),
    float: st.floats(),
    bool: st.booleans(),
    str: st.text(max_size=4),
    list: st.lists(st.integers(), min_size=1, max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    type(None): st.none(),
}


def _wrong(kind: type, outside: st.SearchStrategy, nullable: bool = False) -> st.SearchStrategy:
    """A value of another type than `kind` (an int passes as a float, and
    null as a nullable field), or one from `outside`: of `kind`, but out of
    range."""
    fits = {kind, int} if kind is float else {kind}
    if nullable:
        fits.add(type(None))
    return st.one_of([sample for t, sample in _SAMPLES.items() if t not in fits] + [outside])


def _below(lo: int) -> st.SearchStrategy:
    return st.integers(max_value=lo - 1)


def _above(hi: int) -> st.SearchStrategy:
    return st.integers(min_value=hi + 1)


# the base scenario: 8 agents, 3 ticks, default redundancy 4, and agent 0
# grants agent 1 the token $g at tick 0
_BASE = {"name": "fuzz", "seed": 9, "n_agents": 8, "ticks": 3, "seed_fuel": 10}
_PRELUDE = {"tick": 0, "op": "grant", "patient": 0, "grantee": 1, "save_as": "g"}
_ANY_IN_RANGE = st.nothing()  # every value of the type is in range
# key -> (type, values of that type out of range)
_KEYS = {
    "name": (str, _ANY_IN_RANGE),
    "seed": (int, _ANY_IN_RANGE),
    "n_agents": (int, _below(4)),  # fewer than redundancy
    "ticks": (int, _below(1)),
    "redundancy": (int, _below(1) | _above(8)),  # more than n_agents
    "fanout": (int, _below(1)),
    "witnesses": (int, _below(1)),
    "audit_samples": (int, _below(0)),
    "blacklist_threshold": (float, st.floats(max_value=-1e-9) | st.floats(min_value=1.000001) | _above(1)),
    "rate_limit": (int, _below(1)),
    "backup_factor": (float, st.floats(max_value=0.999) | st.sampled_from([math.inf, math.nan]) | _below(1)),
    "churn": (float, st.floats(max_value=-1e-9) | st.floats(min_value=1) | _above(0)),
    "churn_start_tick": (int, _below(0)),
    "holder_serve": (bool, _ANY_IN_RANGE),
    "seed_fuel": (int, _below(0) | _above(10**12)),
    "script": (list, _SAMPLES[list]),  # a list, but not of ops
}
_AGENT = (int, _below(0) | _above(7), False)
_BOOL = (bool, _ANY_IN_RANGE, False)
_TEXT = (str, _ANY_IN_RANGE, False)
_TOKEN = (str, st.sampled_from(["", "zz", "0", "abc", "0x00", "g"]), False)
_AMOUNT = (int, _below(1) | _above(10**12), False)
_PAYLOAD_INT = (int, _below(0) | _above(2**63 - 1), True)
# op name -> (its required fields, valid, and per field (type, out of range, nullable))
_OPS = {
    "vitals": ({"patient": 0}, {
        "patient": _AGENT, "share": _BOOL, "track": _BOOL,
        "metric": (str, st.sampled_from(["", "mood", "Pulse", "bp"]), False),
        "value": (int, _below(20) | _above(250), False)}),  # the default metric is pulse
    "report": ({"agent": 0}, {"agent": _AGENT, "text": _TEXT, "share": _BOOL, "track": _BOOL}),
    "grant": ({"patient": 0, "grantee": 1}, {
        "patient": _AGENT, "grantee": _AGENT, "entry_type": _TEXT, "seq_lo": _PAYLOAD_INT,
        "seq_hi": _PAYLOAD_INT, "expires_at": _PAYLOAD_INT, "publish": _BOOL,
        "save_as": (str, _ANY_IN_RANGE, True)}),
    "revoke": ({"patient": 0, "token": "$g"}, {"patient": _AGENT, "token": _TOKEN, "publish": _BOOL}),
    "access": ({"patient": 0, "requester": 1, "token": "$g"}, {
        "patient": _AGENT, "requester": _AGENT, "token": _TOKEN,
        "expect": (str, st.sampled_from(["", "maybe", "denied", "denied:", "GRANTED"]), True)}),
    "seed_fuel": ({"agent": 0, "amount": 5}, {"agent": _AGENT, "amount": _AMOUNT}),
    "transfer": ({"sender": 0, "receiver": 1, "amount": 1}, {
        "sender": _AGENT, "receiver": _AGENT, "amount": _AMOUNT, "publish": _BOOL,
        "expect_ok": _BOOL}),
    "presence": ({"agent": 0, "online": False}, {"agent": _AGENT, "online": _BOOL}),
    # agent 0's chain holds 3 records at tick 1, and agent 2's holds 2
    "publish_seq": ({"agent": 0, "seq": 1}, {
        "agent": _AGENT, "seq": (int, _below(0) | _above(2), False), "track": _BOOL}),
    "attack:tamper_own_history": ({"agent": 2}, {
        "agent": _AGENT, "seq": (int, _below(0) | _above(1), True)}),
    "attack:mitm_mutation": ({"victim": 1}, {"victim": _AGENT, "text": _TEXT}),
    "attack:double_spend": ({"agent": 3}, {"agent": _AGENT, "amount": _AMOUNT}),
    "attack:forged_token": ({"agent": 2, "patient": 0}, {
        "agent": _AGENT, "patient": _AGENT, "probes": (int, _below(0), False)}),
    # the rogue's index is outside the population and its key seed index is a u32
    "attack:dna_fork": ({}, {"agent": (int, _below(8) | _above(2**32 - 10_001), False)}),
    "attack:unauthorized_access": ({"agent": 2, "patient": 0, "token": "$g"}, {
        "agent": _AGENT, "patient": _AGENT, "token": _TOKEN}),
    "attack:dos_flood": ({"agent": 3, "victim": 1}, {
        "agent": _AGENT, "victim": _AGENT, "count": (int, _below(0), False)}),
}
# no key or field starts with "x_"
_UNKNOWN = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5).map(lambda name: "x_" + name)


def _op(name: str, tick=1, **fields) -> dict:
    head = {"tick": tick, "op": "attack", "kind": name[7:]} if name.startswith("attack:") else {"tick": tick, "op": name}
    return {**head, **fields}


def _run_refused(path: Path, doc: dict) -> str:
    """Run the document through the command line; it must exit 2 without
    raising, and the error message is returned."""
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--out", str(path.parent / "out")])
    message = err.getvalue()
    assert code == 2, message
    assert message.startswith("error: ")
    return message


def test_every_fuzzed_op_runs_clean_before_it_is_broken(tmp_path):
    for name, (required, _fields) in _OPS.items():
        doc = {**_BASE, "script": [_PRELUDE, _op(name, **required)]}
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0, name


@st.composite
def _broken_key(draw) -> tuple[dict, str]:
    if draw(st.integers(0, 9)) == 0:
        key = draw(_UNKNOWN)
        return {**_BASE, key: 1}, key
    key = draw(st.sampled_from(sorted(_KEYS)))
    return {**_BASE, key: draw(_wrong(*_KEYS[key]))}, key


@given(_broken_key())
@settings(max_examples=150, deadline=None)
def test_a_wrong_scenario_key_exits_2_naming_it(tmp_path_factory, broken):
    doc, key = broken
    assert key in _run_refused(tmp_path_factory.getbasetemp() / "key.json", doc)


@st.composite
def _broken_op(draw) -> tuple[dict, str]:
    name = draw(st.sampled_from(sorted(_OPS)))
    required, fields = _OPS[name]
    op, problem = _op(name, **required), draw(st.sampled_from(["tick", "unknown", "missing", "field"]))
    if problem == "tick":
        op["tick"] = draw(_wrong(int, _below(0) | _above(2)))
        return op, "tick"
    if problem == "unknown":
        field = draw(_UNKNOWN)
        op[field] = 1
    elif problem == "missing" and required:
        field = draw(st.sampled_from(sorted(required)))
        del op[field]
    else:
        field = draw(st.sampled_from(sorted(fields)))
        op[field] = draw(_wrong(*fields[field]))
    return op, field


@given(_broken_op())
@settings(max_examples=250, deadline=None)
def test_a_wrong_op_field_exits_2_naming_its_tick_and_op(tmp_path_factory, broken):
    op, field = broken
    doc = {**_BASE, "script": [_PRELUDE, op]}
    message = _run_refused(tmp_path_factory.getbasetemp() / "op.json", doc)
    assert f"tick {op['tick']} op {op['op']}: " in message
    assert field in message.split(": ", 2)[2]


# --- verify --------------------------------------------------------------------

def _exported_chain(tmp_path) -> Path:
    out = tmp_path / "out"
    assert main(["run", _scenario(tmp_path), "--out", str(out)]) == 0
    return out / "chains" / "agent_000.chain"


def test_verify_accepts_real_exports(tmp_path, capsys):
    chain_file = _exported_chain(tmp_path)
    assert main(["verify", str(chain_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_flags_tampered_chain(tmp_path, capsys):
    chain_file = _exported_chain(tmp_path)
    records = parse_chain_text(chain_file.read_text())
    records[2] = Record(records[2].header, records[2].payload + b"\x00")
    doctored = tmp_path / "doctored.chain"
    doctored.write_text(export_records(records))
    # one bad file fails the whole invocation, good ones still report OK
    assert main(["verify", str(chain_file), str(doctored)]) == 1
    stdout = capsys.readouterr().out
    assert "OK" in stdout and "FAIL at seq 2 (entry_hash)" in stdout


def test_verify_rejects_unparseable_input(tmp_path):
    truncated = tmp_path / "truncated.chain"
    truncated.write_text("deadbeef\n")
    assert main(["verify", str(truncated)]) == 2
    assert main(["verify", str(tmp_path / "missing.chain")]) == 2


# --- attack ------------------------------------------------------------------

def test_attack_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        ["attack", "--kind", "forged_token", "--trials", "50", "--seed", "3", "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report == {
        "kind": "forged_token",
        "seed": 3,
        "attempted": 50,
        "detected": 50,
        "missed": 0,
    }
    assert "forged_token: 50/50 detected" in capsys.readouterr().out
    assert main(["attack", "--kind", "forged_token", "--trials", "0"]) == 0
    assert "forged_token: 0/0 detected" in capsys.readouterr().out


def test_attack_double_spend_reports_rates(tmp_path, capsys):
    report_path = tmp_path / "ds.json"
    code = main(
        [
            "attack", "--kind", "double_spend", "--trials", "40", "--agents", "15",
            "--witnesses", "5", "--audit", "5", "--seed", "2", "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["attempted"] == 40
    assert 0.0 <= report["rate"] <= 1.0
    assert "expected" in capsys.readouterr().out
    # a double spend needs a first receiver and a separate victim
    assert main(["attack", "--kind", "double_spend", "--trials", "3", "--agents", "2"]) == 2
    assert "two other online agents" in capsys.readouterr().err


# --- bench ---------------------------------------------------------------------

def test_bench_csv(tmp_path):
    csv_path = tmp_path / "comparison.csv"
    assert main(["bench", "--entries", "10", "--sizes", "8,16", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert lines[1].startswith("8,10,4,80,70,")
    assert len(lines) == 3


def test_bench_stdout(capsys):
    assert main(["bench", "--entries", "5", "--sizes", "8"]) == 0
    assert capsys.readouterr().out.startswith(SWEEP_HEADER)


def test_bench_seed_is_flag_then_env_then_7(capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(
        "agentchain.cli.compare_sweep", lambda sizes, m, r, seed: seeds.append(seed) or []
    )
    monkeypatch.delenv(SEED_ENV, raising=False)
    assert main(["bench", "--seed", "0"]) == 0
    assert main(["bench"]) == 0
    monkeypatch.setenv(SEED_ENV, "0")
    assert main(["bench"]) == 0
    monkeypatch.setenv(SEED_ENV, "5")
    assert main(["bench", "--seed", "3"]) == 0
    assert seeds == [0, 7, 0, 3]
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    assert main(["bench"]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "agentchain.cli", "bench", "--entries", "5", "--sizes", "8"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(SWEEP_HEADER)
