"""Command line behavior: artifacts, determinism, and the exit-code contract
(0 success, 1 failed check, 2 unusable input)."""

import json
import subprocess
import sys
from pathlib import Path

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
    ):
        capsys.readouterr()
        malformed = _scenario(tmp_path, script=[bad_op])
        assert main(["run", malformed, "--out", str(tmp_path / "z")]) == 2
        assert problem in capsys.readouterr().err
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
