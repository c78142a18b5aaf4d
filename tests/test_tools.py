"""The measurement scripts under tools/ run end to end at a small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def _probe(*args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "news_pool_probe.py"), *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_news_pool_probe_prints_one_json_line_of_a_whole_run():
    report = _probe("--agents", "8", "--ticks", "10", "--transfers", "3", "--seed", "1")
    assert (report["agents"], report["ticks"], report["transfers_per_tick"]) == (8, 10, 3)
    counters = report["counters"]
    # one double spend at tick 9, and every transfer announced to witnesses
    assert counters["attacks_attempted"] == 1
    assert counters["attacks_detected"] + counters["attacks_missed"] == 1
    assert counters["news_claims"] > counters["fuel_txs"] > 0
    assert counters["conservation_violations"] == 0


def test_news_pool_probe_output_is_pinned_above_the_sample_cutoff():
    """At 96 agents the audit and witness pools hold more than 85 peers,
    where random.sample draws 7 or 8 of them by set rejection instead of
    from a copy: the draws, and so the whole run, must not move."""
    report = _probe("--agents", "96", "--ticks", "10", "--transfers", "6", "--seed", "1")
    assert report["metrics_csv_sha256"] == (
        "80a120863ef8147f2482464231842592a87fb5010023f48e0108d67a17698840"
    )
