"""The measurement scripts under tools/ run end to end at a small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_news_pool_probe_prints_one_json_line_of_a_whole_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--agents", "8", "--ticks", "10", "--transfers", "3", "--seed", "1"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "news_pool_probe.py"), *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out)
    assert (report["agents"], report["ticks"], report["transfers_per_tick"]) == (8, 10, 3)
    counters = report["counters"]
    # one double spend at tick 9, and every transfer announced to witnesses
    assert counters["attacks_attempted"] == 1
    assert counters["attacks_detected"] + counters["attacks_missed"] == 1
    assert counters["news_claims"] > counters["fuel_txs"] > 0
    assert counters["conservation_violations"] == 0
