"""The measurement scripts under tools/ run end to end at a small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _probe(*args: str, tool: str = "news_pool_probe.py") -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *args],
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


@pytest.mark.parametrize("agents", [32, 64])
def test_scale_probe_prints_per_agent_figures_of_a_whole_run(agents):
    ticks = 20
    report = _probe("--agents", str(agents), "--ticks", str(ticks), tool="scale_probe.py")
    assert (report["agents"], report["ticks"], report["seed"]) == (agents, ticks, 5)
    held = report["records_held_per_agent"]
    # a shard holds each key once, and every key comes from one publish
    vitals, reports = ticks * (agents // 10), ticks * (agents // 20)
    assert 0 < held["mean"] <= held["max"] <= vitals + reports
    # a shard holds only keys planned to it: at most r = 4 copies of each
    # restricted vitals reading and ceil(r * 2.0) = 8 of each report
    shards = report["shard_records"]
    assert shards["total"] == round(held["mean"] * agents)
    assert shards["total"] <= 4 * vitals + 8 * reports
    # the run has no late join, so no holder set changed after its plan
    assert shards["outside_holder_sets"] == 0
    pending = report["pending_after_last_round"]
    assert 0 <= pending["servable"] <= pending["entries"]
    assert report["messages_per_agent_tick"] > 0
    assert report["cpu_ms_per_agent_tick"] > 0
    assert report["peak_rss_mb"] > 0
    if agents == 64:
        assert shards["total"] == 907
        assert report["metrics_csv_sha256"] == (
            "48144ab98665f17d79210a19e815957e96cbf83df5768673380d19114d85b80c"
        )
