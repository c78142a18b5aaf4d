"""The scripts under tools/: the measurement probes run end to end at a
small size, and every pinned run output of tests/fixtures/pins.json holds
when tools/pins.py recomputes it."""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import pins  # noqa: E402

PINS = json.loads(pins.MANIFEST.read_text())


def test_news_pool_probe_prints_one_json_line_of_a_whole_run():
    report = pins.probe(
        "news_pool_probe.py", "--agents", "8", "--ticks", "10", "--transfers", "3", "--seed", "1"
    )
    assert (report["agents"], report["ticks"], report["transfers_per_tick"]) == (8, 10, 3)
    counters = report["counters"]
    # one double spend at tick 9, and every transfer announced to witnesses
    assert counters["attacks_attempted"] == 1
    assert counters["attacks_detected"] + counters["attacks_missed"] == 1
    assert counters["news_claims"] > counters["fuel_txs"] > 0
    assert counters["conservation_violations"] == 0


@pytest.mark.parametrize("agents, ticks", [(32, 20), (64, 20), (256, 30)])
def test_scale_probe_prints_per_agent_figures_of_a_whole_run(agents, ticks):
    # the arguments of the tool pins, so the 64- and 256-agent runs serve both
    report = pins.probe(
        "scale_probe.py", "--agents", str(agents), "--ticks", str(ticks), "--seed", "5"
    )
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
    pending, worst = report["pending_after_last_round"], report["pending_max_over_rounds"]
    assert 0 <= pending["servable"] <= pending["entries"] <= worst["entries"]
    assert 0 <= worst["servable"] <= worst["entries"]
    assert report["messages_per_agent_tick"] > 0
    assert report["cpu_ms_per_agent_tick"] > 0
    assert report["peak_rss_mb"] > 0
    if agents == 64:
        assert shards["total"] == 947
        # right after every round, each online agent has pulled every key
        # pending at it that some online member holds
        assert worst["servable"] == 0


@pytest.mark.parametrize("name", PINS)
def test_pinned_output_holds(name):
    new = pins.compute(name)
    assert new == PINS[name], f"{name}: {PINS[name]} -> {new}"


def test_a_traced_pin_leaves_the_checkout_as_it_found_it(tmp_path, monkeypatch):
    # a checkout of the harness and the program, where the run writes its spans
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.setattr(pins, "ROOT", tmp_path)
    name, spans = "perfbench-traced ward_churn 1", tmp_path / ".perfbench" / "spans-ward_churn-1.csv"

    def listing():
        return sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if "__pycache__" not in p.parts)

    before = listing()
    assert pins.compute(name) == PINS[name]
    assert listing() == before
    # a span file that was there before stays, as does the rest of its directory
    spans.parent.mkdir()
    spans.write_text("kept")
    (spans.parent / "other.csv").write_text("kept")
    before = listing()
    assert pins.compute(name) == PINS[name]
    assert listing() == before


def test_every_scenario_file_is_pinned():
    scenarios = {name.split()[1] for name in PINS if name.startswith("scenario ")}
    assert scenarios == {path.stem for path in (ROOT / "scenarios").glob("*.json")}
