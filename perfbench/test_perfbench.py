"""Tests for the benchmark's own pieces: the seeded scenario generators,
self-time arithmetic on nested spans, and patching that leaves the program
as it found it."""

from __future__ import annotations

import json
import sys

import pytest

from agentchain import chain, crypto, dht, sim
from perfbench import trace, workloads


def test_same_seed_gives_the_same_script_and_another_seed_another():
    for make in workloads.SCENARIOS.values():
        assert make(3) == make(3)
        assert make(3)["script"] != make(4)["script"]


def test_generated_scenarios_replay_from_their_json(tmp_path):
    for name, make in workloads.SCENARIOS.items():
        doc = make(11)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert sim.load_scenario(str(path)) == sim.config_from_dict(doc)


def test_generated_scenarios_run_clean():
    ward = sim.run_scenario(sim.config_from_dict(workloads.ward_churn_doc(2)))
    assert not sim.audit_access_log(ward)
    assert ward.metrics.accesses_granted > 0
    market = sim.run_scenario(sim.config_from_dict(workloads.fuel_market_doc(2)))
    m = market.metrics
    assert m.attacks_attempted == workloads.FUEL_TICKS // 10
    assert m.attacks_detected + m.attacks_missed == m.attacks_attempted
    assert m.fuel_txs >= workloads.FUEL_TICKS * workloads.FUEL_TRANSFERS_PER_TICK


def test_self_time_subtracts_direct_children_on_nested_spans():
    times = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0])
    tracer = trace.Tracer(clock=lambda: next(times))
    outer = tracer.open(0)  # 0 .. 10
    middle = tracer.open(1)  # 1 .. 4
    inner = tracer.open(2)  # 2 .. 3
    tracer.close(inner)
    tracer.close(middle)
    second = tracer.open(1)  # 5 .. 8
    tracer.close(second)
    tracer.close(outer)
    assert list(tracer.parent) == [-1, outer, middle, outer]
    assert tracer.self_times() == [4.0, 2.0, 1.0, 3.0]
    rows = tracer.rollup()
    assert rows[tracer.names[1]]["calls"] == 2
    assert rows[tracer.names[1]]["self_s"] == 5.0
    assert sum(row["self_s"] for row in rows.values()) == 10.0


def test_spans_of_one_operation_share_its_id():
    tracer = trace.Tracer(clock=lambda: 0.0)
    names = {name: i for i, name in enumerate(tracer.names)}
    loose = tracer.open(names["crypto.hash_bytes"])
    tracer.close(loose)
    publish = tracer.open(names["dht.publish"])
    nested = tracer.open(names["crypto.verify"])
    tracer.close(nested)
    tracer.close(publish)
    settle = tracer.open(names["fuel.settle"])
    tracer.close(settle)
    assert list(tracer.op) == [0, 1, 1, 2]


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "agentchain" or name.startswith("agentchain."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (dht.Network, sim.Simulation):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_tracing_wraps_every_binding_and_restores_every_name():
    before = _bindings()
    original_verify = crypto.verify
    bound = [key for key, value in before.items() if value is original_verify]
    assert ("agentchain.crypto", "verify") in bound and ("agentchain.chain", "verify") in bound
    tracer = trace.Tracer()
    with trace.Patches() as patches:
        assert patches.replace("crypto", "verify", tracer.wrapping(1)) == len(bound)
        for module, attr in bound:
            assert vars(sys.modules[module])[attr] is not original_verify
    assert all(vars(sys.modules[module])[attr] is original_verify for module, attr in bound)
    with trace.Patches() as patches:
        tracer.install(patches)
        assert dht.Network.publish is not before[("Network", "publish")]
        crypto.hash_bytes(b"traced")
        assert list(tracer.span_name) == [tracer.names.index("crypto.hash_bytes")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in after.items() if value is not before[key]]
    assert changed == []


def test_op_timer_keeps_only_the_calls_asked_for():
    timer = trace.OpTimer()
    with trace.Patches() as patches:
        patches.replace(
            "crypto", "hash_bytes",
            timer.timed("hash", keep=lambda args, kwargs: args[0] == b"y", summary=len),
        )
        crypto.hash_bytes(b"x")
        chain.hash_bytes(b"y")
    assert timer.results["hash"] == [32]
    assert len(timer.samples["hash"]) == len(timer.starts["hash"]) == 1


def test_timings_are_scaled_per_episode_and_ops_taken_at_their_median_repeat():
    run = workloads.Run("w", rate_unit="ticks", op_name="op", work=10)
    run.slowdown = [1.0, 2.0, 1.0]  # the second episode ran on a host twice as slow
    run.setup_s = [1.0, 2.0, 3.0]
    run.episode_s = [2.0, 4.0, 3.0]
    run.op_s = [0.001, 0.004, 0.004, 0.002, 0.003, 0.009]  # two ops an episode
    assert run.scaled(run.setup_s) == [1.0, 1.0, 3.0]
    assert run.setup() == 1.0
    assert run.ops_per_s() == 30 / 7
    # op 0 repeats at 1, 2, 3 ms; op 1 at 4, 1, 9 ms
    assert run.op_ms(50) == 2.0
    assert run.op_ms(95) == 4.0
    # every repeat on its own: 1, 4, 2, 1, 3, 9 ms scaled; 1, 4, 4, 2, 3, 9 as measured
    assert run.op_ms_all(50) == pytest.approx(2.0)
    assert run.op_ms_all(95) == pytest.approx(9.0)
    raw = run.unscaled()
    assert raw.setup() == 2.0
    assert raw.op_ms_all(50) == pytest.approx(3.0)
    assert run.slowdown == [1.0, 2.0, 1.0]


def test_percentile_is_nearest_rank():
    assert workloads.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert workloads.percentile([4.0, 1.0, 3.0, 2.0], 95) == 4.0
    assert workloads.percentile([float(i) for i in range(1, 201)], 95) == 190.0


def test_a_publish_owes_one_receipt_per_online_holder():
    network = sim.Simulation(sim.config_from_dict({"n_agents": 8, "ticks": 1})).network
    author = network.agents[0]
    online: list[int] = []
    with trace.Patches() as patches:
        patches.replace("dht.Network", "publish", workloads._online_holders(online))
        full = author.append("report", {"text": "all online"}, 1)
        assert len(network.publish(author, full)) == network.redundancy
        short = author.append("report", {"text": "two offline"}, 2)
        for agent in network.neighborhood(chain.record_key(short))[:2]:
            agent.online = False
        receipts = network.publish(author, short)
    assert online == [network.redundancy, network.redundancy - 2]
    assert len(receipts) == online[-1]
