"""News-pool scaling probe: one fuel-market episode at a chosen size.

Runs the simulator once on a generated transfer scenario shaped like the
perfbench ``fuel_market`` workload: unpublished one-credit transfers
between random traders, and a double spend every 10th tick by one of four
dedicated spenders in turn. Every transfer is announced to witnesses and
every gossip contact merges two news pools, so the run shows how claim
storage and claim gossip grow with the network.

    PYTHONPATH=src python tools/news_pool_probe.py --agents 512 --ticks 40 --transfers 128 --seed 3

Prints one JSON line: the run's wall seconds and tracemalloc peak (the
whole run is traced, so the seconds include tracemalloc's overhead), the
memory the finished result still holds, the ``Metrics`` counters, and the
SHA-256 of the run's ``metrics.csv`` so that two source trees can be
checked for identical outputs. This is a measurement script, not a gated
benchmark workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import time
import tracemalloc

from agentchain.sim import config_from_dict, run_scenario

SPENDERS = 4
SEED_FUEL = 1000


def scenario(agents: int, ticks: int, transfers: int, seed: int) -> dict:
    traders = agents - SPENDERS
    if traders < 2:
        raise SystemExit(f"--agents must be at least {SPENDERS + 2}")
    rng = random.Random(f"news_pool_probe:{seed}")
    script: list[dict] = []
    for tick in range(ticks):
        for _ in range(transfers):
            sender, receiver = rng.sample(range(traders), 2)
            script.append(
                {"tick": tick, "op": "transfer", "sender": sender, "receiver": receiver,
                 "amount": 1, "publish": False, "expect_ok": False}
            )
        if tick % 10 == 9:
            spender = traders + (tick // 10) % SPENDERS
            script.append({"tick": tick, "op": "attack", "kind": "double_spend", "agent": spender})
    return {"name": "news_pool_probe", "seed": seed, "n_agents": agents, "ticks": ticks,
            "seed_fuel": SEED_FUEL, "script": script}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--agents", type=int, default=512)
    parser.add_argument("--ticks", type=int, default=40)
    parser.add_argument("--transfers", type=int, default=128, help="transfers per tick")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    config = config_from_dict(scenario(args.agents, args.ticks, args.transfers, args.seed))
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    result = run_scenario(config)
    wall_s = time.perf_counter() - t0
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    mb = 1024 * 1024
    print(json.dumps({
        "agents": args.agents,
        "ticks": args.ticks,
        "transfers_per_tick": args.transfers,
        "seed": args.seed,
        "wall_s": round(wall_s, 3),
        "tracemalloc_peak_mb": round((peak - before) / mb, 2),
        "result_held_mb": round((held - before) / mb, 2),
        "counters": dataclasses.asdict(result.metrics),
        "metrics_csv_sha256": hashlib.sha256(result.metrics_log.to_csv().encode()).hexdigest(),
    }))


if __name__ == "__main__":
    main()
