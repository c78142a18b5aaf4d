"""Per-agent scale probe: one churn episode at a chosen size and length.

Runs the simulator once on a generated ward scenario: churn 0.2 from tick 2,
holder-served accesses on, and per tick n/10 shared vitals readings
(privacy-restricted) and n/20 shared reports (not restricted), each from a
random agent. The load per agent is fixed, so as --agents grows the
per-agent figures show whether an agent's work grows with the network, and
as --ticks grows whether it grows with the run's history.

    PYTHONPATH=src python tools/scale_probe.py --agents 1024 --ticks 30 --seed 5

Prints one JSON line: wall seconds and CPU ms per agent per tick (both over
the whole run, set-up included), records held per agent in its DHT shard
(mean and max), the shard records in total and how many of them lie outside
their key's holder set, counted messages per agent per tick, the process's
peak RSS in MB, and the SHA-256 of the run's ``metrics.csv`` so that two
source trees can be checked for identical outputs. It also reports the plan's
health: the pending entries of online agents for keys they do not hold, and
how many of those some other online agent could serve, measured right after
each gossip round, as the maximum of each over the rounds and after the last
round. Wall and CPU time leave out these health checks. This is a
measurement script, not a gated benchmark workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import time

from agentchain.healthcare import VITALS_METRICS
from agentchain.sim import Simulation, config_from_dict

CHURN = 0.2
CHURN_START_TICK = 2


def scenario(agents: int, ticks: int, seed: int) -> dict:
    if agents < 2:
        raise SystemExit("--agents must be at least 2")
    rng = random.Random(f"scale_probe:{seed}")
    metrics = sorted(VITALS_METRICS)
    script: list[dict] = []
    for tick in range(ticks):
        for _ in range(agents // 10):
            metric = rng.choice(metrics)
            _unit, lo, hi = VITALS_METRICS[metric]
            script.append(
                {"tick": tick, "op": "vitals", "patient": rng.randrange(agents),
                 "metric": metric, "value": rng.randint(lo, hi), "share": True}
            )
        for _ in range(agents // 20):
            script.append(
                {"tick": tick, "op": "report", "agent": rng.randrange(agents),
                 "text": f"round {tick}"}
            )
    return {"name": "scale_probe", "seed": seed, "n_agents": agents, "ticks": ticks,
            "churn": CHURN, "churn_start_tick": CHURN_START_TICK, "holder_serve": True,
            "script": script}


def shard_records(network) -> dict:
    """Shard records in total, and those held by a member outside the
    holder set of their key: the members it was planned onto at publish,
    its neighborhood for a restricted type and its backup targets for any
    other (tier-1's coherence oracle checks each planned count against the
    record's type). Each published key's holder set is walked once; a
    shard record whose key was never published counts as outside."""
    total = sum(len(agent.shard) for agent in network.agents)
    inside = sum(
        key in member.shard
        for key, (count, _author) in network._holder_sets.items()
        for member in network.neighborhood(key, count)
    )
    return {"total": total, "outside_holder_sets": total - inside}


def pending_health(network) -> dict:
    """The pending entries of online agents for keys they do not hold, and
    how many of them some online agent holds, so could serve."""
    online = [agent for agent in network.agents if agent.online]
    held = set()
    for agent in online:
        held.update(agent.shard, agent.chain.keys)
    entries = servable = 0
    for agent in online:
        for key in network._pending.get(agent, ()):
            if not agent.holds(key):
                entries += 1
                servable += key in held
    return {"entries": entries, "servable": servable}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--agents", type=int, default=1024)
    parser.add_argument("--ticks", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    config = config_from_dict(scenario(args.agents, args.ticks, args.seed))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    sim = Simulation(config)
    network, rounds = sim.network, []
    checked = [0.0, 0.0]  # wall and CPU seconds spent in the health checks

    def gossip_round(rng, run_round=network.gossip_round):
        contacts = run_round(rng)
        wall, cpu = time.perf_counter(), time.process_time()
        rounds.append(pending_health(network))
        checked[0] += time.perf_counter() - wall
        checked[1] += time.process_time() - cpu
        return contacts

    network.gossip_round = gossip_round
    result = sim.run()
    wall_s = time.perf_counter() - wall0 - checked[0]
    cpu_s = time.process_time() - cpu0 - checked[1]
    agent_ticks = args.agents * args.ticks
    held = [len(agent.shard) for agent in result.network.agents]
    print(json.dumps({
        "agents": args.agents,
        "ticks": args.ticks,
        "seed": args.seed,
        "wall_s": round(wall_s, 3),
        "cpu_ms_per_agent_tick": round(1000 * cpu_s / agent_ticks, 4),
        "records_held_per_agent": {"mean": round(sum(held) / len(held), 3), "max": max(held)},
        "shard_records": shard_records(result.network),
        "pending_max_over_rounds": {
            name: max(health[name] for health in rounds) for name in ("entries", "servable")
        },
        "pending_after_last_round": rounds[-1],
        "messages_per_agent_tick": round(result.metrics.messages / agent_ticks, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "metrics_csv_sha256": hashlib.sha256(result.metrics_log.to_csv().encode()).hexdigest(),
    }))


if __name__ == "__main__":
    main()
