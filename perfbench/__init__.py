"""Seeded timing benchmark for agentchain: four workloads, end-to-end
metrics from an untraced run and per-layer metrics from a traced one.
Run it with ``python3 perfbench/run.py --workload NAME --seed N``."""
