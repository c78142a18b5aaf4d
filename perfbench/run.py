"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ward_churn --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout: the program is imported from
``src/`` next to this directory. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones and writes the spans of one traced
episode to ``.perfbench/spans-<workload>-<seed>.csv``. Exit code 0 when every output
check passed, 1 when one failed, 2 when the program cannot be loaded.

``--dump-scenario FILE`` writes the seeded scenario of ``ward_churn`` or
``fuel_market`` as JSON, for ``python -m agentchain.cli run FILE``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("ward_churn", "fuel_market", "chain_audit", "shard_publish")


def _load_program() -> str | None:
    """Import agentchain from this checkout's src/, never from elsewhere.
    Returns why that failed, or None."""
    if not os.path.isfile(os.path.join(SRC, "agentchain", "__init__.py")):
        return f"no program source at {SRC}/agentchain"
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import agentchain

    if os.path.dirname(os.path.abspath(agentchain.__file__)) != os.path.join(SRC, "agentchain"):
        return f"agentchain imported from {agentchain.__file__}, not {SRC}"
    return None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-scenario", metavar="FILE")
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(run) -> dict[str, dict]:
    return {
        "setup_s": _metric(run.setup(), "s"),
        "ops_per_s": _metric(run.ops_per_s(), "1/s"),
        "op_ms_p50": _metric(run.op_ms(50), "ms"),
        "op_ms_p95": _metric(run.op_ms(95), "ms"),
    }


def end_to_end(run) -> dict[str, dict]:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**timings(run), "peak_rss_mb": _metric(peak_mb, "MB")}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    problem = _load_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.dump_scenario:
        if args.workload not in workloads.SCENARIOS:
            print(f"error: {args.workload} is not a scenario workload", file=sys.stderr)
            return 2
        doc = workloads.SCENARIOS[args.workload](args.seed)
        with open(args.dump_scenario, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.dump_scenario}")
        return 0

    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    print(f"workload {run.workload} seed {args.seed}: {len(run.episode_s)} untraced episodes")
    for check in run.checks:
        status = "ok  " if check.ok else "FAIL"
        print(f"check {status} {run.workload}: {check.name}" + (f" ({check.detail})" if check.detail else ""))
    if run.slowdown:
        print(f"host slowdown {statistics.median(run.slowdown):.3f} median, "
              f"{min(run.slowdown):.3f}-{max(run.slowdown):.3f} range; timings are divided by it")
    print(f"counters {json.dumps(run.counters, sort_keys=True)}")
    print(f"fingerprint sha256 {run.fingerprint}")
    if not run.correct:
        failed = [c.name for c in run.checks if not c.ok]
        print(f"error: {run.workload}: check failed: {'; '.join(failed)}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, run.attempted),
                          "failed": run.failed, "metrics": {}}))
        return 1
    if args.trace:
        metrics = {name: _metric(value, _layer_unit(name)) for name, value in run.layers.items()}
        if run.tracer is not None:
            os.makedirs(SPANS_DIR, exist_ok=True)
            path = os.path.join(SPANS_DIR, f"spans-{run.workload}-{args.seed}.csv")
            # traced episodes are identical; the first one stands for all
            run.tracer.write_csv(path, run.episode_spans)
            print(f"spans of one traced episode written to {os.path.relpath(path, ROOT)}")
        shares = sorted(
            ((v, k) for k, v in run.layers.items() if k.endswith(".self_share")), reverse=True
        )
        print("self time by layer: " + ", ".join(f"{k.split('.')[0]} {v:.1%}" for v, k in shares))
    else:
        metrics = end_to_end(run)
        for name, (value, unit) in run.named.items():
            print(f"metric {name} = {value:.6g} {unit}")
        print(f"metric failed_ratio = {run.failed / max(1, run.attempted):.6g} share"
              f" ({run.failed} of {run.attempted})")
        if run.workload == "ward_churn":
            print(f"unserved {run.unserved} of {run.attempted} ops: every holder"
                  " (and for an access the patient) offline under churn")
        print(f"op_ms_p50/p95 time one {run.op_name} ({len(run.op_s)} samples);"
              f" ops_per_s counts {run.rate_unit}")
        print(f"metric op_ms_p95_all = {run.op_ms_all(95):.6g} ms"
              " (over every op sample, not each op's median repeat)")
        for name, metric in timings(run.unscaled()).items():
            print(f"metric {name}_raw = {metric['value']:.6g} {metric['unit']}"
                  " (as measured, not divided by the host slowdown)")
        for name, metric in metrics.items():
            print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": max(1, run.attempted), "failed": run.failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".refused", "_per_episode")) or name.startswith("counters."):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
