"""Command line front end.

Subcommands:
  run     execute a scenario file, write metrics.csv / summary.json / chains/
  attack  run a seeded attack experiment and write a detection report
  bench   run the replicated-vs-sharded cost sweep, write comparison.csv
  verify  check exported chain files for integrity

Exit codes: 0 success, 1 a check failed (bad chain, missed expectation),
2 unusable input (bad config, unreadable or unparseable file).

All artifacts are written atomically and depend only on the scenario file
and the seed, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

from .bench import DEFAULT_SIZES, compare_sweep, sweep_to_csv
from .chain import DEFAULT_REDUNDANCY, parse_chain_text, verify_records
from .dht import DEFAULT_AUDIT_SAMPLES, DEFAULT_WITNESS_COUNT
from .sim import (
    AttackKind,
    ConfigError,
    ScenarioAssertion,
    ScenarioConfig,
    _range,
    export_all_chains,
    load_scenario,
    run_experiment,
    run_scenario,
)

SEED_ENV = "AGENTCHAIN_SEED"

# each numeric flag's check: the one of the scenario key it stands for, else a
# range, whose callable bound is a function of the parsed args
_KEY = {key.name: key.metadata["check"] for key in dataclasses.fields(ScenarioConfig)}
_ATTACK_FLAGS = {"trials": _range(), "agents": _KEY["n_agents"], "witnesses": _KEY["witnesses"],
                 "audit": _KEY["audit_samples"]}
# each size hosts more than redundancy holders, so it is at least two
# replicas, and no more members than n_agents may have
_BENCH_FLAGS = {"entries": _range(), "redundancy": _KEY["redundancy"],
                "sizes": _range(lambda args: args.redundancy + 1, 2**32)}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # an unusable output path is unusable input
        raise ConfigError(f"{path}: unwritable: {exc}") from None


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _resolve_seed(flag_value: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return None


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma separated integers, got {text!r}") from None


def _check_flags(args: argparse.Namespace, checks: dict) -> None:
    """Refuse the first flag value its check rejects, naming the flag."""
    for flag, check in checks.items():
        for value in getattr(args, flag) if flag == "sizes" else [getattr(args, flag)]:
            problem = check(f"--{flag}", value, args, {})
            if problem:
                raise ConfigError(problem)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_scenario(args.scenario)
    except OSError as exc:
        print(f"{args.scenario}: unreadable: {exc}", file=sys.stderr)
        return 2
    seed = _resolve_seed(args.seed)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    result = run_scenario(config)
    out, summary = args.out, result.summary()
    _atomic_write(os.path.join(out, "metrics.csv"), result.metrics_log.to_csv())
    _atomic_write(os.path.join(out, "summary.json"), _dump_json(summary))
    for name, text in sorted(export_all_chains(result).items()):
        _atomic_write(os.path.join(out, "chains", name), text)
    print(
        f"{config.name}: {config.n_agents} agents, {config.ticks} ticks, "
        f"{summary['metrics']['messages']} messages, "
        f"{summary['access']['granted']} accesses granted, "
        f"{summary['attacks']['detected']}/{summary['attacks']['attempted']} attacks detected"
    )
    print(f"artifacts in {out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    _check_flags(args, _ATTACK_FLAGS)
    seed = _resolve_seed(args.seed)
    if seed is None:
        seed = 1
    kind = AttackKind(args.kind)
    kwargs = {}
    if kind is AttackKind.DOUBLE_SPEND:
        kwargs = {
            "n_agents": args.agents,
            "witnesses": args.witnesses,
            "audit_samples": args.audit,
        }
    report = run_experiment(kind, seed, args.trials, **kwargs)
    report["kind"] = kind.value
    report["seed"] = seed
    if args.out:
        _atomic_write(args.out, _dump_json(report))
    line = f"{kind.value}: {report['detected']}/{report['attempted']} detected"
    if "rate" in report:
        line += f" (rate {report['rate']:.4f}, expected {report['expected_rate']:.4f})"
    print(line)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_flags(args, _BENCH_FLAGS)
    seed = _resolve_seed(args.seed)
    if seed is None:
        seed = 7
    rows = compare_sweep(sizes=args.sizes, m=args.entries, r=args.redundancy, seed=seed)
    csv_text = sweep_to_csv(rows)
    if args.out:
        _atomic_write(args.out, csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.chains:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                records = parse_chain_text(fh.read())
        except OSError as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"{path}: does not parse: {exc}", file=sys.stderr)
            return 2
        report = verify_records(records)
        if report.ok:
            print(f"{path}: OK ({len(records)} records)")
        else:
            failures += 1
            print(f"{path}: FAIL at seq {report.first_failure_index} ({report.reason})")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentchain",
        description="agent-centric ledger simulator and toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", default="out", help="artifact directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_attack = sub.add_parser("attack", help="run an attack experiment")
    p_attack.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in AttackKind],
    )
    p_attack.add_argument("--trials", type=int, default=1000)
    p_attack.add_argument("--agents", type=int, default=50)
    p_attack.add_argument("--witnesses", type=int, default=DEFAULT_WITNESS_COUNT)
    p_attack.add_argument("--audit", type=int, default=DEFAULT_AUDIT_SAMPLES)
    p_attack.add_argument("--seed", type=int, default=None)
    p_attack.add_argument("--out", default=None, help="write report JSON here")
    p_attack.set_defaults(func=_cmd_attack)

    p_bench = sub.add_parser("bench", help="cost comparison sweep")
    p_bench.add_argument("--entries", type=int, default=100, help="entries per run")
    p_bench.add_argument("--redundancy", type=int, default=DEFAULT_REDUNDANCY)
    p_bench.add_argument("--sizes", type=_sizes, default=DEFAULT_SIZES, help="comma separated node counts")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", help="verify exported chain files")
    p_verify.add_argument("chains", nargs="+", help="chain export files")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioAssertion as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
