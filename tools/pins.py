"""Recompute every pinned run output and report the pins that moved.

    python tools/pins.py

``tests/fixtures/pins.json`` maps each pinned output's name, which says how
to recompute it, to its SHA-256. This prints ``name: old -> new`` for each
pin that moved and exits 1 if any did; tier-1 calls ``compute(name)`` for
each. To move a pin on purpose, paste the printed value into the manifest
and name the pin and the reason in CHANGES.md.

- ``perfbench W S``: the fingerprint of ``perfbench/run.py --workload W
  --seed S --seconds 0``, one episode; it must exit 0: every check passed.
- ``perfbench-one-cpu W S``: the same, pinned to one CPU before the program
  is imported (or failing), so ``verify_records`` starts no helper thread.
- ``perfbench-traced W S``: the SHA-256 of the sorted ``name value`` lines
  of every ``*.calls`` and ``counters.*`` metric of one traced episode.
  Every span wrapper runs, so a changed wrapped signature fails too. The
  span file the run writes under ``.perfbench/`` is removed again, unless
  it was there before.
- ``tool T ARGS``: ``metrics_csv_sha256`` of ``tools/T ARGS``. The 256 x 30
  scale probe covers re-replication under churn. The news pool probe's 96
  agents put more than 85 peers in the audit and witness pools, where
  ``dht._draw``, like ``random.sample``, draws by set rejection instead of
  from a pool of indices: its end-to-end guard of that branch for pools.
- ``cli ARGS``: the SHA-256 of the file ``agentchain ARGS --out FILE``
  writes; it must exit 0. The double spends settle through the fuel path,
  which no workload fingerprint covers.
- ``scenario NAME``: ``_artifact_digest`` of a run of ``scenarios/NAME.json``.
"""

import contextlib
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "fixtures" / "pins.json"
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)
ENV = {**os.environ, "PYTHONPATH": SRC}
# pins one CPU of the allowed set, then runs the script named by the first argument
ONE_CPU = ("import os, runpy, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')")

from agentchain.sim import export_all_chains, load_scenario, run_scenario  # noqa: E402


def _run(*argv: str) -> str:
    """Standard output of a child Python in the checkout's root, which must exit 0."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


@contextlib.contextmanager
def _left_as_found(path: Path):
    """Remove path, a file, and its directory once the block ends, each
    unless it was there when the block began; a directory only if empty."""
    made = [p for p in (path, path.parent) if not p.exists()]
    try:
        yield
    finally:
        for p in made:
            if p.is_dir():
                with contextlib.suppress(OSError):
                    p.rmdir()
            else:
                p.unlink(missing_ok=True)


def _perfbench(workload: str, seed: str, *prefix: str, trace: str = "0") -> str:
    argv = (*prefix, "perfbench/run.py", "--workload", workload, "--seed", seed,
            "--seconds", "0", "--trace", trace)
    if trace == "0":
        out = _run(*argv).splitlines()
        return next(line.split()[-1] for line in out if line.startswith("fingerprint sha256 "))
    # a traced run writes the spans of one episode into the checkout
    with _left_as_found(ROOT / ".perfbench" / f"spans-{workload}-{seed}.csv"):
        out = _run(*argv).splitlines()
    metrics = json.loads(out[-1])["metrics"]
    counts = sorted("%s %s\n" % (name, metric["value"]) for name, metric in metrics.items()
                    if name.endswith(".calls") or name.startswith("counters."))
    return hashlib.sha256("".join(counts).encode()).hexdigest()


@functools.cache
def probe(tool: str, *args: str) -> dict:
    """The JSON report of ``tools/TOOL ARGS``, run once per process for each
    argument list: the ``tool`` pin and the probe's own tests read one run."""
    return json.loads(_run(f"tools/{tool}", *args))


def _cli(*args: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        _run("-m", "agentchain.cli", *args, "--out", str(out))
        return hashlib.sha256(out.read_bytes()).hexdigest()


def _artifact_digest(result) -> str:
    """SHA-256 over metrics.csv, then each chain export in name order."""
    h = hashlib.sha256(result.metrics_log.to_csv().encode())
    for name, text in sorted(export_all_chains(result).items()):
        h.update(name.encode())
        h.update(text.encode())
    return h.hexdigest()


KINDS = {
    "perfbench": _perfbench,
    "perfbench-one-cpu": lambda workload, seed: _perfbench(workload, seed, "-c", ONE_CPU),
    "perfbench-traced": lambda workload, seed: _perfbench(workload, seed, trace="1"),
    "tool": lambda tool, *args: probe(tool, *args)["metrics_csv_sha256"],
    "cli": _cli,
    "scenario": lambda name: _artifact_digest(run_scenario(load_scenario(f"{ROOT}/scenarios/{name}.json"))),
}


def compute(name: str) -> str:
    """The current SHA-256 of the output that name pins; an unknown kind is a KeyError."""
    kind, *args = name.split()
    return KINDS[kind](*args)


def main() -> int:
    moved = 0
    for name, old in json.loads(MANIFEST.read_text()).items():
        try:
            new = compute(name)
        except RuntimeError as exc:
            new = f"error: {exc}"
        if new != old:
            print(f"{name}: {old} -> {new}")
            moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
