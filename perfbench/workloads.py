"""The four workloads: seeded input generators and the timed loops.

Each workload repeats one fixed unit of work (an episode) on inputs drawn
from the benchmark seed until the run's seconds are used up; every episode
of a run is identical, so per-episode figures and their medians compare
directly. The program only ever sees the generated inputs.

Sizes below are the run length of one episode; the population and the
traffic mix define the workload (see README.md).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from agentchain import bench, chain, dht, fuel, healthcare, sim
from agentchain.metrics import METRIC_COLUMNS as COUNTERS

from .trace import LAYERS, TARGETS, OpTimer, Patches, Tracer

clock = time.perf_counter

WARD_AGENTS = 64
WARD_TICKS = 30
WARD_VITALS_PER_TICK = 6
WARD_ACCESS_WINDOW = 4  # the newest grantees access every tick

FUEL_TRADERS = 44
FUEL_SPENDERS = 4
FUEL_TICKS = 40
FUEL_TRANSFERS_PER_TICK = 12
FUEL_SEED = 1000
# a third detected double spend blacklists the spender everywhere, and a
# blacklisted sender's next attack is refused outright (FuelError); one
# attack every 10th tick keeps every spender at three attacks or fewer
# while FUEL_TICKS <= 10 * 3 * FUEL_SPENDERS

AUDIT_CHAINS = 32
AUDIT_RECORDS = 250

SHARD_AGENTS = 256
SHARD_ENTRIES = 1000
SHARD_REDUNDANCY = 4

# seconds the reference work takes on the baseline host when it is quiet
# (2 vCPUs, CPython 3.11); timings are reported at that speed
REFERENCE_S = 0.024

MUTATION_KINDS = (
    "seq",
    "timestamp",
    "entry_type",
    "entry_hash",
    "author",
    "prev_header_hash",
    "signature",
    "payload",
)


# ---------------------------------------------------------------------------
# seeded scenario generators


def _other(rng: random.Random, n: int, not_this: int) -> int:
    pick = rng.randrange(n - 1)
    return pick + 1 if pick >= not_this else pick


def ward_churn_doc(seed: int) -> dict:
    """Health-monitoring ward under churn, as a scenario document.

    Per tick: shared vitals from random patients, and one access by each
    of the newest grantees. Every 2nd tick a shared report, every 5th a
    published grant; every 10th (from tick 7) a grant that has left the
    access window is revoked, so every scripted access is a rightful one.
    """
    rng = random.Random(f"ward_churn:{seed}")
    metrics = sorted(healthcare.VITALS_METRICS)
    script: list[dict] = []
    grants: list[tuple[str, int, int]] = []  # (slot, patient, grantee)
    revoked: set[str] = set()
    for tick in range(WARD_TICKS):
        for _ in range(WARD_VITALS_PER_TICK):
            metric = rng.choice(metrics)
            _unit, lo, hi = healthcare.VITALS_METRICS[metric]
            script.append(
                {"tick": tick, "op": "vitals", "patient": rng.randrange(WARD_AGENTS),
                 "metric": metric, "value": rng.randint(lo, hi), "share": True}
            )
        if tick % 2 == 0:
            script.append(
                {"tick": tick, "op": "report", "agent": rng.randrange(WARD_AGENTS),
                 "text": f"ward round {tick}"}
            )
        if tick % 5 == 0:
            patient = rng.randrange(WARD_AGENTS)
            grantee = _other(rng, WARD_AGENTS, patient)
            slot = f"g{len(grants)}"
            script.append(
                {"tick": tick, "op": "grant", "patient": patient, "grantee": grantee,
                 "entry_type": "vitals_*", "save_as": slot}
            )
            grants.append((slot, patient, grantee))
        if tick % 10 == 7:
            retired = [g for g in grants[:-WARD_ACCESS_WINDOW] if g[0] not in revoked]
            if retired:
                slot, patient, _grantee = rng.choice(retired)
                script.append({"tick": tick, "op": "revoke", "patient": patient, "token": "$" + slot})
                revoked.add(slot)
        for slot, patient, grantee in grants[-WARD_ACCESS_WINDOW:]:
            script.append(
                {"tick": tick, "op": "access", "patient": patient, "requester": grantee,
                 "token": "$" + slot}
            )
    return {
        "name": "ward_churn",
        "seed": seed,
        "n_agents": WARD_AGENTS,
        "ticks": WARD_TICKS,
        "churn": 0.2,
        "churn_start_tick": 4,
        "holder_serve": True,
        "script": script,
    }


def fuel_market_doc(seed: int) -> dict:
    """Unpublished one-credit transfers among traders, plus a double spend
    every 10th tick by one of the dedicated spenders in turn."""
    rng = random.Random(f"fuel_market:{seed}")
    script: list[dict] = []
    for tick in range(FUEL_TICKS):
        for _ in range(FUEL_TRANSFERS_PER_TICK):
            sender = rng.randrange(FUEL_TRADERS)
            script.append(
                {"tick": tick, "op": "transfer", "sender": sender,
                 "receiver": _other(rng, FUEL_TRADERS, sender), "amount": 1,
                 "publish": False, "expect_ok": False}
            )
        if tick % 10 == 9:
            spender = FUEL_TRADERS + (tick // 10) % FUEL_SPENDERS
            script.append({"tick": tick, "op": "attack", "kind": "double_spend", "agent": spender})
    return {
        "name": "fuel_market",
        "seed": seed,
        "n_agents": FUEL_TRADERS + FUEL_SPENDERS,
        "ticks": FUEL_TICKS,
        "seed_fuel": FUEL_SEED,
        "script": script,
    }


SCENARIOS: dict[str, Callable[[int], dict]] = {
    "ward_churn": ward_churn_doc,
    "fuel_market": fuel_market_doc,
}


def build_audit_chains(seed: int) -> list[dht.Agent]:
    """Agents whose chains hold AUDIT_RECORDS mixed records each: vitals of
    every metric, reports, capability grants and seed grants."""
    rng = random.Random(f"chain_audit:{seed}")
    dna = healthcare.healthcare_dna()
    agents = [dht.make_agent(i, dht.agent_seed(seed, i), dna) for i in range(AUDIT_CHAINS)]
    metrics = sorted(healthcare.VITALS_METRICS)
    for agent in agents:
        clock_tick = 1
        while len(agent.chain.records) < AUDIT_RECORDS:
            draw = rng.random()
            if draw < 0.6:
                metric = rng.choice(metrics)
                _unit, lo, hi = healthcare.VITALS_METRICS[metric]
                reading = healthcare.VitalsReading(metric, rng.randint(lo, hi), clock_tick)
                healthcare.publish_vitals(agent, reading, clock_tick)
            elif draw < 0.8:
                agent.append("report", {"text": f"note {rng.randrange(10**6)}"}, clock_tick)
            elif draw < 0.9:
                grantee = agents[_other(rng, AUDIT_CHAINS, agent.index)]
                healthcare.create_grant(
                    agent, healthcare.CapabilityGrant(grantee.public_key, "vitals_*"), clock_tick
                )
            else:
                fuel.append_seed_grant(agent, 1 + rng.randrange(100), clock_tick)
            clock_tick += 1
    return agents


# ---------------------------------------------------------------------------
# run results


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    workload: str
    rate_unit: str  # what ops_per_s counts
    op_name: str  # the op behind op_ms_p50 / op_ms_p95
    # raw timings, episode after episode
    setup_s: list[float] = field(default_factory=list)
    work: int = 0  # what ops_per_s counts, per episode
    episode_s: list[float] = field(default_factory=list)  # each episode's timed phase
    op_s: list[float] = field(default_factory=list)  # every timed op's duration
    # the reference work's time around each episode over REFERENCE_S
    slowdown: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unserved: int = 0  # ops churn left nobody online to serve (ward_churn)
    checks: list[Check] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""
    named: dict[str, tuple[float, str]] = field(default_factory=dict)  # per-workload op names
    layers: dict[str, float] = field(default_factory=dict)  # traced run only
    tracer: Tracer | None = None
    episode_spans: int = 0  # spans of one traced episode

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def scaled(self, samples: list[float]) -> list[float]:
        """Timings, episode after episode, at the reference host speed."""
        per_episode, rest = divmod(len(samples), len(self.slowdown))
        if rest or not per_episode:
            raise ValueError(f"{len(samples)} samples do not split into {len(self.slowdown)} episodes")
        return [x / self.slowdown[i // per_episode] for i, x in enumerate(samples)]

    def setup(self) -> float:
        return statistics.median(self.scaled(self.setup_s))

    def ops_per_s(self) -> float:
        return self.work * len(self.episode_s) / sum(self.scaled(self.episode_s))

    def op_ms(self, q: float, samples: list[float] | None = None) -> float:
        """Percentile q over the ops of one episode, each op at its median
        repeat across the run's identical episodes."""
        ops = self.scaled(self.op_s if samples is None else samples)
        per_episode = len(ops) // len(self.slowdown)
        typical = [statistics.median(ops[i::per_episode]) for i in range(per_episode)]
        return 1e3 * percentile(typical, q)

    def op_ms_all(self, q: float) -> float:
        """Percentile q over every timed op of the run, each repeat on its
        own: a slow call that does not recur on the same op shows here."""
        return 1e3 * percentile(self.scaled(self.op_s), q)

    def unscaled(self) -> "Run":
        """This run with every timing as measured, not divided by the host
        slowdown."""
        return dataclasses.replace(self, slowdown=[1.0] * len(self.slowdown))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, int(rank)) - 1]


def _sha256(parts: list[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# measuring: untraced episodes with op timers, traced ones in between

_REFERENCE_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_REFERENCE_MESSAGE = bytes(300)
_REFERENCE_SIGNATURE = _REFERENCE_KEY.sign(_REFERENCE_MESSAGE)


def reference_s() -> float:
    """Seconds a fixed piece of work takes that runs no program code: dict
    updates, a keyed sort, SHA-256 and Ed25519 verifies, the mix the
    program spends its own time on.

    Other tenants of a shared host slow everything by up to 2x for minutes
    at a time, this work and the program's alike. Timing
    this work around each episode gives the episode's slowdown, and the
    reported timings are scaled back to the quiet host's speed
    (REFERENCE_S). A change to the program cannot move this work.
    """
    public = _REFERENCE_KEY.public_key()
    t0 = clock()
    table: dict[int, int] = {}
    for i in range(60000):
        table[i % 97] = table.get(i % 97, 0) + i
    sorted(range(15000), key=lambda x: (x * 7919) % 15013)
    for _ in range(120):
        public.verify(_REFERENCE_SIGNATURE, _REFERENCE_MESSAGE)
        hashlib.sha256(_REFERENCE_MESSAGE).digest()
    return clock() - t0


@dataclass
class Measured:
    results: list[Any]  # what each untraced episode returned
    timer: OpTimer  # op entry points of the untraced episodes
    walls: list[float]  # untraced episode wall times
    slowdown: list[float] = field(default_factory=list)  # per untraced episode
    tracer: Tracer | None = None
    traced_walls: list[float] = field(default_factory=list)
    first_traced_spans: int = 0  # spans of the first traced episode


def measure(
    seconds: float, episode: Callable[[], Any],
    timers: Callable[[OpTimer, Patches], None], trace: bool,
) -> Measured:
    """Repeat episode() until seconds have passed, at least once.

    With trace, each untraced episode is followed by a traced one while
    time is left, so the tracing overhead compares like with like under
    the same drift.
    """
    m = Measured([], OpTimer(), [], tracer=Tracer() if trace else None)
    deadline = clock() + seconds
    while True:
        before = reference_s()
        with Patches() as patches:
            timers(m.timer, patches)
            t0 = clock()
            m.results.append(episode())
            m.walls.append(clock() - t0)
        m.slowdown.append((before + reference_s()) / (2 * REFERENCE_S))
        if m.tracer is not None and (not m.traced_walls or clock() < deadline):
            with Patches() as patches:
                m.tracer.install(patches)
                t0 = clock()
                episode()
                m.traced_walls.append(clock() - t0)
            if not m.first_traced_spans:
                m.first_traced_spans = len(m.tracer.start)
        if clock() >= deadline:
            return m


def _ratio(numerator: float, calls: float) -> float:
    return numerator / calls if calls else 0.0


def layer_metrics(m: Measured, counters: dict[str, int]) -> dict[str, float]:
    """Per-layer figures per traced episode, plus the tracing overhead."""
    episodes = len(m.traced_walls)
    wall = statistics.median(m.traced_walls)
    untraced = statistics.median(m.walls)
    rows = m.tracer.rollup()
    out: dict[str, float] = {}
    shares = dict.fromkeys(LAYERS, 0.0)
    for layer, _owner, attr in TARGETS:
        row = rows[f"{layer}.{attr}"]
        out[f"{layer}.{attr}.calls"] = row["calls"] / episodes
        out[f"{layer}.{attr}.self_s"] = row["self_s"] / episodes
        shares[layer] += row["self_s"] / episodes
    for layer, own in shares.items():
        out[f"{layer}.self_share"] = own / wall
    auth, publish = rows["validation.authenticate_channel"], rows["dht.publish"]
    settle, claims = rows["fuel.settle"], rows["dht.send_claim"]
    direct, held = rows["healthcare.request_access"], rows["healthcare.request_access_via_holder"]
    out["validation.accept_ratio"] = _ratio(auth["outcome"], auth["calls"])
    out["dht.receipts_per_publish"] = _ratio(publish["outcome"], publish["calls"])
    out["dht.send_claim.refused"] = claims["outcome"] / episodes
    out["dht.rereplication_yield"] = _ratio(
        counters.get("backup_transfers", 0), rows["dht.backup_targets"]["calls"] / episodes
    )
    out["fuel.settle_ratio"] = _ratio(settle["outcome"], settle["calls"])
    out["healthcare.grant_ratio"] = _ratio(
        direct["outcome"] + held["outcome"], direct["calls"] + held["calls"]
    )
    for name in COUNTERS:
        out[f"counters.{name}"] = counters.get(name, 0)
    out["trace.episode_s"] = wall
    out["trace.untraced_episode_s"] = untraced
    out["trace.overhead_s"] = wall - untraced
    out["trace.overhead_share"] = (wall - untraced) / untraced
    out["trace.spans_per_episode"] = len(m.tracer.start) / episodes
    return out


def _finish(run: Run, m: Measured) -> Run:
    if m.tracer is not None:
        run.tracer = m.tracer
        run.episode_spans = m.first_traced_spans
        run.layers = layer_metrics(m, run.counters)
    return run


# ---------------------------------------------------------------------------
# the scenario workloads


def _sim_episode(config: sim.ScenarioConfig, first: list) -> tuple[float, float, list | str]:
    """(setup seconds, run seconds, access log or the failed assertion).
    The first finished SimResult is kept in `first` for the checks."""
    t0 = clock()
    simulation = sim.Simulation(config)
    t1 = clock()
    try:
        result = simulation.run()
    except sim.ScenarioAssertion as exc:
        return t1 - t0, clock() - t1, str(exc)
    wall = clock() - t1
    if not first:
        first.append(result)
    return t1 - t0, wall, result.access_log


def _scenario_run(
    run: Run, config: sim.ScenarioConfig, seconds: float, trace: bool,
    timers: Callable[[OpTimer, Patches], None],
) -> tuple[Measured, sim.SimResult] | None:
    """Repeat the scenario; check it and fingerprint its first episode.
    Returns None when a simulation run failed."""
    first: list[sim.SimResult] = []
    m = measure(seconds, functools.partial(_sim_episode, config, first), timers, trace)
    failures = [log for _setup, _wall, log in m.results if isinstance(log, str)]
    run.check("Simulation.run completes with a clean audit_access_log", not failures,
              "; ".join(failures[:3]))
    if failures:
        return None
    result = first[0]
    try:
        result.network.assert_shards_validated()
        run.check("assert_shards_validated passes", True)
    except AssertionError as exc:
        run.check("assert_shards_validated passes", False, str(exc))
    run.counters = result.metrics.snapshot()
    parts = [result.metrics_log.to_csv()]
    for name, text in sorted(sim.export_all_chains(result).items()):
        parts += [name, text]
    run.fingerprint = _sha256(parts)
    run.slowdown = m.slowdown
    run.setup_s = [setup for setup, _wall, _log in m.results]
    run.work = config.ticks
    run.episode_s = [wall for _setup, wall, _log in m.results]
    run.named["ticks_per_s"] = (run.ops_per_s(), "ticks/s")
    return m, result


def _online_holders(online: list[int]) -> Callable[[Callable], Callable]:
    """A ``make`` for ``Patches.replace`` around the timed ``Network.publish``:
    after each call, appends how many of the record's neighborhood were
    online, which is how many receipts the publish owes. Counted outside
    the op timer, and only when a publish came back short."""

    def make(publish: Callable) -> Callable:
        @functools.wraps(publish)
        def counted(network, author, record):
            receipts = publish(network, author, record)
            holders = min(network.redundancy, len(network.agents))
            if len(receipts) < holders:
                neighborhood = network.neighborhood(chain.record_key(record))
                holders = sum(1 for agent in neighborhood if agent.online)
            online.append(holders)
            return receipts

        return counted

    return make


def run_ward_churn(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("ward_churn", rate_unit="ticks", op_name="publish")
    config = sim.config_from_dict(ward_churn_doc(seed))
    online: list[int] = []  # online neighborhood holders per timed publish

    def timers(timer: OpTimer, patches: Patches) -> None:
        patches.replace("dht.Network", "publish", timer.timed("publish", summary=len))
        patches.replace("dht.Network", "publish", _online_holders(online))
        patches.replace("sim", "request_access", timer.timed("access"))
        patches.replace("sim", "request_access_via_holder", timer.timed("access"))

    done = _scenario_run(run, config, seconds, trace, timers)
    if done is None:
        return run
    m, _result = done
    # A publish owes one receipt per online holder of its neighborhood, and
    # every scripted access is by a live grant's grantee. Churn 0.2 leaves
    # all four holders of a record offline now and then, or a patient and
    # every holder of the grant: those ops are unserved, which is the right
    # answer, not a failed op; they are counted apart.
    accesses = [entry for _setup, _wall, log in m.results for entry in log]
    publishes = m.timer.results["publish"]
    run.attempted = len(publishes) + len(accesses)
    run.failed = sum(1 for got, owed in zip(publishes, online, strict=True) if got != owed) + sum(
        1 for entry in accesses if entry["outcome"] not in ("granted", "unreachable")
    )
    run.unserved = online.count(0) + sum(
        1 for entry in accesses if entry["outcome"] == "unreachable"
    )
    run.op_s = m.timer.samples["publish"]
    run.named["publish_ms_p50"] = (run.op_ms(50), "ms")
    run.named["publish_ms_p95"] = (run.op_ms(95), "ms")
    run.named["access_ms_p50"] = (run.op_ms(50, m.timer.samples["access"]), "ms")
    return _finish(run, m)


def run_fuel_market(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("fuel_market", rate_unit="ticks", op_name="settle")
    doc = fuel_market_doc(seed)
    config = sim.config_from_dict(doc)
    scripted_attacks = sum(1 for op in doc["script"] if op["op"] == "attack")

    def timers(timer: OpTimer, patches: Patches) -> None:
        # honest transfers only: the double-spend attack settles unaudited
        honest = timer.timed(
            "settle",
            keep=lambda args, kwargs: kwargs.get("audit", True),
            summary=lambda result: result[0] is not None,
        )
        patches.replace("sim", "settle", honest)

    done = _scenario_run(run, config, seconds, trace, timers)
    if done is None:
        return run
    m, result = done
    counts = result.metrics
    run.check(
        "attacks detected + missed == attempted",
        counts.attacks_detected + counts.attacks_missed == counts.attacks_attempted,
        f"{counts.attacks_detected} + {counts.attacks_missed} vs {counts.attacks_attempted}",
    )
    run.check(
        "every scripted attack was attempted",
        counts.attacks_attempted == scripted_attacks,
        f"{counts.attacks_attempted} of {scripted_attacks}",
    )
    settles = m.timer.results["settle"]
    run.attempted = len(settles)
    run.failed = settles.count(False)
    run.op_s = m.timer.samples["settle"]
    run.named["transfer_ms_p50"] = (run.op_ms(50), "ms")
    run.named["transfer_ms_p95"] = (run.op_ms(95), "ms")
    return _finish(run, m)


# ---------------------------------------------------------------------------
# chain_audit: the read side of the chain layer


def _audit_setup(seed: int) -> list[tuple[str, bytes, int]]:
    """(export text, pinned head, record count) per chain."""
    out = []
    for agent in build_audit_chains(seed):
        records = agent.chain.records
        out.append(
            (chain.export_records(records), chain.header_hash(records[-1].header), len(records))
        )
    return out


def _audit_pass(chains: list[tuple[str, bytes, int]]) -> tuple[float, list[float], int]:
    """Parse and verify every chain once: (seconds, seconds per chain,
    chains that failed)."""
    durations = []
    failed = 0
    start = clock()
    for text, head, _count in chains:
        t0 = clock()
        records = chain.parse_chain_text(text)
        report = chain.verify_records(records, expected_head=head)
        durations.append(clock() - t0)
        failed += not report.ok
    return clock() - start, durations, failed


def _mutation_misses(seed: int, chains: list[tuple[str, bytes, int]]) -> list[str]:
    """One seeded single-field mutation per chain; each must be reported
    at the mutated record."""
    rng = random.Random(f"chain_audit:{seed}:mutations")
    missed = []
    for index, (text, head, count) in enumerate(chains):
        records = chain.parse_chain_text(text)
        at = rng.randrange(count)
        how = MUTATION_KINDS[index % len(MUTATION_KINDS)]
        records[at] = sim.mutate_record(records[at], how, rng)
        report = chain.verify_records(records, expected_head=head)
        if report.ok or report.first_failure_index != at:
            missed.append(f"chain {index} {how}@{at}: {report}")
    return missed


def _no_timers(timer: OpTimer, patches: Patches) -> None:
    pass


def _audit_episode(seed: int, first: list) -> tuple[float, float, list[float], int]:
    """Build the chains, then parse and verify them once: (set-up seconds,
    pass seconds, seconds per chain, chains that failed). The first build
    is kept in `first` for the checks."""
    t0 = clock()
    chains = _audit_setup(seed)
    setup = clock() - t0
    if not first:
        first.append(chains)
    return (setup, *_audit_pass(chains))


def run_chain_audit(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("chain_audit", rate_unit="records", op_name="chain parse+verify")
    total = AUDIT_CHAINS * AUDIT_RECORDS
    first: list[list[tuple[str, bytes, int]]] = []
    m = measure(seconds, functools.partial(_audit_episode, seed, first), _no_timers, trace)
    chains = first[0]
    honest_failures = sum(failed for *_times, failed in m.results)
    run.check("every honest chain verifies against its pinned head", honest_failures == 0,
              f"{honest_failures} failed")
    run.check("chains hold the stated records", sum(c[2] for c in chains) == total)
    missed = _mutation_misses(seed, chains)
    run.check("every mutation is caught at the mutated record", not missed, "; ".join(missed))
    run.counters = {"chains": len(chains), "records": total, "mutations": len(chains)}
    run.fingerprint = _sha256([text for text, _head, _count in chains])
    run.slowdown = m.slowdown
    run.setup_s = [setup for setup, _wall, _durations, _failed in m.results]
    run.work = total
    run.episode_s = [wall for _setup, wall, _durations, _failed in m.results]
    run.op_s = [d for _setup, _wall, durations, _failed in m.results for d in durations]
    run.attempted = len(m.results) * len(chains) + len(chains)
    run.failed = honest_failures + len(missed)
    run.named["verify_records_per_s"] = (run.ops_per_s(), "records/s")
    return _finish(run, m)


# ---------------------------------------------------------------------------
# shard_publish: the dht write path at a larger population


def _shard_episode(n: int, m: int, r: int, seed: int) -> tuple[float, dict | str]:
    """(start time, the counts or the failed assertion)."""
    t0 = clock()
    try:
        return t0, bench.run_holochain_count(n, m, r, seed)
    except AssertionError as exc:
        return t0, str(exc)


def run_shard_publish(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("shard_publish", rate_unit="publishes", op_name="publish")
    n, m, r = SHARD_AGENTS, SHARD_ENTRIES, SHARD_REDUNDANCY

    holder_sets: list[str] = []  # of the first episode, for the fingerprint

    def receipts(issued: list) -> int:
        if issued and len(holder_sets) < m:
            holders = ",".join(sorted(receipt.holder.hex() for receipt in issued))
            holder_sets.append(f"{issued[0].key.hex()}:{holders}")
        return len(issued)

    def timers(timer: OpTimer, patches: Patches) -> None:
        patches.replace("dht.Network", "publish", timer.timed("publish", summary=receipts))

    measured = measure(seconds, functools.partial(_shard_episode, n, m, r, seed), timers, trace)
    results = measured.results
    errors = [counts for _t0, counts in results if isinstance(counts, str)]
    run.check("every publish gathers r receipts", not errors, "; ".join(errors[:3]))
    if errors:
        return run
    run.counters = dict(results[0][1])
    stores = {counts["stores"] for _t0, counts in results}
    messages = {counts["messages"] for _t0, counts in results}
    run.check("stores == 2n + m + m*r", stores == {2 * n + m + m * r},
              f"{sorted(stores)} vs {2 * n + m + m * r}")
    run.check("messages == m*r", messages == {m * r}, f"{sorted(messages)} vs {m * r}")
    run.slowdown = measured.slowdown
    starts = measured.timer.starts["publish"]
    gathered = measured.timer.results["publish"]
    run.op_s = measured.timer.samples["publish"]
    run.fingerprint = _sha256(sorted(holder_sets))
    run.work = m
    for k, (t0, _counts) in enumerate(results):
        first, last = k * m, (k + 1) * m - 1
        run.setup_s.append(starts[first] - t0)
        run.episode_s.append(starts[last] + run.op_s[last] - starts[first])
    run.attempted = len(gathered)
    run.failed = sum(1 for count in gathered if count < r)
    run.named["publish_ms_p50"] = (run.op_ms(50), "ms")
    run.named["publish_ms_p95"] = (run.op_ms(95), "ms")
    return _finish(run, measured)


WORKLOADS: dict[str, Callable[[int, float, bool], Run]] = {
    "ward_churn": run_ward_churn,
    "fuel_market": run_fuel_market,
    "chain_audit": run_chain_audit,
    "shard_publish": run_shard_publish,
}
