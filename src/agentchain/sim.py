"""Deterministic seeded simulator for whole-network scenarios.

A scenario is a JSON document: population size, tick count, knobs, and a
script of per-tick operations (vitals, grants, accesses, transfers,
presence changes, attacks). One `random.Random(seed)` drives every draw --
churn, gossip partner choice, witness sampling, adversary targets -- so a
fixed config yields byte-identical metrics and chain exports.

Each tick runs: presence churn, scripted ops, one gossip round, invariant
checks, then a cumulative metrics snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .chain import (
    Record,
    export_records,
    header_hash,
    record_key,
    verify_chain,
    verify_records,
)
from .crypto import hash_bytes
from .dht import (
    Agent,
    CrossNetworkError,
    Network,
    NewsClaim,
    agent_seed,
    make_agent,
)
from .fuel import (
    AMOUNT_CAP,
    FUEL_TX_TYPE,
    FuelError,
    FuelTransaction,
    TransferRefused,
    accept_fuel_tx,
    append_seed_grant,
    balance,
    complete_transfer,
    create_fuel_tx,
    settle,
    transfer_claim,
    walk_balance,
)
from .healthcare import (
    GRANT_TYPE,
    CapabilityGrant,
    VITALS_METRICS,
    create_grant,
    healthcare_dna,
    note_token,
    publish_vitals,
    request_access,
    request_access_via_holder,
    revoke_grant,
    VitalsReading,
)
from .metrics import Metrics, MetricsLog
from .reputation import is_blacklisted
from .validation import Marketplace


class ConfigError(ValueError):
    pass


class ScenarioAssertion(AssertionError):
    """A scripted expectation did not hold."""


class AttackKind(enum.Enum):
    TAMPER_OWN_HISTORY = "tamper_own_history"
    MITM_MUTATION = "mitm_mutation"
    DOUBLE_SPEND = "double_spend"
    FORGED_TOKEN = "forged_token"
    DNA_FORK = "dna_fork"
    UNAUTHORIZED_ACCESS = "unauthorized_access"
    DOS_FLOOD = "dos_flood"


# fields each script op's handler reads unconditionally; attacks are keyed
# by kind. Checked when the script loads, so a malformed op never runs.
_OP_FIELDS: dict[str, tuple[str, ...]] = {
    "vitals": ("patient",),
    "report": ("agent",),
    "grant": ("patient", "grantee"),
    "revoke": ("patient", "token"),
    "access": ("patient", "requester", "token"),
    "seed_fuel": ("agent", "amount"),
    "transfer": ("sender", "receiver", "amount"),
    "presence": ("agent", "online"),
    "publish_seq": ("agent", "seq"),
    "attack:tamper_own_history": ("agent",),
    "attack:mitm_mutation": ("victim",),
    "attack:double_spend": ("agent",),
    "attack:forged_token": ("agent", "patient"),
    "attack:dna_fork": (),
    "attack:unauthorized_access": ("agent", "patient", "token"),
    "attack:dos_flood": ("agent", "victim"),
}


# required fields that name an agent by index; dna_fork's optional agent
# names a rogue outside the population and is not one of them
_AGENT_FIELDS = frozenset(
    ("agent", "patient", "grantee", "requester", "sender", "receiver", "victim")
)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_op(op: dict, n_agents: int) -> None:
    where = f"tick {op['tick']} op {op['op']}"
    if not _is_int(op["tick"]):
        raise ConfigError(f"{where}: tick must be an integer")
    name = op["op"]
    if name == "attack":
        if "kind" not in op:
            raise ConfigError(f"{where}: missing field 'kind'")
        name = f"attack:{op['kind']}"
    required = _OP_FIELDS.get(name) if isinstance(name, str) else None
    if required is None:
        raise ConfigError(f"{where}: unknown script op {name!r}")
    missing = [f for f in required if f not in op]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {', '.join(missing)}")
    for f in _AGENT_FIELDS.intersection(required):
        if not (_is_int(op[f]) and 0 <= op[f] < n_agents):
            raise ConfigError(f"{where}: {f} must be an agent index in [0, {n_agents})")
    if name == "publish_seq" and not _is_int(op["seq"]):
        raise ConfigError(f"{where}: seq must be an integer")
    # required for seed_fuel and transfer, optional for a double spend
    if name in ("seed_fuel", "transfer", "attack:double_spend") and "amount" in op:
        if not (_is_int(op["amount"]) and 0 < op["amount"] <= AMOUNT_CAP):
            raise ConfigError(f"{where}: amount must be an integer in [1, {AMOUNT_CAP}]")
    if "token" in required:
        token = op["token"]
        if not isinstance(token, str):
            raise ConfigError(f"{where}: token must be a $slot or a hex string")
        if not token.startswith("$"):
            try:
                bytes.fromhex(token)
            except ValueError:
                raise ConfigError(f"{where}: token {token!r} is neither a $slot nor hex") from None
    if name == "vitals":
        metric = op.get("metric", "pulse")
        if not (isinstance(metric, str) and metric in VITALS_METRICS):
            raise ConfigError(f"{where}: unknown metric {metric!r}")
        _unit, lo, hi = VITALS_METRICS[metric]
        value = op.get("value", lo)
        if not (_is_int(value) and lo <= value <= hi):
            raise ConfigError(f"{where}: {metric} value {value!r} outside [{lo}, {hi}]")


_CONFIG_KEYS = {
    "name",
    "seed",
    "n_agents",
    "ticks",
    "redundancy",
    "fanout",
    "witnesses",
    "audit_samples",
    "blacklist_threshold",
    "rate_limit",
    "backup_factor",
    "churn",
    "churn_start_tick",
    "holder_serve",
    "seed_fuel",
    "script",
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 1
    n_agents: int = 12
    ticks: int = 20
    redundancy: int = 4
    fanout: int = 2
    witnesses: int = 8
    audit_samples: int = 8
    blacklist_threshold: float = 0.1
    rate_limit: int = 100
    backup_factor: float = 2.0
    churn: float = 0.0
    churn_start_tick: int = 0
    holder_serve: bool = False
    seed_fuel: int = 0
    script: tuple = ()

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ConfigError("n_agents must be at least 1")
        if self.ticks < 1:
            raise ConfigError("ticks must be at least 1")
        if self.redundancy < 1:
            raise ConfigError("redundancy must be at least 1")
        if self.n_agents < self.redundancy:
            raise ConfigError(
                f"population {self.n_agents} cannot host {self.redundancy} "
                "holders per record"
            )
        if not 0.0 <= self.churn < 1.0:
            raise ConfigError("churn must be in [0, 1)")
        if self.fanout < 1:
            raise ConfigError("fanout must be at least 1")


def config_from_dict(doc: dict) -> ScenarioConfig:
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    doc = dict(doc)
    if "script" in doc:
        doc["script"] = tuple(doc["script"])
    return ScenarioConfig(**doc)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario file must hold a JSON object")
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# the simulation

@dataclass
class SimResult:
    config: ScenarioConfig
    network: Network
    metrics: Metrics
    metrics_log: MetricsLog
    access_log: list[dict]
    slots: dict[str, bytes]
    revoke_published: dict[bytes, int] = field(default_factory=dict)
    availability_hits: int = 0
    availability_slots: int = 0

    def summary(self) -> dict:
        granted = sum(1 for e in self.access_log if e["outcome"] == "granted")
        denied = len(self.access_log) - granted
        return {
            "scenario": self.config.name,
            "seed": self.config.seed,
            "agents": self.config.n_agents,
            "ticks": self.config.ticks,
            "metrics": self.metrics.snapshot(),
            "access": {"granted": granted, "denied": denied},
            "attacks": {
                "attempted": self.metrics.attacks_attempted,
                "detected": self.metrics.attacks_detected,
                "missed": self.metrics.attacks_missed,
            },
            "conservation_intact": self.metrics.conservation_violations == 0,
            "availability": {
                "hits": self.availability_hits,
                "slots": self.availability_slots,
            },
        }


class Simulation:
    def __init__(self, config: ScenarioConfig, marketplace: Marketplace | None = None):
        self.config = config
        self.rng = random.Random(config.seed)
        self.metrics = Metrics()
        dna = healthcare_dna(redundancy=config.redundancy)
        self.network = Network(
            dna,
            marketplace if marketplace is not None else Marketplace(),
            metrics=self.metrics,
            fanout=config.fanout,
            rate_limit=config.rate_limit,
            backup_factor=config.backup_factor,
            witness_count=config.witnesses,
            audit_samples=config.audit_samples,
        )
        for i in range(config.n_agents):
            agent = make_agent(
                i,
                agent_seed(config.seed, i),
                dna,
                clock=0,
                blacklist_threshold=config.blacklist_threshold,
            )
            self.network.join(agent)
        self.seed_total = 0
        if config.seed_fuel > 0:
            for agent in self.network.agents:
                append_seed_grant(agent, config.seed_fuel, 0)
                self.seed_total += config.seed_fuel
        self.metrics_log = MetricsLog()
        self.slots: dict[str, bytes] = {}
        self.access_log: list[dict] = []
        self.tracked_keys: list[bytes] = []
        self.revoke_published: dict[bytes, int] = {}
        self.availability_hits = 0
        self.availability_slots = 0
        self._tampered: dict[int, set[int]] = {}
        self._script_by_tick: dict[int, list[dict]] = {}
        for op in config.script:
            if "tick" not in op or "op" not in op:
                raise ConfigError(f"script op needs tick and op: {op}")
            _check_op(op, config.n_agents)
            self._script_by_tick.setdefault(op["tick"], []).append(op)

    # -- helpers -------------------------------------------------------------

    def agent(self, index: int) -> Agent:
        return self.network.agents[index]

    def _token(self, tick: int, op: dict) -> bytes:
        """The op's token: a literal (hex, checked at load) or a $slot
        filled by an earlier grant's save_as."""
        ref = op["token"]
        if not ref.startswith("$"):
            return bytes.fromhex(ref)
        name = ref[1:]
        if name not in self.slots:
            raise ConfigError(f"tick {tick} op {op['op']}: token slot {name!r} has not been filled")
        return self.slots[name]

    # -- main loop ------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        for tick in range(cfg.ticks):
            self.network.begin_tick(tick)
            self._churn(tick)
            for op in self._script_by_tick.get(tick, ()):
                getattr(self, "_op_" + op["op"])(tick, op)
            self.network.gossip_round(self.rng)
            self._check_invariants(tick)
            self.metrics_log.record(tick, self.metrics)
        self._cross_check_balances()
        result = SimResult(
            config=cfg,
            network=self.network,
            metrics=self.metrics,
            metrics_log=self.metrics_log,
            access_log=self.access_log,
            slots=self.slots,
            revoke_published=self.revoke_published,
            availability_hits=self.availability_hits,
            availability_slots=self.availability_slots,
        )
        problems = audit_access_log(result)
        if problems:
            raise ScenarioAssertion("; ".join(problems))
        return result

    def _churn(self, tick: int) -> None:
        cfg = self.config
        if cfg.churn <= 0 or tick < cfg.churn_start_tick:
            return
        for agent in self.network.agents:
            if agent.pinned_presence:
                continue
            agent.online = self.rng.random() >= cfg.churn

    def _cross_check_balances(self) -> None:
        """Each running balance against a walk of its whole chain, once per
        run, so the per-tick conservation check loses no strength."""
        for agent in self.network.agents:
            running, walked = balance(agent.chain), walk_balance(agent.chain)
            if running != walked:
                raise ScenarioAssertion(
                    f"agent {agent.index}: running balance {running} != walk {walked}"
                )

    def _check_invariants(self, tick: int) -> None:
        # running balances: O(1) per agent, plus the records new since the
        # last tick; _cross_check_balances ties them to the full walk
        total = sum(balance(a.chain) for a in self.network.agents)
        if total != self.seed_total:
            self.metrics.conservation_violations += 1
        m = self.metrics
        if m.attacks_detected + m.attacks_missed != m.attacks_attempted:
            raise ScenarioAssertion(
                f"tick {tick}: attack accounting off: {m.attacks_attempted} "
                f"attempted vs {m.attacks_detected}+{m.attacks_missed}"
            )
        if self.tracked_keys:
            for key in self.tracked_keys:
                self.availability_slots += 1
                if any(a.online and a.holds(key) for a in self.network.agents):
                    self.availability_hits += 1

    # -- script ops ---------------------------------------------------------------

    def _op_vitals(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        metric = op.get("metric", "pulse")
        lo, hi = VITALS_METRICS[metric][1], VITALS_METRICS[metric][2]
        value = op.get("value", (lo + hi) // 2)
        record = publish_vitals(
            patient,
            VitalsReading(metric=metric, value=value, taken_at=tick),
            tick,
            network=self.network,
            to_dht=bool(op.get("share", False)),
        )
        if op.get("track", False):
            self.tracked_keys.append(record_key(record))

    def _op_report(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        record = agent.append("report", {"text": op.get("text", "status ok")}, tick)
        if op.get("share", True):
            self.network.publish(agent, record)
            if op.get("track", False):
                self.tracked_keys.append(record_key(record))

    def _op_grant(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        grantee = self.agent(op["grantee"])
        grant = CapabilityGrant(
            grantee=grantee.public_key,
            entry_type=op.get("entry_type", "vitals_*"),
            seq_lo=op.get("seq_lo"),
            seq_hi=op.get("seq_hi"),
            expires_at=op.get("expires_at"),
        )
        token, _record = create_grant(
            patient, grant, tick, network=self.network,
            publish=bool(op.get("publish", True)),
        )
        note_token(grantee, token, tick)
        if "save_as" in op:
            self.slots[op["save_as"]] = token

    def _op_revoke(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        token = self._token(tick, op)
        publish = bool(op.get("publish", True))
        revoke_grant(patient, token, tick, network=self.network, publish=publish)
        if publish:
            self.revoke_published[token] = tick

    def _op_access(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        requester = self.agent(op["requester"])
        token = self._token(tick, op)
        outcome, n_records, served_by = self._attempt_access(
            tick, patient, requester.public_key, token
        )
        entry = {
            "tick": tick,
            "patient": patient.index,
            "requester": requester.index,
            "token": token.hex(),
            "outcome": outcome,
            "records": n_records,
            "served_by": served_by,
            "chain_length": len(patient.chain),
        }
        self.access_log.append(entry)
        expect = op.get("expect")
        if expect is not None and expect != outcome:
            raise ScenarioAssertion(
                f"tick {tick}: access expected {expect!r}, got {outcome!r}"
            )

    def _attempt_access(
        self, tick: int, patient: Agent, requester_key: bytes, token: bytes
    ) -> tuple[str, int, str]:
        self.metrics.messages += 1
        if patient.online:
            result = request_access(patient, requester_key, token, tick)
            served_by = "patient"
        elif self.config.holder_serve:
            holders = [
                a
                for a in self.network.holders_of(token)
                if a.online and a is not patient
            ]
            if not holders:
                self.metrics.accesses_denied += 1
                return "unreachable", 0, "none"
            holder = min(holders, key=lambda a: a.index)
            result = request_access_via_holder(
                self.network, holder, requester_key, token, tick
            )
            served_by = f"holder:{holder.index}"
        else:
            self.metrics.accesses_denied += 1
            return "unreachable", 0, "none"
        if result.granted:
            self.metrics.accesses_granted += 1
            return "granted", len(result.records), served_by
        self.metrics.accesses_denied += 1
        return f"denied:{result.reason.value}", 0, served_by

    def _op_seed_fuel(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        amount = op["amount"]
        append_seed_grant(agent, amount, tick)
        self.seed_total += amount

    def _op_transfer(self, tick: int, op: dict) -> None:
        sender = self.agent(op["sender"])
        receiver = self.agent(op["receiver"])
        try:
            tx, verdict = settle(
                self.network,
                sender,
                receiver,
                op["amount"],
                tick,
                self.rng,
                publish=bool(op.get("publish", True)),
            )
        except TransferRefused as exc:
            if op.get("expect_ok", True):
                raise ScenarioAssertion(f"tick {tick}: transfer refused: {exc}") from None
            return
        except FuelError as exc:
            raise ConfigError(f"tick {tick} op transfer: {exc}") from None
        if op.get("expect_ok", True) and tx is None:
            raise ScenarioAssertion(
                f"tick {tick}: transfer rejected: conflict "
                f"{verdict.conflicting_tx.hex()[:12]}"
            )

    def _op_presence(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        agent.pinned_presence = True
        agent.online = bool(op["online"])

    def _op_publish_seq(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        seq, length = op["seq"], len(agent.chain.records)
        if not 0 <= seq < length:
            raise ConfigError(f"tick {tick} op publish_seq: seq {seq} outside the chain [0, {length})")
        record = agent.chain.records[seq]
        self.network.publish(agent, record)
        if op.get("track", False):
            self.tracked_keys.append(record_key(record))

    # -- attacks -----------------------------------------------------------------

    def _op_attack(self, tick: int, op: dict) -> None:
        getattr(self, "_attack_" + op["kind"])(tick, op)

    def _tally(self, detected: bool) -> None:
        """Count one attack attempt and its outcome; the only writer of the
        three attack counters."""
        m = self.metrics
        m.attacks_attempted += 1
        if detected:
            m.attacks_detected += 1
        else:
            m.attacks_missed += 1

    def _attack_tamper_own_history(self, tick: int, op: dict) -> None:
        """Agent alters a payload already committed to its own chain, then
        tries to push the altered record. Headers still commit to the old
        bytes, so every honest check must fail."""
        agent = self.agent(op["agent"])
        already = self._tampered.setdefault(agent.index, set())
        seq = op.get("seq")
        if seq is None:
            candidates = [
                r.header.seq
                for r in agent.chain.records[2:]
                if r.header.entry_type != FUEL_TX_TYPE and r.header.seq not in already
            ]
            if not candidates:
                agent.append("report", {"text": "padding"}, tick)
                candidates = [agent.chain.records[-1].header.seq]
            seq = self.rng.choice(candidates)
        already.add(seq)
        original = agent.chain.records[seq]
        mutated_payload = bytes(original.payload[:-1]) + bytes(
            [original.payload[-1] ^ 0x01]
        )
        agent.chain.replace_at(seq, Record(original.header, mutated_payload))
        receipts = self.network.publish(agent, agent.chain.records[seq])
        chain_flagged = not verify_chain(agent.chain).ok
        self._tally(not receipts and chain_flagged)

    def _attack_mitm_mutation(self, tick: int, op: dict) -> None:
        """Wire-level bit flip between an honest author and its validators.
        The envelope signature dies with the payload, so the record is
        dropped without blaming the author."""
        victim = self.agent(op["victim"])

        def flip(kind: str, sender: Agent, receiver: Agent, payload: bytes) -> bytes:
            if kind == "publish" and sender is victim:
                return payload[:-1] + bytes([payload[-1] ^ 0x80])
            return payload

        record = victim.append("report", {"text": op.get("text", "routine")}, tick)
        key = record_key(record)
        self.network.wire_hooks.append(flip)
        try:
            receipts = self.network.publish(victim, record)
        finally:
            self.network.wire_hooks.remove(flip)
        stored = [a for a in self.network.agents if key in a.shard]
        victim_blamed = any(
            is_blacklisted(a.experience, victim.public_key)
            for a in self.network.agents
            if a is not victim
        )
        self._tally(not receipts and not stored and not victim_blamed)

    def _attack_double_spend(self, tick: int, op: dict) -> None:
        """Spend, then spend the same prior state again at someone who was
        not a witness to the first transfer; the first transfer lands on
        the sender's chain only afterwards."""
        sender = self.agent(op["agent"])
        try:
            tx1, detected = double_spend(
                self.network, sender, op.get("amount", 1), tick, self.rng
            )
        except FuelError as exc:
            raise ConfigError(f"tick {tick} op attack: {exc}") from None
        complete_transfer(sender, tx1, self.network, tick, publish=False)
        self._tally(detected)

    def _attack_forged_token(self, tick: int, op: dict) -> None:
        """Guess capability tokens against a patient. Tokens are digests of
        signed grant records, so guessing is the only move without one."""
        requester = self.agent(op["agent"])
        patient = self.agent(op["patient"])
        probes = int(op.get("probes", 100))
        held = 0
        for _ in range(probes):
            fake = self.rng.randbytes(32)
            outcome, n_records, _ = self._attempt_access(
                tick, patient, requester.public_key, fake
            )
            self._tally(outcome != "granted")
            held += n_records
        self.access_log.append(
            {
                "tick": tick,
                "patient": patient.index,
                "requester": requester.index,
                "token": "forged-probes",
                "outcome": f"probes:{probes}:leaked:{held}",
                "records": held,
                "served_by": "patient",
            }
        )

    def _attack_dna_fork(self, tick: int, op: dict) -> None:
        """Agent bootstrapped from an altered blueprint tries to take part
        in this network."""
        index = op.get("agent", self.config.n_agents)
        forked_dna = dataclasses.replace(
            self.network.dna, app_name=self.network.dna.app_name + "-fork"
        )
        rogue = make_agent(index, agent_seed(self.config.seed, 10_000 + index), forked_dna, clock=tick)
        joined = True
        try:
            self.network.join(rogue)
        except CrossNetworkError:
            joined = False
        published = True
        try:
            self.network.publish(rogue, rogue.chain.records[-1])
        except CrossNetworkError:
            published = False
        self._tally(not joined and not published)

    def _attack_unauthorized_access(self, tick: int, op: dict) -> None:
        """Present a real token that was granted to somebody else."""
        requester = self.agent(op["agent"])
        patient = self.agent(op["patient"])
        token = self._token(tick, op)
        outcome, _, _ = self._attempt_access(
            tick, patient, requester.public_key, token
        )
        self._tally(outcome != "granted")
        self.access_log.append(
            {
                "tick": tick,
                "patient": patient.index,
                "requester": requester.index,
                "token": token.hex(),
                "outcome": outcome,
                "records": 0,
                "served_by": "patient" if patient.online else "none",
                "chain_length": len(patient.chain),
            }
        )

    def _attack_dos_flood(self, tick: int, op: dict) -> None:
        """Burst junk claims at one victim well past the per-tick rate cap."""
        attacker = self.agent(op["agent"])
        victim = self.agent(op["victim"])
        count = int(op.get("count", self.config.rate_limit + 50))
        before = self.metrics.rejections
        for i in range(count):
            junk = NewsClaim(
                kind="transfer",
                subject=hash_bytes(b"noise" + i.to_bytes(4, "big")),
                agent=attacker.public_key,
                extra=self.rng.randbytes(8),
            )
            self.network.send_claim(attacker, victim, junk)
        self._tally(self.metrics.rejections > before)


def run_scenario(config: ScenarioConfig, marketplace: Marketplace | None = None) -> SimResult:
    return Simulation(config, marketplace).run()


def audit_access_log(result: SimResult) -> list[str]:
    """Recompute every granted access from chain state alone.

    Independent of the request path: a grant for the requester must sit on
    the patient's chain, unexpired, and any revocation the server could
    have known about must postdate the access. A patient serves from its
    own chain, so for its entries both are judged by seq against the chain
    length the entry logged at serve time; ticks cannot order ops within
    one tick.
    """
    problems: list[str] = []
    for entry in result.access_log:
        if entry["outcome"] != "granted":
            continue
        patient = result.network.agents[entry["patient"]]
        requester = result.network.agents[entry["requester"]]
        token = bytes.fromhex(entry["token"])
        tick = entry["tick"]
        served_by_patient = entry["served_by"] == "patient"
        grant_record = patient.chain.lookup(token)
        if (
            grant_record is None
            or grant_record.header.entry_type != GRANT_TYPE
            or (served_by_patient and grant_record.header.seq >= entry["chain_length"])
        ):
            problems.append(f"tick {tick}: granted access with no grant on chain")
            continue
        fields = grant_record.fields
        if fields["grantee"] != requester.public_key:
            problems.append(f"tick {tick}: grant names a different grantee")
        expires = fields.get("expires_at")
        if expires is not None and tick > expires:
            problems.append(f"tick {tick}: grant expired at {expires}")
        for record in patient.chain.records:
            if record.header.entry_type != "cap_revoke":
                continue
            if record.fields.get("token") != token:
                continue
            if served_by_patient:
                if record.header.seq < entry["chain_length"]:
                    problems.append(f"tick {tick}: patient served a revoked grant")
            else:
                # holders learn of revocations by gossip; only flag serves
                # made after the dissemination window had clearly passed
                published_at = result.revoke_published.get(token)
                slack = math.ceil(math.log2(max(2, result.config.n_agents))) + 2
                if published_at is not None and tick > published_at + slack:
                    problems.append(
                        f"tick {tick}: holder served a grant revoked publicly "
                        f"at tick {published_at}"
                    )
    return problems


# ---------------------------------------------------------------------------
# attack experiments: the same code as the scripted attacks, repeated


def double_spend(
    network: Network, sender: Agent, amount: int, clock: int, rng: random.Random
) -> tuple[FuelTransaction, bool]:
    """Spend the sender's current state at one online peer, then spend the
    same prior state again at a peer that did not witness the first one.

    The first transfer is accepted unaudited and unpublished; the sender
    does not record it, so its chain still signs against the old state.
    Returns the first transfer and whether the victim's audit caught the
    second.
    """
    others = [a for a in network.agents if a is not sender and a.online]
    if len(others) < 2:
        raise ConfigError("double_spend needs at least two other online agents")
    first_receiver = rng.choice(others)
    pending1 = create_fuel_tx(sender.chain, first_receiver.public_key, amount, clock)
    tx1, _ = accept_fuel_tx(
        first_receiver, pending1, network, clock, rng, audit=False, publish=False
    )
    cid = transfer_claim(tx1.tx_id, tx1.sender, tx1.sender_prev_tx).claim_id
    witnesses = {a.index for a in network.agents if cid in a.news}
    # the first receiver is always a witness, so the fallback is any third
    # party: re-approaching it would replay the identical transfer
    victims = [a for a in others if a.index not in witnesses]
    if not victims:
        victims = [a for a in others if a is not first_receiver]
    victim = rng.choice(victims)
    pending2 = create_fuel_tx(sender.chain, victim.public_key, amount, clock)
    tx2, verdict = accept_fuel_tx(victim, pending2, network, clock, rng, publish=False)
    return tx1, tx2 is None and not verdict.ok


def expected_double_spend_rate(n_agents: int, witnesses: int, audit_samples: int) -> float:
    """Chance at least one audited peer witnessed the first spend.

    The victim samples audit_samples peers from the n_agents - 1 others;
    witnesses of the first transfer number `witnesses` among them (the
    victim itself is never one, or it would have refused outright).
    """
    pool = n_agents - 1
    if witnesses >= pool:
        return 1.0
    k = min(audit_samples, pool)
    return 1.0 - math.comb(pool - witnesses, k) / math.comb(pool, k)


def run_double_spend_experiment(
    seed: int,
    trials: int,
    n_agents: int = 50,
    witnesses: int = 8,
    audit_samples: int = 8,
) -> dict:
    """Monte Carlo double-spend detection rate under witness sampling.

    Agent 0 double-spends once per trial; every chain, score and news pool
    goes back to its starting state between trials."""
    rng = random.Random(seed)
    dna = healthcare_dna(redundancy=4)
    network = Network(
        dna,
        Marketplace(),
        witness_count=witnesses,
        audit_samples=audit_samples,
    )
    for i in range(n_agents):
        network.join(make_agent(i, agent_seed(seed, i), dna))
    for agent in network.agents:
        append_seed_grant(agent, 100, 0)
    base_len = len(network.agents[0].chain.records)
    sender = network.agents[0]
    detected = 0
    for trial in range(trials):
        clock = trial + 1
        network.begin_tick(clock)
        _tx1, caught = double_spend(network, sender, 1, clock, rng)
        detected += caught
        for agent in network.agents:
            agent.chain.truncate(base_len)
            agent.experience.rows.clear()
        network.clear_news()
    rate = detected / trials if trials else 0.0
    return {
        "attempted": trials,
        "detected": detected,
        "missed": trials - detected,
        "rate": rate,
        "expected_rate": expected_double_spend_rate(n_agents, witnesses, audit_samples),
        "n_agents": n_agents,
        "witnesses": witnesses,
        "audit_samples": audit_samples,
    }


_HEADER_MUTATIONS = (
    "seq",
    "timestamp",
    "entry_type",
    "entry_hash",
    "author",
    "prev_header_hash",
    "signature",
    "payload",
)


def _flip_byte(data: bytes, rng: random.Random) -> bytes:
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 + rng.randrange(255))]) + data[i + 1:]


def mutate_record(record: Record, how: str, rng: random.Random) -> Record:
    """One targeted single-field mutation, used by the tamper fuzzer."""
    h = record.header
    if how == "payload":
        return Record(h, _flip_byte(record.payload, rng) if record.payload else b"\x01")
    if how == "seq":
        value: Any = h.seq + 1 + rng.randrange(3)
    elif how == "timestamp":
        value = h.timestamp + 1 + rng.randrange(1000)
    elif how == "entry_type":
        value = h.entry_type + "x"
    elif how in ("entry_hash", "author", "prev_header_hash", "signature"):
        value = _flip_byte(getattr(h, how), rng)
    else:
        raise ValueError(f"unknown mutation {how!r}")
    return Record(dataclasses.replace(h, **{how: value}), record.payload)


def run_tamper_experiment(seed: int, rounds: int = 3) -> dict:
    """Exhaustive single-field mutations plus structural edits on a busy
    chain; every one must trip verification."""
    rng = random.Random(seed)
    dna = healthcare_dna()
    agent = make_agent(0, agent_seed(seed, 0), dna)
    append_seed_grant(agent, 25, 1)
    for i, metric in enumerate(sorted(VITALS_METRICS)):
        lo, hi = VITALS_METRICS[metric][1], VITALS_METRICS[metric][2]
        publish_vitals(
            agent, VitalsReading(metric, (lo + hi) // 2, 2 + i), 2 + i
        )
    agent.append("report", {"text": "all normal"}, 20)
    records = agent.chain.records
    # the verifying peer pins the head the author last announced, which is
    # what makes quiet tail truncation visible
    true_head = header_hash(records[-1].header)
    attempted = detected = 0

    def check(mutated: list[Record]) -> None:
        nonlocal attempted, detected
        attempted += 1
        if not verify_records(mutated, expected_head=true_head).ok:
            detected += 1

    for _ in range(rounds):
        for i in range(len(records)):
            for how in _HEADER_MUTATIONS:
                mutated = list(records)
                mutated[i] = mutate_record(records[i], how, rng)
                check(mutated)
        for i in range(len(records)):
            check(records[:i] + records[i + 1:])  # drop one
            check(records[:i + 1] + records[i:])  # duplicate one
        for i in range(len(records) - 1):
            swapped = list(records)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            check(swapped)
    return {"attempted": attempted, "detected": detected, "missed": attempted - detected}


def run_forged_token_experiment(seed: int, probes: int) -> dict:
    """Random 32-byte tokens against a patient holding one real grant."""
    return run_experiment(AttackKind.FORGED_TOKEN, seed, probes)


def run_experiment(kind: AttackKind, seed: int, trials: int, **kwargs) -> dict:
    """Entry point used by the command line attack runner."""
    if kind is AttackKind.DOUBLE_SPEND:
        return run_double_spend_experiment(seed, trials, **kwargs)
    if kind is AttackKind.TAMPER_OWN_HISTORY:
        return run_tamper_experiment(seed, rounds=max(1, trials))
    # the remaining kinds run as a small canned scenario
    script = _canned_attack_script(kind, trials)
    config = ScenarioConfig(
        name=f"attack-{kind.value}",
        seed=seed,
        n_agents=12,
        ticks=max(6, script[-1]["tick"] + 2),
        script=tuple(script),
    )
    result = run_scenario(config)
    return {
        "attempted": result.metrics.attacks_attempted,
        "detected": result.metrics.attacks_detected,
        "missed": result.metrics.attacks_missed,
    }


_CANNED_ATTACK_FIELDS: dict[AttackKind, dict] = {
    AttackKind.MITM_MUTATION: {"victim": 1},
    AttackKind.DNA_FORK: {},
    AttackKind.DOS_FLOOD: {"agent": 3, "victim": 1},
    AttackKind.UNAUTHORIZED_ACCESS: {"agent": 2, "patient": 0, "token": "$cap"},
}


def _canned_attack_script(kind: AttackKind, trials: int) -> list[dict]:
    grant = {"tick": 1, "op": "grant", "patient": 0, "grantee": 1, "save_as": "cap"}
    attack = {"op": "attack", "kind": kind.value}
    if kind is AttackKind.FORGED_TOKEN:
        # one op of `trials` probes, each tallied on its own, once the real
        # token has been shown to work
        return [
            grant,
            {"tick": 2, "op": "access", "patient": 0, "requester": 1, "token": "$cap",
             "expect": "granted"},
            {"tick": 3, **attack, "agent": 1, "patient": 0, "probes": trials},
        ]
    fields = _CANNED_ATTACK_FIELDS.get(kind)
    if fields is None:
        raise ConfigError(f"no canned script for {kind.value}")
    ops = [{"tick": 2 + t, **attack, **fields} for t in range(max(1, trials))]
    return [grant] + ops if kind is AttackKind.UNAUTHORIZED_ACCESS else ops


def export_all_chains(result: SimResult) -> dict[str, str]:
    """agent file name -> chain export text, for the run artifact bundle."""
    out: dict[str, str] = {}
    for agent in result.network.agents:
        out[f"agent_{agent.index:03d}.chain"] = export_records(agent.chain.records)
    return out
