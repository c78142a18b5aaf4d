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
from typing import Any, Callable

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
    DenialReason,
    HealthcareError,
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


# ---------------------------------------------------------------------------
# the input contract: each scenario key (a ScenarioConfig field) and op field
# has one (check, default). check(name, value, config, fields so far) returns
# a complaint or None; a default is a value, _REQUIRED, or a function of
# (fields so far, config), and a default of None lets the field be null.

_REQUIRED = object()


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _range(lo: Any = 0, hi: Any = None, hi_open: bool = False, what: str = "an integer",
           ok: Callable[[Any], bool] = _is_int) -> Callable:
    """A value passing `ok` in [lo, hi], or [lo, hi) if hi_open; a None
    bound is no bound, and a callable one is a function of the config."""

    def check(name: str, value: Any, cfg: Any, _fields: dict) -> str | None:
        low, high = (b(cfg) if callable(b) else b for b in (lo, hi))
        if ok(value) and (low is None or low <= value) and (
            high is None or (value < high if hi_open else value <= high)
        ):
            return None
        if high is None:
            return f"{name} must be {what}" + ("" if low is None else f" >= {low}")
        return f"{name} must be {what} in [{low}, {high}{')' if hi_open else ']'}"

    return check


def _is(kind: type | tuple, what: str) -> Callable:
    return lambda name, value, *_: None if isinstance(value, kind) else f"{name} must be {what}"


def _string(name: str, value: Any, _cfg: Any, _fields: dict) -> str | None:
    """A string UTF-8 can encode, which a lone surrogate (a JSON escape) is not."""
    if isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value):
        return None
    return f"{name} must be a UTF-8 string"


def _one_of(options: Any) -> Callable:
    return lambda name, value, *_: (
        None if isinstance(value, str) and value in options else f"unknown {name} {value!r}"
    )


def _token(name: str, value: Any, _cfg: Any, _fields: dict) -> str | None:
    """A $slot, or a non-empty hex string."""
    try:
        if value.startswith("$") or bytes.fromhex(value):
            return None
    except (AttributeError, ValueError):
        pass
    return f"{name} {value!r} is neither a $slot nor hex"


def _vitals_value(_name: str, value: Any, _cfg: Any, fields: dict) -> str | None:
    _unit, lo, hi = VITALS_METRICS[fields["metric"]]
    ok = _is_int(value) and lo <= value <= hi
    return None if ok else f"{fields['metric']} value {value!r} outside [{lo}, {hi}]"


_NUMBER = {"what": "a number", "ok": lambda v: _is_int(v) or type(v) is float and math.isfinite(v)}
_BOOL = _is(bool, "a boolean")
_AGENT = (_range(0, lambda cfg: cfg.n_agents, hi_open=True, what="an agent index"), _REQUIRED)
_AMOUNT = _range(1, AMOUNT_CAP)
_I64 = (_range(0, 2**63 - 1), None)  # payload ints are signed 64-bit
_TOKEN = (_token, _REQUIRED)
_OP = {"tick": (_range(0, lambda cfg: cfg.ticks, hi_open=True), _REQUIRED), "op": (_string, _REQUIRED)}
_ATTACK = {**_OP, "kind": (_string, _REQUIRED)}
_OUTCOMES = ["granted", "unreachable"] + [f"denied:{reason.value}" for reason in DenialReason]

# each script op's fields; attacks are keyed by kind
_OPS: dict[str, dict[str, tuple]] = {
    # a vitals value defaults to the middle of its metric's range
    "vitals": {**_OP, "patient": _AGENT, "metric": (_one_of(VITALS_METRICS), "pulse"),
               "value": (_vitals_value, lambda fields, _cfg: sum(VITALS_METRICS[fields["metric"]][1:]) // 2),
               "share": (_BOOL, False), "track": (_BOOL, False)},
    "report": {**_OP, "agent": _AGENT, "text": (_string, "status ok"), "share": (_BOOL, True),
               "track": (_BOOL, False)},
    "grant": {**_OP, "patient": _AGENT, "grantee": _AGENT, "entry_type": (_string, "vitals_*"),
              "seq_lo": _I64, "seq_hi": _I64, "expires_at": _I64, "publish": (_BOOL, True),
              "save_as": (_string, None)},
    "revoke": {**_OP, "patient": _AGENT, "token": _TOKEN, "publish": (_BOOL, True)},
    "access": {**_OP, "patient": _AGENT, "requester": _AGENT, "token": _TOKEN,
               "expect": (_one_of(_OUTCOMES), None)},
    "seed_fuel": {**_OP, "agent": _AGENT, "amount": (_AMOUNT, _REQUIRED)},
    "transfer": {**_OP, "sender": _AGENT, "receiver": _AGENT, "amount": (_AMOUNT, _REQUIRED),
                 "publish": (_BOOL, True), "expect_ok": (_BOOL, True)},
    "presence": {**_OP, "agent": _AGENT, "online": (_BOOL, _REQUIRED)},
    # a seq past the chain's end is refused when the op's tick runs
    "publish_seq": {**_OP, "agent": _AGENT, "seq": (_range(), _REQUIRED), "track": (_BOOL, False)},
    "attack:tamper_own_history": {**_ATTACK, "agent": _AGENT, "seq": (_range(), None)},
    "attack:mitm_mutation": {**_ATTACK, "victim": _AGENT, "text": (_string, "routine")},
    "attack:double_spend": {**_ATTACK, "agent": _AGENT, "amount": (_AMOUNT, 1)},
    "attack:forged_token": {**_ATTACK, "agent": _AGENT, "patient": _AGENT, "probes": (_range(), 100)},
    # the rogue is outside the population; its key seed index, 10_000 + agent, is a u32
    "attack:dna_fork": {**_ATTACK, "agent": (_range(lambda cfg: cfg.n_agents, 2**32 - 10_001),
                                             lambda _fields, cfg: cfg.n_agents)},
    "attack:unauthorized_access": {**_ATTACK, "agent": _AGENT, "patient": _AGENT, "token": _TOKEN},
    "attack:dos_flood": {**_ATTACK, "agent": _AGENT, "victim": _AGENT,
                         "count": (_range(), lambda _fields, cfg: cfg.rate_limit + 50)},
}


def _checked_op(op: Any, cfg: ScenarioConfig) -> dict:
    """A copy of `op` holding each of its op's fields, absent optional ones
    filled with their defaults, once every field passed its check."""
    if not (isinstance(op, dict) and "tick" in op and "op" in op):
        raise ConfigError(f"script op needs tick and op: {op}")
    where, name = f"tick {op['tick']} op {op['op']}", op["op"]
    if name == "attack":
        if "kind" not in op:
            raise ConfigError(f"{where}: missing field 'kind'")
        name = f"attack:{op['kind']}"
    table = _OPS.get(name) if isinstance(name, str) else None
    if table is None:
        raise ConfigError(f"{where}: unknown script op {name!r}")
    unknown = [f for f in op if f not in table]
    missing = [f for f, (_check, default) in table.items() if default is _REQUIRED and f not in op]
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ConfigError(f"{where}: {problem} field(s) {', '.join(map(str, names))}")
    fields: dict = {}
    for f, (check, default) in table.items():
        value = op[f] if f in op else default(fields, cfg) if callable(default) else default
        problem = None if value is None and default is None else check(f, value, cfg, fields)
        if problem:
            raise ConfigError(f"{where}: {problem}")
        fields[f] = value
    return fields


def _key(default: Any, check: Callable) -> Any:
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario: each field's default and check are that key's
    contract, and each op of `script` has passed `_checked_op`."""

    name: str = _key("scenario", _string)
    seed: int = _key(1, _range(None))
    n_agents: int = _key(12, _range(1))
    ticks: int = _key(20, _range(1))
    redundancy: int = _key(4, _range(1))
    fanout: int = _key(2, _range(1))
    witnesses: int = _key(8, _range(1))
    audit_samples: int = _key(8, _range(0))
    blacklist_threshold: float = _key(0.1, _range(0, 1, **_NUMBER))
    rate_limit: int = _key(100, _range(1))
    backup_factor: float = _key(2.0, _range(1, **_NUMBER))
    churn: float = _key(0.0, _range(0, 1, hi_open=True, **_NUMBER))
    churn_start_tick: int = _key(0, _range(0))
    holder_serve: bool = _key(False, _BOOL)
    seed_fuel: int = _key(0, _range(0, AMOUNT_CAP))
    script: tuple = _key((), _is((list, tuple), "a list of ops"))

    def __post_init__(self) -> None:
        for key in dataclasses.fields(self):
            problem = key.metadata["check"](key.name, getattr(self, key.name), self, {})
            if problem:
                raise ConfigError(problem)
        if self.n_agents < self.redundancy:
            raise ConfigError(f"n_agents {self.n_agents} is below redundancy {self.redundancy}")
        object.__setattr__(self, "script", tuple(_checked_op(op, self) for op in self.script))


def config_from_dict(doc: dict) -> ScenarioConfig:
    unknown = set(doc) - {key.name for key in dataclasses.fields(ScenarioConfig)}
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    return ScenarioConfig(**doc)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        record = publish_vitals(
            patient,
            VitalsReading(metric=op["metric"], value=op["value"], taken_at=tick),
            tick,
            network=self.network,
            to_dht=op["share"],
        )
        if op["track"]:
            self.tracked_keys.append(record_key(record))

    def _op_report(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        record = agent.append("report", {"text": op["text"]}, tick)
        if op["share"]:
            self.network.publish(agent, record)
            if op["track"]:
                self.tracked_keys.append(record_key(record))

    def _op_grant(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        grantee = self.agent(op["grantee"])
        grant = CapabilityGrant(
            grantee=grantee.public_key,
            entry_type=op["entry_type"],
            seq_lo=op["seq_lo"],
            seq_hi=op["seq_hi"],
            expires_at=op["expires_at"],
        )
        try:
            token = create_grant(patient, grant, tick, network=self.network, publish=op["publish"])[0]
        except HealthcareError as exc:
            raise ScenarioAssertion(f"tick {tick}: grant refused: {exc}") from None
        note_token(grantee, token, tick)
        if op["save_as"] is not None:
            self.slots[op["save_as"]] = token

    def _op_revoke(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        token = self._token(tick, op)
        try:
            revoke_grant(patient, token, tick, network=self.network, publish=op["publish"])
        except HealthcareError as exc:
            raise ConfigError(f"tick {tick} op revoke: {exc}") from None
        if op["publish"]:
            self.revoke_published[token] = tick

    def _op_access(self, tick: int, op: dict) -> None:
        patient = self.agent(op["patient"])
        requester = self.agent(op["requester"])
        outcome = self._logged_access(tick, patient, requester, self._token(tick, op))
        expect = op["expect"]
        if expect is not None and expect != outcome:
            raise ScenarioAssertion(f"tick {tick}: access expected {expect!r}, got {outcome!r}")

    def _logged_access(self, tick: int, patient: Agent, requester: Agent, token: bytes) -> str:
        """One access attempt, entered in the access log; returns its outcome."""
        outcome, n_records, served_by = self._attempt_access(
            tick, patient, requester.public_key, token
        )
        self.access_log.append(
            {"tick": tick, "patient": patient.index, "requester": requester.index,
             "token": token.hex(), "outcome": outcome, "records": n_records,
             "served_by": served_by, "chain_length": len(patient.chain)}
        )
        return outcome

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
                publish=op["publish"],
            )
        except TransferRefused as exc:
            if op["expect_ok"]:
                raise ScenarioAssertion(f"tick {tick}: transfer refused: {exc}") from None
            return
        except FuelError as exc:
            raise ConfigError(f"tick {tick} op transfer: {exc}") from None
        if op["expect_ok"] and tx is None:
            raise ScenarioAssertion(
                f"tick {tick}: transfer rejected: conflict "
                f"{verdict.conflicting_tx.hex()[:12]}"
            )

    def _op_presence(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        agent.pinned_presence = True
        agent.online = op["online"]

    def _op_publish_seq(self, tick: int, op: dict) -> None:
        agent = self.agent(op["agent"])
        record = _record_at(tick, op, agent, op["seq"])
        self.network.publish(agent, record)
        if op["track"]:
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
        seq = op["seq"]
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
        original = _record_at(tick, op, agent, seq)
        already.add(seq)
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

        record = victim.append("report", {"text": op["text"]}, tick)
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
                self.network, sender, op["amount"], tick, self.rng
            )
        except (FuelError, ConfigError) as exc:
            raise ConfigError(f"tick {tick} op attack: {exc}") from None
        complete_transfer(sender, tx1, self.network, tick, publish=False)
        self._tally(detected)

    def _attack_forged_token(self, tick: int, op: dict) -> None:
        """Guess capability tokens against a patient. Tokens are digests of
        signed grant records, so guessing is the only move without one."""
        requester = self.agent(op["agent"])
        patient = self.agent(op["patient"])
        probes = op["probes"]
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
        index = op["agent"]
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
        outcome = self._logged_access(tick, patient, requester, self._token(tick, op))
        self._tally(outcome != "granted")

    def _attack_dos_flood(self, tick: int, op: dict) -> None:
        """Burst junk claims at one victim well past the per-tick rate cap."""
        attacker = self.agent(op["agent"])
        victim = self.agent(op["victim"])
        count = op["count"]
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


def _record_at(tick: int, op: dict, agent: Agent, seq: int) -> Record:
    length = len(agent.chain.records)
    if seq >= length:
        raise ConfigError(f"tick {tick} op {op['op']}: seq {seq} outside the chain [0, {length})")
    return agent.chain.records[seq]


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
