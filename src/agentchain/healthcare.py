"""The health-monitoring app: vitals entries and capability-gated access.

Vitals stay on the patient's own chain unless explicitly shared; even then
they are privacy-restricted and never replicate beyond their assigned
holders. A doctor reads them only by presenting a capability token: the
digest of a grant record on the patient's chain. Grants name the grantee
and an entry-type selector, can expire, and are killed by appending a
revocation; possession of a token proves nothing once the grant is dead.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .chain import (
    COST_HEAVY,
    COST_LIGHT,
    COST_STANDARD,
    CREDIT_LIMIT_PARAM,
    DEFAULT_REDUNDANCY,
    RESTRICTED_PREFIXES_PARAM,
    DnaDocument,
    EntryTypeDef,
    Record,
    record_key,
)
from .dht import CLAIM_REVOKE, Agent, Network, revoke_claim
from .fuel import AMOUNT_CAP, FUEL_TX_TYPE, SEED_GRANT_TYPE
from .reputation import is_blacklisted

GRANT_TYPE = "cap_grant"
REVOKE_TYPE = "cap_revoke"
TOKEN_NOTE_TYPE = "cap_token"
REPORT_TYPE = "report"
VITALS_PREFIX = "vitals_"

# metric -> (unit, plausible_low, plausible_high); integer readings only
VITALS_METRICS: dict[str, tuple[str, int, int]] = {
    "ecg": ("uV", -5000, 5000),
    "glucose": ("mg/dL", 20, 600),
    "blood_pressure": ("mmHg", 40, 300),
    "pulse": ("bpm", 20, 250),
    "oxygen": ("%", 50, 100),
    "temperature": ("0.1C", 250, 450),
    "position": ("posture", 0, 7),
}


class HealthcareError(ValueError):
    pass


def vitals_entry_type(metric: str) -> str:
    if metric not in VITALS_METRICS:
        raise HealthcareError(f"unknown metric {metric!r}")
    return VITALS_PREFIX + metric


def healthcare_dna(redundancy: int = DEFAULT_REDUNDANCY, credit_limit: int = 0) -> DnaDocument:
    """The deployed app blueprint all honest agents bootstrap from: one
    shared document per (redundancy, credit_limit), so its encoding,
    network id and type table are derived once per process."""
    return _blueprint(redundancy, credit_limit)


# a process uses a handful of argument pairs; the bound only caps a run
# that sweeps them
@functools.lru_cache(maxsize=256)
def _blueprint(redundancy: int, credit_limit: int) -> DnaDocument:
    defs = []
    for metric, (unit, lo, hi) in sorted(VITALS_METRICS.items()):
        defs.append(
            EntryTypeDef(
                type_name=VITALS_PREFIX + metric,
                payload_schema=(
                    ("metric", "str"),
                    ("value", "int"),
                    ("unit", "str"),
                    ("taken_at", "int"),
                    ("patient", "bytes"),
                ),
                rule_ids=(
                    "required:metric",
                    f"range:value:{lo}:{hi}",
                    "required:unit",
                    "author-field:patient",
                ),
                validation_cost_class=COST_LIGHT,
            )
        )
    defs.append(
        EntryTypeDef(
            type_name=REPORT_TYPE,
            payload_schema=(("text", "str"),),
            rule_ids=("required:text",),
            validation_cost_class=COST_STANDARD,
        )
    )
    defs.append(
        EntryTypeDef(
            type_name=GRANT_TYPE,
            payload_schema=(
                ("grantee", "bytes"),
                ("entry_type", "str"),
                ("seq_lo", "int"),
                ("seq_hi", "int"),
                ("expires_at", "int"),
            ),
            rule_ids=("required:grantee", "required:entry_type"),
            validation_cost_class=COST_STANDARD,
        )
    )
    defs.append(
        EntryTypeDef(
            type_name=TOKEN_NOTE_TYPE,
            payload_schema=(("token", "digest"),),
            rule_ids=("required:token",),
            validation_cost_class=COST_LIGHT,
        )
    )
    defs.append(
        EntryTypeDef(
            type_name=REVOKE_TYPE,
            payload_schema=(("token", "digest"),),
            rule_ids=("required:token", "grant-exists:token"),
            validation_cost_class=COST_STANDARD,
        )
    )
    defs.append(
        EntryTypeDef(
            type_name=FUEL_TX_TYPE,
            payload_schema=(
                ("tx_id", "digest"),
                ("sender", "bytes"),
                ("receiver", "bytes"),
                ("amount", "int"),
                ("sender_prior_balance", "int"),
                ("sender_prev_tx", "digest"),
                ("timestamp", "int"),
                ("sender_sig", "bytes"),
                ("receiver_sig", "bytes"),
            ),
            rule_ids=(
                f"range:amount:1:{AMOUNT_CAP}",
                "balance-nonneg",
                "author-party:sender,receiver",
                "fuel-cosigned",
            ),
            validation_cost_class=COST_HEAVY,
        )
    )
    defs.append(
        EntryTypeDef(
            type_name=SEED_GRANT_TYPE,
            payload_schema=(("agent", "bytes"), ("amount", "int")),
            rule_ids=("author-field:agent", f"range:amount:1:{AMOUNT_CAP}"),
            validation_cost_class=COST_STANDARD,
        )
    )
    return DnaDocument(
        app_name="vitalsnet",
        description="continuous patient monitoring with capability-gated sharing",
        entry_type_defs=tuple(defs),
        validation_function_ids=("channel-auth-v1",),
        params={RESTRICTED_PREFIXES_PARAM: VITALS_PREFIX, CREDIT_LIMIT_PARAM: credit_limit},
        dht_redundancy=redundancy,
    )


# ---------------------------------------------------------------------------
# vitals

@dataclass(frozen=True)
class VitalsReading:
    metric: str
    value: int
    taken_at: int


def publish_vitals(
    patient: Agent,
    reading: VitalsReading,
    clock: int,
    network: Network | None = None,
) -> Record:
    """Append one reading to the patient chain; share it to its holders
    when given a network.

    Honest devices refuse implausible values up front; the same bounds are
    enforced network-side by the blueprint rules.
    """
    unit, lo, hi = VITALS_METRICS.get(reading.metric, (None, 0, 0))
    if unit is None:
        raise HealthcareError(f"unknown metric {reading.metric!r}")
    if not lo <= reading.value <= hi:
        raise HealthcareError(f"{reading.metric}={reading.value} outside [{lo}, {hi}]")
    record = patient.append(
        vitals_entry_type(reading.metric),
        {
            "metric": reading.metric,
            "value": reading.value,
            "unit": unit,
            "taken_at": reading.taken_at,
            "patient": patient.public_key,
        },
        clock,
    )
    if network is not None:
        network.publish(patient, record)
    return record


# ---------------------------------------------------------------------------
# capability grants

@dataclass(frozen=True)
class CapabilityGrant:
    grantee: bytes
    entry_type: str
    seq_lo: int | None = None
    seq_hi: int | None = None
    expires_at: int | None = None

    def to_fields(self) -> dict:
        fields: dict = {"grantee": self.grantee, "entry_type": self.entry_type}
        if self.seq_lo is not None:
            fields["seq_lo"] = self.seq_lo
        if self.seq_hi is not None:
            fields["seq_hi"] = self.seq_hi
        if self.expires_at is not None:
            fields["expires_at"] = self.expires_at
        return fields


def grant_from_fields(fields: Mapping) -> CapabilityGrant:
    return CapabilityGrant(
        grantee=fields["grantee"],
        entry_type=fields["entry_type"],
        seq_lo=fields.get("seq_lo"),
        seq_hi=fields.get("seq_hi"),
        expires_at=fields.get("expires_at"),
    )


class DenialReason(enum.Enum):
    UNKNOWN_TOKEN = "unknown_token"
    REVOKED = "revoked"
    EXPIRED = "expired"
    WRONG_GRANTEE = "wrong_grantee"


@dataclass(frozen=True)
class AccessResult:
    granted: bool
    reason: DenialReason | None = None
    records: tuple[Record, ...] = ()

    def __bool__(self) -> bool:
        return self.granted


def create_grant(
    patient: Agent,
    grant: CapabilityGrant,
    clock: int,
    network: Network | None = None,
    publish: bool = True,
) -> tuple[bytes, Record]:
    """Append a grant and return its token (the grant record's digest)."""
    if network is not None:
        if grant.grantee not in network._positions:
            raise HealthcareError("grantee is not a member of this network")
        if is_blacklisted(patient.experience, grant.grantee):
            raise HealthcareError("grantee is blacklisted at the grantor")
    record = patient.append(GRANT_TYPE, grant.to_fields(), clock)
    token = record_key(record)
    if network is not None and publish:
        network.publish(patient, record)
    return token, record


def note_token(holder: Agent, token: bytes, clock: int) -> Record:
    """Grantee files the received token on its own chain."""
    return holder.append(TOKEN_NOTE_TYPE, {"token": token}, clock)


def revoke_grant(
    patient: Agent,
    token: bytes,
    clock: int,
    network: Network | None = None,
) -> Record:
    """Kill a grant by appending a revocation that names its token, and
    publish it when given a network."""
    target = _find_grant(patient, token)
    if target is None:
        raise HealthcareError("token does not resolve to a grant on this chain")
    record = patient.append(REVOKE_TYPE, {"token": token}, clock)
    if network is not None:
        network.publish(patient, record)
        # the revocation's holders are not the grant's holders, so float a
        # resolvable hint through the claims pool for whoever serves the grant
        network._accept_claim(
            patient, revoke_claim(record_key(record), patient.public_key, token)
        )
    return record


def _find_grant(patient: Agent, token: bytes) -> Record | None:
    record = patient.chain.lookup(token)
    if record is None or record.header.entry_type != GRANT_TYPE:
        return None
    return record


def _revokes(record: Record | None, patient_key: bytes, token: bytes) -> bool:
    """Whether record is the patient's revocation of this token."""
    return (
        record is not None
        and record.header.entry_type == REVOKE_TYPE
        and record.header.author == patient_key
        and record.fields.get("token") == token
    )


def _is_revoked(patient: Agent, token: bytes) -> bool:
    return any(_revokes(record, patient.public_key, token) for record in patient.chain.records)


def _selector_matches(grant: CapabilityGrant, record: Record) -> bool:
    etype = record.header.entry_type
    if grant.entry_type.endswith("*"):
        if not etype.startswith(grant.entry_type[:-1]):
            return False
    elif etype != grant.entry_type:
        return False
    if grant.seq_lo is not None and record.header.seq < grant.seq_lo:
        return False
    if grant.seq_hi is not None and record.header.seq > grant.seq_hi:
        return False
    return True


def _judge(
    grant: CapabilityGrant, requester: bytes, clock: int, records: Iterable[Record]
) -> AccessResult:
    """The verdict on a live grant: expired, then wrong grantee, or else
    granted with those of records that its selector matches, in order."""
    if grant.expires_at is not None and clock > grant.expires_at:
        return AccessResult(False, DenialReason.EXPIRED)
    if grant.grantee != requester:
        return AccessResult(False, DenialReason.WRONG_GRANTEE)
    return AccessResult(True, None, tuple(r for r in records if _selector_matches(grant, r)))


def request_access(
    patient: Agent, requester: bytes, token: bytes, clock: int
) -> AccessResult:
    """Patient-side token check; serves matching chain records on success."""
    grant_record = _find_grant(patient, token)
    if grant_record is None:
        return AccessResult(False, DenialReason.UNKNOWN_TOKEN)
    grant = grant_from_fields(grant_record.fields)
    if _is_revoked(patient, token):
        return AccessResult(False, DenialReason.REVOKED)
    return _judge(grant, requester, clock, patient.chain.records)


def _holder_sees_revocation(
    network: Network, holder: Agent, patient_key: bytes, token: bytes
) -> bool:
    """A stored revocation record, or a revoke hint that resolves to one.

    Hints alone prove nothing (anyone can gossip bytes); the named record
    must exist, be the patient's, and name this token.
    """
    if any(_revokes(record, patient_key, token) for record in holder.shard.values()):
        return True
    for claim in network.claims_of(holder, CLAIM_REVOKE):
        if claim.extra != token:
            continue
        if claim.agent != patient_key:
            continue
        if _revokes(network.fetch(holder, claim.subject), patient_key, token):
            return True
    return False


def request_access_via_holder(
    network: Network, holder: Agent, requester: bytes, token: bytes, clock: int
) -> AccessResult:
    """Holder-served variant for when the patient is offline.

    The holder can only consult what reached the network: the published
    grant, any published revocation, and published records. Scope is
    correspondingly narrower than asking the patient directly.
    """
    grant_record = holder.shard.get(token)
    if grant_record is None or grant_record.header.entry_type != GRANT_TYPE:
        return AccessResult(False, DenialReason.UNKNOWN_TOKEN)
    patient_key = grant_record.header.author
    grant = grant_from_fields(grant_record.fields)
    if _holder_sees_revocation(network, holder, patient_key, token):
        return AccessResult(False, DenialReason.REVOKED)
    return _judge(grant, requester, clock, (
        record for _key, record in sorted(holder.shard.items())
        if record.header.author == patient_key
    ))
