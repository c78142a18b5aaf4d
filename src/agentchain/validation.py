"""Record and app validation: what a peer checks before storing anything.

Two independent gates, combined for channel authentication:

  1. transaction validation: the record's entry type exists in the
     validator's own blueprint copy, its payload satisfies the type's rules,
     and the header's hash and signature hold up;
  2. application validation: the claimed network id is a registered app.

Rules form a tiny closed language encoded in rule id strings, so a
blueprint fully determines validation behavior and hashes over it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from . import canonical
from .canonical import EncodingError
from .chain import COST_UNITS, DnaDocument, Record, payload_hash
from .crypto import hash_bytes, verify


class Reason(enum.Enum):
    OK = "ok"
    UNKNOWN_ENTRY_TYPE = "unknown_entry_type"
    RULE_VIOLATION = "rule_violation"
    UNREGISTERED_APP = "unregistered_app"
    BAD_SIGNATURE = "bad_signature"
    BAD_LINK = "bad_link"


@dataclass(frozen=True)
class Verdict:
    valid: bool
    reason: Reason
    detail: str = ""

    def __post_init__(self) -> None:
        # valid=True must always read as OK; anything else is a bug upstream
        if self.valid and self.reason is not Reason.OK:
            raise ValueError("valid verdict must carry reason OK")

    def __bool__(self) -> bool:
        return self.valid


OK = Verdict(True, Reason.OK)


class Marketplace:
    """Registry of deployed app blueprints, keyed by network id."""

    def __init__(self) -> None:
        self._apps: set[bytes] = set()

    def register(self, dna: DnaDocument) -> bytes:
        key = dna.network_id
        self._apps.add(key)
        return key

    def is_registered(self, candidate: bytes) -> bool:
        return candidate in self._apps


# ---------------------------------------------------------------------------
# rule language
#
# rule id grammar (all parameters inline, so rules hash with the DNA):
#   required:<field>              field must be present
#   range:<field>:<lo>:<hi>       integer field within [lo, hi]
#   author-field:<field>          header author equals the named bytes field
#   author-party:<f1>,<f2>,...    header author equals one of the named fields
#   balance-nonneg                claimed prior balance covers the amount, down
#                                 to minus the validator's dna.credit_limit
#   grant-exists:<field>          named digest field resolves to a grant record
#                                 through the validator's resolve callable
#   fuel-cosigned                 both embedded transfer signatures verify
# What a rule reads of the blueprint is derived once per DnaDocument.

Resolver = Callable[[bytes], Optional[Record]]


# the co-signed core of a transfer: what both parties sign and tx_id hashes
TRANSFER_BODY_FIELDS = (
    "amount", "receiver", "sender", "sender_prev_tx", "sender_prior_balance", "timestamp",
)


def transfer_body(fields: Mapping) -> bytes:
    """The encoded co-signed core of a transfer, from the body fields that
    fields holds (no signatures, no id): the one writer of the bytes both
    parties sign and tx_id hashes."""
    return canonical.encode_fields({k: fields[k] for k in TRANSFER_BODY_FIELDS if k in fields})


def _cosign_violation(record: Record) -> str | None:
    """The fuel-cosigned verdict on a transfer record: whether its tx_id
    and both signatures commit to the transfer body in its fields.

    It depends on the payload only, so it is checked once per record and
    kept on it, as Record.signature_ok is.
    """
    try:
        return record._cosign_violation
    except AttributeError:
        pass
    fields = record.fields
    body = transfer_body(fields)
    sender = fields.get("sender")
    receiver = fields.get("receiver")
    s_sig = fields.get("sender_sig")
    r_sig = fields.get("receiver_sig")
    if not all(isinstance(x, bytes) for x in (sender, receiver, s_sig, r_sig)):
        violation = "transfer signature fields missing"
    elif fields.get("tx_id") != hash_bytes(body):
        violation = "tx_id does not commit to the transfer body"
    elif not verify(sender, body, s_sig):
        violation = "sender signature invalid"
    elif not verify(receiver, body, r_sig):
        violation = "receiver signature invalid"
    else:
        violation = None
    object.__setattr__(record, "_cosign_violation", violation)
    return violation


def _check_rule(
    rule_id: str, record: Record, fields: Mapping, dna: DnaDocument, resolve: Resolver | None
) -> str | None:
    """None if the rule holds, otherwise a short violation description."""
    name, _, arg = rule_id.partition(":")
    if name == "required":
        if arg not in fields:
            return f"missing field {arg!r}"
        return None
    if name == "range":
        try:
            fname, lo, hi = arg.split(":")
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            return f"malformed rule {rule_id!r}"
        value = fields.get(fname)
        if not isinstance(value, int):
            return f"field {fname!r} missing or not numeric"
        if not lo_i <= value <= hi_i:
            return f"{fname}={value} outside [{lo_i}, {hi_i}]"
        return None
    if name == "author-field":
        if fields.get(arg) != record.header.author:
            return f"author does not match field {arg!r}"
        return None
    if name == "author-party":
        parties = [fields.get(f) for f in arg.split(",")]
        if record.header.author not in parties:
            return "author is not a party to this entry"
        return None
    if name == "balance-nonneg":
        prior = fields.get("sender_prior_balance")
        amount = fields.get("amount")
        if not isinstance(prior, int) or not isinstance(amount, int):
            return "balance fields missing"
        if prior - amount < -dna.credit_limit:
            return f"balance {prior} cannot cover {amount}"
        return None
    if name == "grant-exists":
        token = fields.get(arg)
        if not isinstance(token, bytes):
            return f"field {arg!r} missing or not a digest"
        if resolve is None:
            return "no resolver available for grant lookup"
        target = resolve(token)
        if target is None or target.header.entry_type != "cap_grant":
            return "referenced grant not found"
        return None
    if name == "fuel-cosigned":
        return _cosign_violation(record)
    # fail closed: a rule we cannot interpret never passes
    return f"unknown rule {rule_id!r}"


# ---------------------------------------------------------------------------
# the validation gates

def validate_transaction(record: Record, dna: DnaDocument, resolve: Resolver | None = None) -> Verdict:
    """First gate: is this record well formed under this blueprint?"""
    etd = dna.entry_type(record.header.entry_type)
    if etd is None:
        return Verdict(False, Reason.UNKNOWN_ENTRY_TYPE, record.header.entry_type)
    if record.header.entry_hash != payload_hash(record):
        return Verdict(False, Reason.BAD_LINK, "entry hash does not match payload")
    if not record.signature_ok:
        return Verdict(False, Reason.BAD_SIGNATURE, "header signature invalid")
    try:
        fields = record.fields
    except EncodingError as exc:
        return Verdict(False, Reason.RULE_VIOLATION, f"payload does not decode: {exc}")
    for rule_id in etd.rule_ids:
        violation = _check_rule(rule_id, record, fields, dna, resolve)
        if violation is not None:
            return Verdict(False, Reason.RULE_VIOLATION, f"{rule_id}: {violation}")
    return OK


def validate_application(candidate: bytes, marketplace: Marketplace) -> Verdict:
    """Second gate: is the app this record claims to belong to deployed?"""
    if not marketplace.is_registered(candidate):
        return Verdict(False, Reason.UNREGISTERED_APP, candidate.hex()[:16])
    return OK


def authenticate_channel(
    record: Record,
    dna: DnaDocument,
    marketplace: Marketplace,
    app_id: bytes | None = None,
    resolve: Resolver | None = None,
) -> Verdict:
    """Both gates together; the first failure wins.

    app_id is the network id the record is checked against the marketplace
    for; it defaults to dna's own. The DHT's validators take the default:
    their network admits only members of its blueprint, and it refuses an
    envelope addressed to any other network id before asking for a verdict.
    """
    tx_verdict = validate_transaction(record, dna, resolve)
    if not tx_verdict.valid:
        return tx_verdict
    app_verdict = validate_application(app_id if app_id is not None else dna.network_id, marketplace)
    if not app_verdict.valid:
        return app_verdict
    return OK


def validation_work(dna: DnaDocument, entry_type: str) -> int:
    """Accounting units for one validation of this entry type (1/4/16)."""
    etd = dna.entry_type(entry_type)
    if etd is None:
        return COST_UNITS["standard"]
    return COST_UNITS[etd.validation_cost_class]
