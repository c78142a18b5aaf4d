"""Mutual-credit transfers on source chains.

There is no global coin table: an agent's balance is whatever its own chain
says it received minus what it sent, plus explicit seed grants. Each chain
keeps that sum as a running ledger, caught up over the records appended
since it was last read, so a balance costs the new records only. A transfer
is one co-signed entry appended to both parties' chains. The receiver
announces (tx_id, sender, sender_prev_tx) to a handful of witnesses; a later
spend reusing the same prior state collides with that announcement at any
witness, which is what the audit samples for.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from functools import cached_property

from . import canonical
from .chain import Record, SourceChain, record_key
from .crypto import ZERO_DIGEST, KeyPair, hash_bytes, sign, verify
from .dht import Agent, Network, transfer_claim, misbehavior_claim
from .reputation import ObservationKind, is_blacklisted
from .validation import TRANSFER_BODY_FIELDS

FUEL_TX_TYPE = "fuel_tx"
SEED_GRANT_TYPE = "seed_grant"
CREDIT_TYPES = (SEED_GRANT_TYPE, FUEL_TX_TYPE)
AMOUNT_CAP = 10**12


class FuelError(ValueError):
    pass


class TransferRefused(FuelError):
    """The receiver shuns the sender: a counted rejection, not bad input."""


@dataclass(frozen=True)
class FuelTransaction:
    """One transfer, as it appears on both chains.

    The sender signs the body first; the transfer is complete once the
    receiver countersigns the same body. tx_id commits to the body only,
    so it is the same before and after either signature, and the signing
    steps carry the body bytes and tx_id over (see _signed): a transfer's
    body is encoded once.
    """

    sender: bytes
    receiver: bytes
    amount: int
    sender_prior_balance: int
    sender_prev_tx: bytes
    timestamp: int
    sender_sig: bytes = b""
    receiver_sig: bytes = b""

    def body_fields(self) -> dict:
        return {name: getattr(self, name) for name in TRANSFER_BODY_FIELDS}

    @cached_property
    def body_bytes(self) -> bytes:
        return canonical.encode_fields(self.body_fields())

    @cached_property
    def tx_id(self) -> bytes:
        return hash_bytes(self.body_bytes)

    @cached_property
    def payload(self) -> bytes:
        """The co-signed entry, encoded once and appended to both chains."""
        return canonical.encode_fields(self.to_fields())

    def to_fields(self) -> dict:
        return {
            **self.body_fields(),
            "tx_id": self.tx_id,
            "sender_sig": self.sender_sig,
            "receiver_sig": self.receiver_sig,
        }


@dataclass(frozen=True)
class FuelVerdict:
    """Outcome of a double-spend audit. Not ok implies a named conflict."""

    ok: bool
    conflicting_tx: bytes | None = None
    witness: bytes | None = None

    def __post_init__(self) -> None:
        if not self.ok and self.conflicting_tx is None:
            raise ValueError("rejecting verdict must name the conflicting tx")

    def __bool__(self) -> bool:
        return self.ok


def _signed(tx: FuelTransaction, **signature: bytes) -> FuelTransaction:
    """tx with one more signature. Signatures lie outside the body, so its
    bytes and tx_id carry over instead of being encoded again."""
    signed = dataclasses.replace(tx, **signature)
    signed.__dict__.update(body_bytes=tx.body_bytes, tx_id=tx.tx_id)
    return signed


# ---------------------------------------------------------------------------
# chain accounting

def _credit(record: Record, owner: bytes) -> int:
    """What a credit record adds to its owner's balance."""
    fields = record.fields
    if record.header.entry_type == SEED_GRANT_TYPE:
        return fields["amount"]
    amount = fields["amount"]
    received = amount if fields["receiver"] == owner else 0
    sent = amount if fields["sender"] == owner else 0
    return received - sent


@dataclass
class Ledger:
    """A chain's running fuel account over its records [0, seen).

    credit_seq is the seq of the newest credit record, -1 before any.
    tx_ids holds the tx_id of every fuel_tx record, for the replay check.
    """

    seen: int = 0
    balance: int = 0
    credit_seq: int = -1
    tx_ids: set[bytes] = field(default_factory=set)


def _ledger(chain: SourceChain) -> Ledger:
    """The chain's ledger, caught up over the records appended since the
    last read.

    Every append goes through the chain, and a history rewrite resets
    ``chain.ledger``, so records [0, seen) are the ones the ledger counted.
    Each record is applied whole before seen moves past it: a credit payload
    that does not decode raises here on this read and on every later one.
    """
    ledger = chain.ledger
    if ledger is None:
        ledger = chain.ledger = Ledger()
    records = chain.records
    owner = chain.owner.public_key
    for seq in range(ledger.seen, len(records)):
        record = records[seq]
        kind = record.header.entry_type
        if kind in CREDIT_TYPES:
            credit = _credit(record, owner)
            if kind == FUEL_TX_TYPE:
                ledger.tx_ids.add(record.fields["tx_id"])
            ledger.balance += credit
            ledger.credit_seq = seq
        ledger.seen = seq + 1
    return ledger


def balance(chain: SourceChain) -> int:
    """Credits received minus credits sent, per this chain's own records,
    read off its running ledger."""
    return _ledger(chain).balance


def walk_balance(chain: SourceChain) -> int:
    """balance by a walk over every record: the reference the simulator
    cross-checks each running balance against at the end of a run."""
    owner = chain.owner.public_key
    return sum(
        _credit(record, owner) for record in chain.records if record.header.entry_type in CREDIT_TYPES
    )


def latest_fuel_key(chain: SourceChain) -> bytes:
    """Key of the newest credit-bearing record, or the zero sentinel."""
    seq = _ledger(chain).credit_seq
    return record_key(chain.records[seq]) if seq >= 0 else ZERO_DIGEST


def has_transfer(chain: SourceChain, tx_id: bytes) -> bool:
    """Whether a fuel_tx record with this tx_id is on the chain."""
    return tx_id in _ledger(chain).tx_ids


def append_seed_grant(agent: Agent, amount: int, clock: int) -> Record:
    """Seed starting credit onto an agent's chain."""
    if amount <= 0:
        raise FuelError("seed grant must be positive")
    return agent.append(SEED_GRANT_TYPE, {"agent": agent.public_key, "amount": amount}, clock)


# ---------------------------------------------------------------------------
# the transfer protocol

def create_fuel_tx(
    sender_chain: SourceChain,
    receiver: bytes,
    amount: int,
    clock: int,
) -> FuelTransaction:
    """Sender's half of a transfer: sign intent against current chain state,
    within the credit limit of the sender chain's DNA."""
    if amount <= 0:
        raise FuelError(f"amount must be positive, got {amount}")
    if amount > AMOUNT_CAP:
        raise FuelError("amount exceeds cap")
    sender = sender_chain.owner.public_key
    if receiver == sender:
        raise FuelError("cannot transfer to self")
    credit_limit = int(sender_chain.dna.param("fuel.credit_limit", "0"))
    prior = balance(sender_chain)
    if prior - amount < -credit_limit:
        raise FuelError(f"balance {prior} cannot cover {amount} (limit {credit_limit})")
    pending = FuelTransaction(
        sender=sender,
        receiver=receiver,
        amount=amount,
        sender_prior_balance=prior,
        sender_prev_tx=latest_fuel_key(sender_chain),
        timestamp=clock,
    )
    return _signed(pending, sender_sig=sign(sender_chain.owner, pending.body_bytes))


def countersign(receiver_keys: KeyPair, pending: FuelTransaction) -> FuelTransaction:
    body = pending.body_bytes
    if not verify(pending.sender, body, pending.sender_sig):
        raise FuelError("sender signature does not verify")
    if pending.receiver != receiver_keys.public_key:
        raise FuelError("transfer is not addressed to this receiver")
    return _signed(pending, receiver_sig=sign(receiver_keys, body))


def audit_double_spend(
    candidate: FuelTransaction, queried: list[Agent], network: Network
) -> FuelVerdict:
    """Ask each queried agent whether it witnessed another spend of the
    candidate's prior state.

    The network indexes every transfer claim by the prior state it spends,
    so only the claims on the candidate's prior state are looked at. The
    first online queried agent holding one names the lowest such claim id
    it holds.
    """
    spends = network.transfer_index.get((candidate.sender, candidate.sender_prev_tx), {})
    conflicts = sorted(cid for cid, tx_id in spends.items() if tx_id != candidate.tx_id)
    for agent in queried:
        if not agent.online:
            continue
        for cid in conflicts:
            if cid in agent.news:
                return FuelVerdict(False, conflicting_tx=spends[cid], witness=agent.public_key)
    return FuelVerdict(True)


def accept_fuel_tx(
    receiver: Agent,
    pending: FuelTransaction,
    network: Network,
    clock: int,
    rng: random.Random,
    audit: bool = True,
    publish: bool = True,
) -> tuple[FuelTransaction | None, FuelVerdict]:
    """Receiver's half: audit, countersign, append, announce to witnesses.

    Returns (tx, verdict); tx is None when the audit rejected the transfer.
    The sender's own append is the sender's job (see complete_transfer) --
    an honest one does it in the same tick.
    """
    if is_blacklisted(receiver.experience, pending.sender):
        network.metrics.rejections += 1
        raise TransferRefused("sender is blacklisted at the receiver")
    # replaying an identical transfer is not a conflicting spend, so the
    # audit would wave it through; the receiver's own books must refuse it
    # or one sender signature would credit the receiver twice
    if has_transfer(receiver.chain, pending.tx_id):
        raise FuelError("transfer already recorded on the receiver chain")
    if audit:
        pool = [a for a in network.agents if a is not receiver]
        k = min(network.audit_samples, len(pool))
        sampled = rng.sample(pool, k) if k else []
        network.metrics.messages += len(sampled)
        verdict = audit_double_spend(pending, [receiver] + sampled, network)
        if not verdict.ok:
            network.metrics.rejections += 1
            claim = misbehavior_claim(
                pending.sender, ObservationKind.DOUBLE_SPEND, pending.tx_id
            )
            network._accept_claim(receiver, claim)
            return None, verdict
    tx = countersign(receiver.keys, pending)
    record = receiver.append(FUEL_TX_TYPE, tx.payload, clock)
    if publish:
        network.publish(receiver, record)
    announce_transfer(network, receiver, tx, rng)
    network.metrics.fuel_txs += 1
    return tx, FuelVerdict(True)


def announce_transfer(network: Network, receiver: Agent, tx: FuelTransaction, rng: random.Random) -> None:
    """Seed the witness set: the receiver itself plus witness_count-1 peers
    who are not party to the transfer."""
    claim = transfer_claim(tx.tx_id, tx.sender, tx.sender_prev_tx)
    network._accept_claim(receiver, claim)
    pool = [
        a
        for a in network.agents
        if a.public_key not in (tx.sender, tx.receiver)
    ]
    count = min(max(network.witness_count - 1, 0), len(pool))
    if count:
        for witness in rng.sample(pool, count):
            network.send_claim(receiver, witness, claim)


def complete_transfer(sender: Agent, tx: FuelTransaction, network: Network, clock: int,
                      publish: bool = True) -> Record:
    """Honest sender finalizes: the co-signed entry lands on its chain too."""
    record = sender.append(FUEL_TX_TYPE, tx.payload, clock)
    if publish:
        network.publish(sender, record)
    return record


def settle(
    network: Network,
    sender: Agent,
    receiver: Agent,
    amount: int,
    clock: int,
    rng: random.Random,
    publish: bool = True,
) -> tuple[FuelTransaction | None, FuelVerdict]:
    """Full honest transfer: create, accept, and finalize on both chains."""
    pending = create_fuel_tx(sender.chain, receiver.public_key, amount, clock)
    tx, verdict = accept_fuel_tx(receiver, pending, network, clock, rng, publish=publish)
    if tx is not None:
        complete_transfer(sender, tx, network, clock, publish=publish)
    return tx, verdict
