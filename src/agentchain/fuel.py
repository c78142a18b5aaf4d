"""Mutual-credit transfers on source chains.

There is no global coin table: an agent's balance is whatever its own chain
says it received minus what it sent, plus explicit seed grants. A transfer
is one co-signed entry appended to both parties' chains. The receiver
announces (tx_id, sender, sender_prev_tx) to a handful of witnesses; a later
spend reusing the same prior state collides with that announcement at any
witness, which is what the audit samples for.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from functools import cached_property

from . import canonical
from .chain import Record, SourceChain, record_key
from .crypto import ZERO_DIGEST, KeyPair, hash_bytes, sign, verify
from .dht import Agent, Network, transfer_claim, misbehavior_claim
from .reputation import ObservationKind, is_blacklisted
from .validation import TRANSFER_BODY_FIELDS

FUEL_TX_TYPE = "fuel_tx"
SEED_GRANT_TYPE = "seed_grant"
AMOUNT_CAP = 10**12


class FuelError(ValueError):
    pass


@dataclass(frozen=True)
class FuelTransaction:
    """One transfer, as it appears on both chains.

    The sender signs the body first; the transfer is complete once the
    receiver countersigns the same body. tx_id commits to the body only,
    so it is the same before and after either signature.
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

    def body_bytes(self) -> bytes:
        return canonical.encode_fields(self.body_fields())

    @cached_property
    def tx_id(self) -> bytes:
        return hash_bytes(self.body_bytes())

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


# ---------------------------------------------------------------------------
# chain accounting

def balance(chain: SourceChain) -> int:
    """Credits received minus credits sent, per this chain's own records."""
    owner = chain.owner.public_key
    total = 0
    for record in chain.records:
        if record.header.entry_type == SEED_GRANT_TYPE:
            total += record.fields["amount"]
        elif record.header.entry_type == FUEL_TX_TYPE:
            fields = record.fields
            if fields["receiver"] == owner:
                total += fields["amount"]
            if fields["sender"] == owner:
                total -= fields["amount"]
    return total


def latest_fuel_key(chain: SourceChain) -> bytes:
    """Key of the newest credit-bearing record, or the zero sentinel."""
    for record in reversed(chain.records):
        if record.header.entry_type in (FUEL_TX_TYPE, SEED_GRANT_TYPE):
            return record_key(record)
    return ZERO_DIGEST


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
    credit_limit: int = 0,
) -> FuelTransaction:
    """Sender's half of a transfer: sign intent against current chain state."""
    if amount <= 0:
        raise FuelError(f"amount must be positive, got {amount}")
    if amount > AMOUNT_CAP:
        raise FuelError("amount exceeds cap")
    sender = sender_chain.owner.public_key
    if receiver == sender:
        raise FuelError("cannot transfer to self")
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
    return dataclasses.replace(pending, sender_sig=sign(sender_chain.owner, pending.body_bytes()))


def countersign(receiver_keys: KeyPair, pending: FuelTransaction) -> FuelTransaction:
    body = pending.body_bytes()
    if not verify(pending.sender, body, pending.sender_sig):
        raise FuelError("sender signature does not verify")
    if pending.receiver != receiver_keys.public_key:
        raise FuelError("transfer is not addressed to this receiver")
    return dataclasses.replace(pending, receiver_sig=sign(receiver_keys, body))


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
        raise FuelError("sender is blacklisted at the receiver")
    # replaying an identical transfer is not a conflicting spend, so the
    # audit would wave it through; the receiver's own books must refuse it
    # or one sender signature would credit the receiver twice
    for record in receiver.chain.records:
        if record.header.entry_type != FUEL_TX_TYPE:
            continue
        if record.fields["tx_id"] == pending.tx_id:
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
    record = receiver.append(FUEL_TX_TYPE, tx.to_fields(), clock)
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
    record = sender.append(FUEL_TX_TYPE, tx.to_fields(), clock)
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
    credit_limit = int(network.dna.param("fuel.credit_limit", "0"))
    pending = create_fuel_tx(sender.chain, receiver.public_key, amount, clock, credit_limit)
    tx, verdict = accept_fuel_tx(receiver, pending, network, clock, rng, publish=publish)
    if tx is not None:
        complete_transfer(sender, tx, network, clock, publish=publish)
    return tx, verdict
