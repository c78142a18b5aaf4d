"""Sharded record storage and gossip across one app network.

Records an agent chooses to share are pushed to the peers closest to the
record key (XOR distance over hashed public keys). Every receiving peer
re-validates against its own blueprint copy before storing anything, and
issues a receipt when it does. Gossip rounds then keep redundancy up
as peers drop on and off, spread news claims (transfer announcements and
misbehavior reports), and never move privacy-restricted payloads beyond
their assigned neighborhood.

Reputation lives here too: validators score authors on every delivery, and
misbehavior reports are deduplicated by event so one offense costs the
offender exactly one penalty at every honest peer.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .canonical import EncodingError, Reader, Writer
from .chain import (
    DnaDocument,
    Record,
    SourceChain,
    append_entry,
    decode_record,
    encode_record,
    init_chain,
    record_key,
)
from .crypto import KeyPair, generate_keypair, hash_bytes, sign, verify
from .metrics import Metrics
from .reputation import (
    ExperienceMatrix,
    ObservationKind,
    is_blacklisted,
    update_experience,
)
from .validation import Marketplace, RuleContext, authenticate_channel, validation_work

DEFAULT_FANOUT = 2
DEFAULT_RATE_LIMIT = 100
DEFAULT_BACKUP_FACTOR = 2.0

# DNA param key listing entry-type prefixes that must never replicate
# beyond the static neighborhood (privacy cap)
RESTRICTED_PREFIX_PARAM = "dht.restricted_prefixes"


class DhtError(Exception):
    pass


class CrossNetworkError(DhtError):
    """Record or agent belongs to a different network id."""


# ---------------------------------------------------------------------------
# news claims

CLAIM_TRANSFER = "transfer"
CLAIM_MISBEHAVIOR = "misbehavior"
CLAIM_REVOKE = "revoke"


@dataclass(frozen=True)
class NewsClaim:
    """A small fact agents pass around.

    transfer claims announce (tx_id, sender, sender_prev_tx) so later
    spends of the same prior state are auditable. misbehavior claims name
    an offender and the offending subject; their id excludes the reporter,
    so the same event reported by many observers applies once per peer.
    A claim object is shared by every pool it reaches, so its id is hashed
    once.
    """

    kind: str
    subject: bytes  # tx_id for transfers, event digest for misbehavior
    agent: bytes  # tx sender / offender
    extra: bytes = b""  # sender_prev_tx for transfers
    detail: str = ""

    @cached_property
    def claim_id(self) -> bytes:
        w = Writer()
        w.u8(ord("N"))
        w.string(self.kind)
        w.digest(self.subject)
        w.lp_bytes(self.agent)
        w.lp_bytes(self.extra)
        w.string(self.detail)
        return hash_bytes(w.getvalue())


def transfer_claim(tx_id: bytes, sender: bytes, sender_prev_tx: bytes) -> NewsClaim:
    return NewsClaim(CLAIM_TRANSFER, tx_id, sender, sender_prev_tx)


def misbehavior_claim(offender: bytes, violation: ObservationKind, subject: bytes) -> NewsClaim:
    return NewsClaim(CLAIM_MISBEHAVIOR, subject, offender, detail=violation.value)


def revoke_claim(revoke_record_key: bytes, author: bytes, token: bytes) -> NewsClaim:
    """Hint that a revocation record exists. Unverified on its own: holders
    must resolve the named record and check it before denying anything."""
    return NewsClaim(CLAIM_REVOKE, revoke_record_key, author, extra=token)


_VIOLATION_BY_NAME = {k.value: k for k in ObservationKind}


@dataclass(frozen=True)
class Receipt:
    """A holder's acknowledgement that it stored a record."""

    holder: bytes
    key: bytes


def envelope_signing_bytes(kind: str, payload: bytes) -> bytes:
    return kind.encode("utf-8") + b"\x00" + payload


@dataclass(frozen=True)
class GossipMessage:
    """Signed wire envelope. payload layout depends on kind.

    What is derived from the bytes is derived once per envelope and shared
    by every receiver of it. An envelope is never edited in place: a wire
    hook that changes the payload builds a new one, checked afresh.
    """

    kind: str
    sender: bytes
    payload: bytes
    signature: bytes

    @cached_property
    def valid(self) -> bool:
        """Whether sender signed (kind, payload)."""
        return verify(self.sender, envelope_signing_bytes(self.kind, self.payload), self.signature)

    @cached_property
    def publish_body(self) -> tuple[bytes, Record]:
        """A publish payload as (app_id, record); its holders share the one
        record, and so its key. Raises EncodingError, and caches nothing,
        if the payload is not a publish encoding."""
        r = Reader(self.payload)
        app_id = r.digest()
        record = decode_record(r.lp_bytes())
        r.finish()
        return app_id, record


def make_envelope(keys: KeyPair, kind: str, payload: bytes) -> GossipMessage:
    return GossipMessage(
        kind=kind,
        sender=keys.public_key,
        payload=payload,
        signature=sign(keys, envelope_signing_bytes(kind, payload)),
    )


# ---------------------------------------------------------------------------
# agents

@dataclass(eq=False)
class Agent:
    """One network participant: identity, chain, shard, scores, news.

    Agents compare by identity, so ``agent in targets`` is a pointer compare.
    """

    index: int
    keys: KeyPair
    chain: SourceChain
    online: bool = True
    pinned_presence: bool = False  # scripted on/off overrides churn
    experience: ExperienceMatrix = field(default_factory=ExperienceMatrix)
    shard: dict[bytes, Record] = field(default_factory=dict)
    news: dict[bytes, NewsClaim] = field(default_factory=dict)  # written by _accept_claim only
    news_bits: int = 0  # the claim bits of news; see Network._accept_claim
    published: set[bytes] = field(default_factory=set)
    rate_window: dict[bytes, int] = field(default_factory=dict)
    node_id: int = 0

    def __post_init__(self) -> None:
        self.node_id = int.from_bytes(hash_bytes(self.keys.public_key), "big")

    @property
    def public_key(self) -> bytes:
        return self.keys.public_key

    def append(self, entry_type: str, payload: bytes | dict, clock: int) -> Record:
        return append_entry(self.chain, entry_type, payload, clock)

    def holds(self, key: bytes) -> bool:
        return key in self.shard or key in self.chain.keys

    def lookup(self, key: bytes) -> Record | None:
        record = self.shard.get(key)
        return record if record is not None else self.chain.lookup(key)


def make_agent(
    index: int,
    seed: bytes,
    dna: DnaDocument,
    clock: int = 0,
    blacklist_threshold: float | None = None,
) -> Agent:
    keys = generate_keypair(seed)
    chain = init_chain(keys, dna, clock)
    agent = Agent(index=index, keys=keys, chain=chain)
    if blacklist_threshold is not None:
        agent.experience.blacklist_threshold = blacklist_threshold
    return agent


def agent_seed(run_seed: int, index: int) -> bytes:
    """Stable per-agent key seed derived from the run seed."""
    w = Writer()
    w.u64(run_seed & (2**64 - 1))
    w.u32(index)
    return hash_bytes(w.getvalue())


# ---------------------------------------------------------------------------
# the network

class Network:
    """All peers sharing one blueprint, plus the shared metrics sink."""

    def __init__(
        self,
        dna: DnaDocument,
        marketplace: Marketplace,
        metrics: Metrics | None = None,
        fanout: int = DEFAULT_FANOUT,
        rate_limit: int = DEFAULT_RATE_LIMIT,
        backup_factor: float = DEFAULT_BACKUP_FACTOR,
        witness_count: int = 8,
        audit_samples: int = 8,
    ) -> None:
        self.dna = dna
        self.network_id = dna.network_id
        marketplace.register(dna)
        self.marketplace = marketplace
        self.metrics = metrics if metrics is not None else Metrics()
        self.fanout = fanout
        self.rate_limit = rate_limit
        self.backup_factor = backup_factor
        self.witness_count = witness_count
        self.audit_samples = audit_samples
        self.agents: list[Agent] = []
        self.redundancy = dna.dht_redundancy
        # hooks see (kind, sender, receiver, payload) and may mutate payload
        self.wire_hooks: list[Callable[[str, Agent, Agent, bytes], bytes]] = []
        self._restricted = tuple(p for p in dna.param(RESTRICTED_PREFIX_PARAM).split(",") if p)
        self.current_tick = 0
        # key -> every member, nearest first; see _ranking
        self._rankings: dict[bytes, list[Agent]] = {}
        # (sender, sender_prev_tx) -> {claim id: tx_id} for every transfer
        # claim some agent holds, one entry per distinct claim; written by
        # _accept_claim, the only path into a news pool
        self.transfer_index: dict[tuple[bytes, bytes], dict[bytes, bytes]] = {}
        # claim id -> its bit in every agent's news_bits, numbered in order
        # of first acceptance, and the ids by bit; see _accept_claim
        self._claim_bit: dict[bytes, int] = {}
        self._claim_ids: list[bytes] = []

    def join(self, agent: Agent) -> None:
        if agent.chain.dna.network_id != self.network_id:
            raise CrossNetworkError("agent bootstrapped under a different blueprint")
        self.agents.append(agent)
        self._rankings.clear()

    def begin_tick(self, tick: int | None = None) -> None:
        if tick is not None:
            self.current_tick = tick
        for agent in self.agents:
            agent.rate_window.clear()

    # -- topology ----------------------------------------------------------

    def _ranking(self, key: bytes) -> list[Agent]:
        """Every member, nearest to key first by XOR over node ids; ties
        keep join order.

        The ranking depends on the key and on membership only, so it is
        computed once per key and dropped when an agent joins. Presence is
        not part of it: readers skip offline agents as they walk it, which
        is why flipping ``agent.online`` needs no invalidation.
        """
        ranking = self._rankings.get(key)
        if ranking is None:
            k = int.from_bytes(key, "big")
            ranking = sorted(self.agents, key=lambda a: a.node_id ^ k)
            self._rankings[key] = ranking
        return ranking

    def neighborhood(self, key: bytes, r: int | None = None) -> list[Agent]:
        """The min(r, n) agents nearest to key, online or not, stable order.

        A prefix of the key's memoized ranking: it changes only when an
        agent joins, never with presence.
        """
        r = self.redundancy if r is None else r
        return self._ranking(key)[: max(0, r)]

    def is_restricted(self, entry_type: str) -> bool:
        return any(entry_type.startswith(p) for p in self._restricted)

    def backup_targets(self, key: bytes, record: Record) -> list[Agent]:
        """Who should hold this record right now.

        Privacy-restricted types never leave the static neighborhood.
        Everything else re-targets the nearest currently-online peers, with
        headroom over the bare redundancy target so flapping holders do not
        leave a record unreachable.

        The ranking is memoized per key and depends on membership only;
        presence is applied here, at read time, by skipping offline agents.
        """
        if self.is_restricted(record.header.entry_type):
            return self.neighborhood(key)
        want = math.ceil(self.redundancy * self.backup_factor)
        online = (a for a in self._ranking(key) if a.online)
        return list(itertools.islice(online, max(0, want)))

    # -- reputation plumbing ------------------------------------------------

    def _accept_claim(self, receiver: Agent, claim: NewsClaim) -> None:
        """Keep a news claim at receiver exactly once, for further gossip.
        A misbehavior claim also scores its offender there, once per event;
        offenders do not score themselves. A transfer claim is also indexed
        by the prior state it spends, for the double-spend audit.

        A claim id gets a bit the first time any agent accepts it, and the
        receiver's news_bits gains that bit, so claim sync compares two
        pools with one integer operation."""
        cid = claim.claim_id
        if cid in receiver.news:
            return
        receiver.news[cid] = claim
        bit = self._claim_bit.get(cid)
        if bit is None:
            bit = self._claim_bit[cid] = len(self._claim_ids)
            self._claim_ids.append(cid)
        receiver.news_bits |= 1 << bit
        self.metrics.news_claims += 1
        if claim.kind == CLAIM_TRANSFER:
            self.transfer_index.setdefault((claim.agent, claim.extra), {})[cid] = claim.subject
        if claim.kind != CLAIM_MISBEHAVIOR or claim.agent == receiver.public_key:
            return
        was = is_blacklisted(receiver.experience, claim.agent)
        update_experience(
            receiver.experience, claim.agent, _VIOLATION_BY_NAME[claim.detail]
        )
        if not was and is_blacklisted(receiver.experience, claim.agent):
            self.metrics.blacklist_events += 1

    def _rate_exceeded(self, receiver: Agent, sender_key: bytes) -> bool:
        count = receiver.rate_window.get(sender_key, 0) + 1
        receiver.rate_window[sender_key] = count
        if count <= self.rate_limit:
            return False
        # one flood event per (sender, victim, tick); dedup via claim id
        w = Writer()
        w.u8(ord("W"))
        w.lp_bytes(sender_key)
        w.lp_bytes(receiver.public_key)
        w.u64(self.current_tick)
        claim = misbehavior_claim(
            sender_key, ObservationKind.INVALID_DATA, hash_bytes(w.getvalue())
        )
        self._accept_claim(receiver, claim)
        return True

    def _refused(self, receiver: Agent, sender_key: bytes) -> bool:
        """The receiver's gate for anything a peer sends it: shunned
        senders first, so they never reach the rate window, then the
        flood limit. A refusal counts one rejection."""
        if is_blacklisted(receiver.experience, sender_key) or self._rate_exceeded(
            receiver, sender_key
        ):
            self.metrics.rejections += 1
            return True
        return False

    def _store_if_valid(self, dst: Agent, record: Record, key: bytes, shipper: bytes) -> bool:
        """Re-validate a delivered record against dst's own blueprint copy
        and store it if it holds up. An invalid record is scored against
        the shipper, not the claimed author: whoever pushes bytes owns
        them. Returns whether the record was valid."""
        verdict = authenticate_channel(
            record, dst.chain.dna, self.marketplace, app_id=self.network_id,
            ctx=self._rule_context(dst),
        )
        self.metrics.validations += 1
        self.metrics.validation_work += validation_work(dst.chain.dna, record.header.entry_type)
        if not verdict.valid:
            self.metrics.rejections += 1
            self._accept_claim(
                dst, misbehavior_claim(shipper, ObservationKind.INVALID_DATA, key)
            )
            return False
        if key not in dst.shard:
            dst.shard[key] = record
            self.metrics.stores += 1
            update_experience(dst.experience, record.header.author, ObservationKind.VALID_OK)
        return True

    # -- publish / fetch -----------------------------------------------------

    def publish(self, author: Agent, record: Record) -> list[Receipt]:
        """Push one of the author's own records to its validator neighborhood.

        The record must already sit on the author's chain. Each online
        validator independently authenticates the channel with its own
        blueprint copy; storing yields a receipt, anything invalid
        is rejected and scored against the author.
        """
        if author.chain.dna.network_id != self.network_id:
            raise CrossNetworkError("author does not belong to this network")
        key = record_key(record)
        if key not in author.chain.keys:
            raise DhtError("record is not on the author's chain")
        author.published.add(key)
        payload = self._publish_payload(self.network_id, record)
        envelope = make_envelope(author.keys, "publish", payload)
        receipts: list[Receipt] = []
        for validator in self.neighborhood(key):
            self.metrics.messages += 1
            if not validator.online:
                update_experience(author.experience, validator.public_key, ObservationKind.UNAVAILABLE)
                continue
            receipt = self._deliver_publish(author, validator, envelope)
            if receipt is not None:
                receipts.append(receipt)
        return receipts

    @staticmethod
    def _publish_payload(app_id: bytes, record: Record) -> bytes:
        w = Writer()
        w.digest(app_id)
        w.lp_bytes(encode_record(record))
        return w.getvalue()

    def _deliver_publish(
        self, sender: Agent, validator: Agent, envelope: GossipMessage
    ) -> Receipt | None:
        payload = envelope.payload
        for hook in self.wire_hooks:
            payload = hook("publish", sender, validator, payload)
        if self._refused(validator, envelope.sender):
            return None
        if payload is not envelope.payload:
            envelope = GossipMessage(envelope.kind, envelope.sender, payload, envelope.signature)
        if not envelope.valid:
            # bytes changed in flight; nobody provably sent this, so reject
            # without scoring anyone
            self.metrics.rejections += 1
            return None
        try:
            app_id, record = envelope.publish_body
        except EncodingError:
            self.metrics.rejections += 1
            return None
        key = record_key(record)
        if app_id != self.network_id:
            # a record addressed to some other network has no business in
            # this DHT even if that network is registered; the shipper owns
            # the misdirection
            self.metrics.rejections += 1
            self._accept_claim(
                validator, misbehavior_claim(envelope.sender, ObservationKind.INVALID_DATA, key)
            )
            return None
        if not self._store_if_valid(validator, record, key, envelope.sender):
            return None
        return Receipt(holder=validator.public_key, key=key)

    def _rule_context(self, validator: Agent) -> RuleContext:
        return RuleContext(
            resolve=lambda key: self.fetch(validator, key, count_messages=False),
            credit_limit=int(validator.chain.dna.param("fuel.credit_limit", "0")),
        )

    def fetch(self, requester: Agent, key: bytes, count_messages: bool = True) -> Record | None:
        """Look a record up by key: own holdings first, then online holders
        nearest the key. Returns None when no online peer has it."""
        local = requester.lookup(key)
        if local is not None:
            return local
        for holder in self._ranking(key):
            if holder is requester:
                continue
            if count_messages:
                self.metrics.messages += 1
            if not holder.online:
                continue
            found = holder.lookup(key)
            if found is not None:
                return found
        return None

    # -- claims ---------------------------------------------------------------

    def send_claim(self, sender: Agent, receiver: Agent, claim: NewsClaim) -> bool:
        """Deliver one news claim directly (used to seed transfer witnesses)."""
        self.metrics.messages += 1
        if not receiver.online or self._refused(receiver, sender.public_key):
            return False
        self._accept_claim(receiver, claim)
        return True

    def clear_news(self) -> None:
        """Empty every news pool, and the transfer index and the claim
        numbering with them."""
        for agent in self.agents:
            agent.news.clear()
            agent.news_bits = 0
        self.transfer_index.clear()
        self._claim_bit.clear()
        self._claim_ids.clear()

    # -- gossip ---------------------------------------------------------------

    def gossip_round(self, rng: random.Random) -> int:
        """One epidemic round: every online agent syncs with fanout random
        online peers. Claims flow both ways; records flow to peers that
        currently belong in their holder set. Returns the contact count."""
        online = [a for a in self.agents if a.online]
        others = len(online) - 1
        contacts: list[tuple[Agent, Agent]] = []
        if others > 0:
            for me, agent in enumerate(online):
                # index j among the others, i.e. online without agent; the
                # draws are those of sampling that list itself
                for j in rng.sample(range(others), min(self.fanout, others)):
                    contacts.append((agent, online[j + (j >= me)]))
        wants = self._want_lists()
        for a, b in contacts:
            self.metrics.messages += 1
            self._exchange(a, b, wants)
        return len(contacts)

    def _want_lists(self) -> dict[Agent, set[bytes]]:
        """For each online agent, the keys whose holder set it belongs to
        and that it does not hold: all a gossip round may ship to it.

        Built at the start of a round and exact for all of it: presence
        does not change within a round, gossip creates no key, and
        holdings only grow (``_sync_records`` re-checks ``holds`` live). A
        key is its record's hash, so any copy gives the entry type.
        """
        online = [a for a in self.agents if a.online]
        records: dict[bytes, Record] = {}
        for agent in online:
            for key in itertools.chain(agent.shard, agent.published):
                if key not in records:
                    record = agent.lookup(key)
                    if record is not None:
                        records[key] = record
        wants: dict[Agent, set[bytes]] = {a: set() for a in online}
        for key, record in records.items():
            for agent in self.backup_targets(key, record):
                if agent.online and not agent.holds(key):
                    wants[agent].add(key)
        return wants

    def _exchange(self, a: Agent, b: Agent, wants: dict[Agent, set[bytes]]) -> None:
        if self._refused(b, a.public_key) or self._refused(a, b.public_key):
            return
        self._sync_claims(a, b)
        self._sync_claims(b, a)
        self._sync_records(a, b, wants[b])
        self._sync_records(b, a, wants[a])

    def _sync_claims(self, src: Agent, dst: Agent) -> None:
        """Offer dst only the claims it lacks, lowest id first. The bits
        src holds and dst lacks name them; most contacts find none."""
        missing = src.news_bits & ~dst.news_bits
        if not missing:
            return
        ids = self._claim_ids
        lacking = []
        while missing:
            low = missing & -missing
            lacking.append(ids[low.bit_length() - 1])
            missing ^= low
        for cid in sorted(lacking):
            self._accept_claim(dst, src.news[cid])

    def _sync_records(self, src: Agent, dst: Agent, want: set[bytes]) -> None:
        """Offer dst the keys of its want-list that src holds or has
        published, lowest key first."""
        for key in sorted(k for k in want if k in src.shard or k in src.published):
            if dst.holds(key):
                continue
            record = src.lookup(key)
            if record is None:
                continue
            if self._store_if_valid(dst, record, key, src.public_key):
                self.metrics.backup_transfers += 1

    # -- integrity sweeps -------------------------------------------------------

    def holders_of(self, key: bytes) -> list[Agent]:
        return [a for a in self.agents if a.holds(key)]

    def assert_shards_validated(self) -> None:
        """Every stored record must still authenticate. Safety net assertion."""
        for agent in self.agents:
            for key in sorted(agent.shard):
                record = agent.shard[key]
                verdict = authenticate_channel(
                    record, agent.chain.dna, self.marketplace,
                    app_id=self.network_id, ctx=self._rule_context(agent),
                )
                if not verdict.valid:
                    raise AssertionError(
                        f"agent {agent.index} shard holds invalid record "
                        f"{key.hex()[:12]}: {verdict.reason.value}"
                    )
