"""Sharded record storage and gossip across one app network.

Records an agent chooses to share are pushed to the peers closest to the
record key (XOR distance over hashed public keys). Every receiving peer
re-validates against its own blueprint copy before storing anything, and
issues a receipt when it does. Gossip rounds spread news claims (transfer
announcements and misbehavior reports) on random contacts, and keep
redundancy up as peers drop on and off: a holder lacking a record pulls it
from the key's other holders or its author, so no payload leaves them.

Reputation lives here too: validators score authors on every delivery, and
misbehavior reports are deduplicated by event so one offense costs the
offender exactly one penalty at every honest peer.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Mapping

from .canonical import (
    DIGEST_AND_LEN,
    LEN_PREFIX,
    TRUNCATED,
    U32_MAX,
    U64_MAX,
    EncodingError,
    FieldValue,
    Writer,
    check_end,
    u32_out_of_range,
)
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
from .crypto import (
    DIGEST_SIZE,
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    KeyPair,
    generate_keypair,
    hash_bytes,
    sign,
    verify,
)
from .metrics import Metrics
from .reputation import (
    ExperienceMatrix,
    ObservationKind,
    is_blacklisted,
    update_experience,
)
from .validation import Marketplace, Verdict, authenticate_channel, validation_work

DEFAULT_FANOUT = 2
DEFAULT_RATE_LIMIT = 100
DEFAULT_BACKUP_FACTOR = 2.0
DEFAULT_WITNESS_COUNT = 8
DEFAULT_AUDIT_SAMPLES = 8


class DhtError(Exception):
    pass


class CrossNetworkError(DhtError):
    """Record or agent belongs to a different network id."""


# ---------------------------------------------------------------------------
# news claims

CLAIM_TRANSFER = "transfer"
CLAIM_MISBEHAVIOR = "misbehavior"
CLAIM_REVOKE = "revoke"

_CLAIM_HEAD = struct.Struct(">BI")  # 'N', kind length; the layout is in canonical.py


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
        """The digest of the claim-id layout in canonical.py."""
        kind = self.kind.encode("utf-8")
        detail = self.detail.encode("utf-8")
        if len(kind) > U32_MAX:
            raise u32_out_of_range(len(kind))
        if len(self.subject) != DIGEST_SIZE:
            raise EncodingError(f"fixed field wants {DIGEST_SIZE} bytes, got {len(self.subject)}")
        for raw in (self.agent, self.extra, detail):
            if len(raw) > U32_MAX:
                raise u32_out_of_range(len(raw))
        return hash_bytes(
            b"".join(
                (
                    _CLAIM_HEAD.pack(0x4E, len(kind)),
                    kind,
                    DIGEST_AND_LEN.pack(self.subject, len(self.agent)),
                    self.agent,
                    LEN_PREFIX.pack(len(self.extra)),
                    self.extra,
                    LEN_PREFIX.pack(len(detail)),
                    detail,
                )
            )
        )


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


# what a publish envelope's sender signs before the payload (canonical.py)
_PUBLISH_TAG = b"publish\x00"


@dataclass(frozen=True)
class GossipMessage:
    """Signed publish envelope: the sender's signature over the publish
    tag and the payload, which make_envelope writes and publish_body reads.

    What is derived from the bytes is derived once per envelope and shared
    by every receiver of it. An envelope is never edited in place: a wire
    hook that changes the payload builds a new one, checked afresh.
    """

    sender: bytes
    payload: bytes
    signature: bytes

    @cached_property
    def valid(self) -> bool:
        """Whether sender signed the payload."""
        return verify(self.sender, _PUBLISH_TAG + self.payload, self.signature)

    @cached_property
    def publish_body(self) -> tuple[bytes, Record]:
        """The payload as (app_id, record); its holders share the one
        record, and so its key, payload hash, field map and signature
        check. make_envelope sets it to the record it encoded, so the
        validators of a publish share the author's own record. A copy is
        decoded only when a wire hook changed the payload, or when the
        header's author or signature size does not decode. Raises
        EncodingError, and caches nothing, if the payload is not a
        publish encoding: the 32-byte app id, then the record's encoding,
        length-prefixed."""
        data = bytes(self.payload)
        try:
            app_id, n = DIGEST_AND_LEN.unpack_from(data)
        except struct.error:
            raise EncodingError(TRUNCATED) from None
        pos = DIGEST_AND_LEN.size
        end = pos + n
        if end > len(data):
            raise EncodingError(TRUNCATED)
        record = decode_record(data[pos:end])
        check_end(data, end)
        return app_id, record


def make_envelope(keys: KeyPair, app_id: bytes, record: Record) -> GossipMessage:
    """The signed envelope publishing record to the network app_id names:
    the one writer of the publish payload that publish_body reads."""
    if len(app_id) != DIGEST_SIZE:
        raise EncodingError(f"fixed field wants {DIGEST_SIZE} bytes, got {len(app_id)}")
    encoded = encode_record(record)
    if len(encoded) > U32_MAX:
        raise u32_out_of_range(len(encoded))
    payload = b"".join((DIGEST_AND_LEN.pack(app_id, len(encoded)), encoded))
    envelope = GossipMessage(
        sender=keys.public_key,
        payload=payload,
        signature=sign(keys, _PUBLISH_TAG + payload),
    )
    # the payload decodes to record, unless a header size fails the strict
    # decode that the encoder does not enforce
    h = record.header
    if len(h.author) == PUBLIC_KEY_SIZE and len(h.signature) == SIGNATURE_SIZE:
        envelope.__dict__["publish_body"] = (app_id, record)
    return envelope


# ---------------------------------------------------------------------------
# agents

@dataclass(eq=False)
class Agent:
    """One network participant: identity, chain, shard, scores, news.

    The news pool is ``news_bits``, one bit per claim in the network's
    claim table (see ``Network._accept_claim``); ``Network.has_claim`` and
    ``Network.claims_of`` read it. Agents compare by identity, so ``agent in
    targets`` is a pointer compare.
    """

    index: int
    keys: KeyPair
    chain: SourceChain
    online: bool = True
    pinned_presence: bool = False  # scripted on/off overrides churn
    experience: ExperienceMatrix = field(default_factory=ExperienceMatrix)
    shard: dict[bytes, Record] = field(default_factory=dict)
    news_bits: int = 0  # the news pool, as bits of the network's claim table
    rate_window: dict[bytes, int] = field(default_factory=dict)
    node_id: int = 0

    def __post_init__(self) -> None:
        self.node_id = int.from_bytes(hash_bytes(self.keys.public_key), "big")

    @property
    def public_key(self) -> bytes:
        return self.keys.public_key

    def append(
        self,
        entry_type: str,
        payload: bytes | dict,
        clock: int,
        fields: Mapping[str, FieldValue] | None = None,
    ) -> Record:
        return append_entry(self.chain, entry_type, payload, clock, fields)

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


def make_agents(
    run_seed: int,
    count: int,
    dna: DnaDocument,
    blacklist_threshold: float | None = None,
) -> list[Agent]:
    """A run's members 0 .. count - 1, each made by make_agent from its
    agent_seed, in index order on the calling thread: the one bootstrap
    path of a network's members."""
    return [
        make_agent(i, agent_seed(run_seed, i), dna, blacklist_threshold=blacklist_threshold)
        for i in range(count)
    ]


# run seed, member index; the layout is in canonical.py
_AGENT_SEED = struct.Struct(">QI")


def agent_seed(run_seed: int, index: int) -> bytes:
    """Stable per-agent key seed derived from the run seed (taken mod
    2**64): the digest of the agent-seed layout in canonical.py."""
    if not 0 <= index <= U32_MAX:
        raise u32_out_of_range(index)
    return hash_bytes(_AGENT_SEED.pack(run_seed & U64_MAX, index))


def _draw(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct indices in [0, n), 0 <= k <= n: the result and the
    ``getrandbits`` draws of CPython's ``rng.sample(range(n), k)``, without
    its per-call overhead. Each index below m takes m's bit length in bits,
    drawn again while it is m or more, as ``Random._randbelow`` does.

    Like ``sample``, it swaps and shrinks a pool of the n indices when that
    list is smaller than a set of k, and otherwise draws below n, again
    while the index is already taken."""
    getrandbits = rng.getrandbits
    drawn: list[int] = []
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            drawn.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in drawn:
                j = getrandbits(bits)
            drawn.append(j)
    return drawn


# ---------------------------------------------------------------------------
# the network

class Network:
    """All peers sharing one blueprint, plus the shared metrics sink.

    The network also keeps the one claim table behind every news pool: each
    distinct claim once, at the bit that names it in every agent's
    ``news_bits``, and the bits of each claim kind. A pool costs its agent
    one bit per claim, and gossip merges two pools with one OR.
    """

    def __init__(
        self,
        dna: DnaDocument,
        marketplace: Marketplace,
        metrics: Metrics | None = None,
        fanout: int = DEFAULT_FANOUT,
        rate_limit: int = DEFAULT_RATE_LIMIT,
        backup_factor: float = DEFAULT_BACKUP_FACTOR,
        witness_count: int = DEFAULT_WITNESS_COUNT,
        audit_samples: int = DEFAULT_AUDIT_SAMPLES,
    ) -> None:
        self.dna = dna
        self.network_id = dna.network_id
        marketplace.register(dna)
        self.marketplace = marketplace
        self.metrics = metrics if metrics is not None else Metrics()
        self.fanout = fanout
        self.rate_limit = rate_limit
        self.witness_count = witness_count
        self.audit_samples = audit_samples
        # the members in join order, one per public key, and public key ->
        # its member's position there; written by join only
        self.agents: list[Agent] = []
        self._positions: dict[bytes, int] = {}
        self.redundancy = dna.dht_redundancy
        # how many of its nearest members hold a key of a type that is not
        # restricted: ceil(r * backup_factor), capped at 2**32, past any
        # member count (a member index is a u32), so that no finite factor
        # overflows it
        self.backup_width = math.ceil(min(self.redundancy * backup_factor, 2**32))
        # hooks see (sender, receiver, payload) of each publish; may mutate it
        self.wire_hooks: list[Callable[[Agent, Agent, bytes], bytes]] = []
        self.current_tick = 0
        # the members by node id, and their ids, for the walk; built on the
        # first walk after a join
        self._by_id: list[Agent] = []
        self._ids: list[int] = []
        # (sender, sender_prev_tx) -> {claim id: tx_id} for every transfer
        # claim some agent holds, one entry per distinct claim; written by
        # _accept_claim when a claim enters the table
        self.transfer_index: dict[tuple[bytes, bytes], dict[bytes, bytes]] = {}
        # the claim table: every claim some agent holds, by its bit in every
        # agent's news_bits (numbered in order of first acceptance), the bit
        # of each claim id, and kind -> the bits of that kind; written by
        # _accept_claim and clear_news only
        self._claims: list[NewsClaim] = []
        self._claim_bit: dict[bytes, int] = {}
        self._kind_bits: dict[str, int] = {}
        # the re-replication plan: every key that reached the network by
        # publish -> how many of its nearest members hold it, and its
        # author's public key; and member -> the keys whose holder set it is
        # in and its shard lacked when planned (at publish, and at each
        # join), less those stored there since. Written by join, publish,
        # _plan and _store_if_valid only
        self._holder_sets: dict[bytes, tuple[int, bytes]] = {}
        self._pending: dict[Agent, set[bytes]] = {}

    def join(self, agent: Agent) -> None:
        """Admit agent, a member of this network's blueprint whose public
        key is not a member's yet. The sorted members are dropped, to be
        rebuilt by the next walk, and every published key is planned again
        onto its holder set under the new membership."""
        if agent.chain.dna.network_id != self.network_id:
            raise CrossNetworkError("agent bootstrapped under a different blueprint")
        if agent.public_key in self._positions:
            raise DhtError("an agent with this public key is already a member")
        self._positions[agent.public_key] = len(self.agents)
        self.agents.append(agent)
        self._by_id.clear()
        self._ids.clear()
        # holder sets change with membership: plan every published key again
        self._pending.clear()
        for key, (count, _author) in self._holder_sets.items():
            self._plan(key, self.neighborhood(key, count))

    def begin_tick(self, tick: int) -> None:
        self.current_tick = tick
        for agent in self.agents:
            agent.rate_window.clear()

    # -- peer pools -----------------------------------------------------------

    def draw_strangers(self, rng: random.Random, k: int, *keys: bytes) -> list[Agent]:
        """min(k, pool size) members drawn from the pool of those whose
        public key is none of keys, in join order: the peers and the draws
        of ``rng.sample(pool, min(k, len(pool)))``. No pool is built: an
        index into it steps past each excluded position at or below it."""
        positions = self._positions
        cut = sorted(positions[key] for key in set(keys) if key in positions)
        agents = self.agents
        size = len(agents) - len(cut)
        drawn = []
        for i in _draw(rng, size, min(k, size)):
            for p in cut:
                if p > i:
                    break
                i += 1
            drawn.append(agents[i])
        return drawn

    # -- topology ----------------------------------------------------------

    def neighborhood(self, key: bytes, r: int | None = None) -> list[Agent]:
        """The min(r, n) members nearest to key by XOR over node ids,
        nearest first, online or not. It changes only when an agent joins,
        never with presence.

        The walk descends the binary trie over the members sorted by node id
        (Kademlia's XOR order) and stops once it has r. A range of that order
        shares every id bit above the highest bit in which its ends differ;
        the half whose bit there matches the key's comes first. A range of at
        most r members is ordered with one sort. Members have distinct keys,
        so distinct node ids: a range that does not fit holds two ids, which
        differ in some bit. Nothing of the order is kept per key.
        """
        r = max(0, self.redundancy if r is None else r)
        if not self._by_id:
            self._by_id = sorted(self.agents, key=lambda a: a.node_id)
            self._ids = [a.node_id for a in self._by_id]
        by_id, ids = self._by_id, self._ids
        k = int.from_bytes(key, "big")
        nearest: list[Agent] = []
        ranges = [(0, len(ids))]  # nearest range last
        while ranges and len(nearest) < r:
            lo, hi = ranges.pop()
            if hi - lo <= r:
                nearest += sorted(by_id[lo:hi], key=lambda a: a.node_id ^ k)
                continue
            bit = (ids[lo] ^ ids[hi - 1]).bit_length() - 1
            mid = bisect_left(ids, ids[hi - 1] >> bit << bit, lo, hi)
            near, far = ((mid, hi), (lo, mid)) if k >> bit & 1 else ((lo, mid), (mid, hi))
            ranges += (far, near)
        return nearest[:r]

    def _sources(self, key: bytes, author: bytes) -> list[Agent]:
        """Every member that can hold key's record, online or not: its
        holder set, the first holder-count members of its neighborhood (r
        for a key never published), then the member whose public key is
        author if it lies outside them. Shard copies lie in holder sets, and
        a chain key is its author's alone."""
        sources = self.neighborhood(key, self._holder_sets.get(key, (self.redundancy,))[0])
        position = self._positions.get(author)
        if position is not None and self.agents[position] not in sources:
            sources.append(self.agents[position])
        return sources

    def is_restricted(self, entry_type: str) -> bool:
        return entry_type.startswith(self.dna.restricted_prefixes)

    def backup_targets(self, key: bytes) -> list[Agent]:
        """Who holds a record of a type that is not restricted: the
        backup_width members nearest to key, online or not, with headroom
        over the bare redundancy target so that a record stays reachable
        while some of its holders are away. (A restricted key is held by its
        neighborhood of r.)

        The neighborhood of backup_width, walked afresh on each call: it
        changes only when an agent joins. An offline holder pulls the record
        once it is back (see ``_plan``).
        """
        return self.neighborhood(key, self.backup_width)

    # -- reputation plumbing ------------------------------------------------

    def _accept_claim(self, receiver: Agent, claim: NewsClaim) -> None:
        """Keep a news claim at receiver exactly once, for further gossip.

        The first time any agent accepts a claim id, the claim enters the
        network's table: it gets the next bit, joins its kind's bits and, if
        it is a transfer claim, is indexed by the prior state it spends, for
        the double-spend audit. At the receiver, accepting sets the bit; a
        misbehavior claim new there also scores its offender."""
        cid = claim.claim_id
        bit = self._claim_bit.get(cid)
        if bit is None:
            bit = self._claim_bit[cid] = len(self._claims)
            self._claims.append(claim)
            self._kind_bits[claim.kind] = self._kind_bits.get(claim.kind, 0) | 1 << bit
            if claim.kind == CLAIM_TRANSFER:
                self.transfer_index.setdefault((claim.agent, claim.extra), {})[cid] = claim.subject
        flag = 1 << bit
        if receiver.news_bits & flag:
            return
        receiver.news_bits |= flag
        self.metrics.news_claims += 1
        if claim.kind == CLAIM_MISBEHAVIOR:
            self._score_misbehavior(receiver, claim)

    def _score_misbehavior(self, receiver: Agent, claim: NewsClaim) -> None:
        """Score a misbehavior claim new at receiver against its offender:
        once per event, since a pool takes a claim once. Offenders do not
        score themselves."""
        if claim.agent == receiver.public_key:
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
        them. A stored key leaves dst's pending set. Returns whether the
        record was valid."""
        verdict = self._verdict(dst, record)
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
            if dst in self._pending:
                self._pending[dst].discard(key)
            self.metrics.stores += 1
            update_experience(dst.experience, record.header.author, ObservationKind.VALID_OK)
        return True

    def _verdict(self, agent: Agent, record: Record) -> Verdict:
        """agent's verdict on record by its own blueprint copy; a rule's
        dependency, authored by record's author, is fetched by agent
        without counting messages."""
        return authenticate_channel(
            record, agent.chain.dna, self.marketplace,
            resolve=lambda key: self.fetch(agent, key, record.header.author, count_messages=False),
        )

    # -- publish / fetch -----------------------------------------------------

    def publish(self, author: Agent, record: Record) -> list[Receipt]:
        """Push one of the author's own records to its validator neighborhood.

        The author must be a member, and the record must already sit on its
        chain. Each online validator independently authenticates the channel
        with its own blueprint copy; storing yields a receipt, anything
        invalid is rejected and scored against the author. The validators
        are the first r of the key's holder set: its r nearest members for
        a restricted type, its backup_width nearest (its backup targets) for
        any other, found in one walk. The key then joins the re-replication
        plan (see ``_plan``).
        """
        if author.chain.dna.network_id != self.network_id:
            raise CrossNetworkError("author does not belong to this network")
        position = self._positions.get(author.public_key)
        if position is None or self.agents[position] is not author:
            raise DhtError("author is not a member of this network")
        key = record_key(record)
        if key not in author.chain.keys:
            raise DhtError("record is not on the author's chain")
        restricted = self.is_restricted(record.header.entry_type)
        count = self.redundancy if restricted else self.backup_width
        holders = self.neighborhood(key, count)
        envelope = make_envelope(author.keys, self.network_id, record)
        receipts: list[Receipt] = []
        for validator in holders[: self.redundancy]:
            self.metrics.messages += 1
            if not validator.online:
                continue
            receipt = self._deliver_publish(author, validator, envelope)
            if receipt is not None:
                receipts.append(receipt)
        self._holder_sets[key] = (count, author.public_key)
        self._plan(key, holders)
        return receipts

    def _deliver_publish(
        self, sender: Agent, validator: Agent, envelope: GossipMessage
    ) -> Receipt | None:
        payload = envelope.payload
        for hook in self.wire_hooks:
            payload = hook(sender, validator, payload)
        if self._refused(validator, envelope.sender):
            return None
        if payload is not envelope.payload:
            envelope = GossipMessage(envelope.sender, payload, envelope.signature)
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

    def fetch(
        self, requester: Agent, key: bytes, author: bytes, count_messages: bool = True
    ) -> Record | None:
        """Look a record up by key: own holdings first, then the members
        that can hold it, ``_sources(key, author)``, probed one at a time
        until an online one has it. Each probe, of an offline member too,
        counts one message unless count_messages is off. Returns None when
        no online source has it, after at most the key's holder count + 1
        probes."""
        local = requester.lookup(key)
        if local is not None:
            return local
        for holder in self._sources(key, author):
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

    def has_claim(self, agent: Agent, cid: bytes) -> bool:
        """Whether agent's news pool holds the claim with this id."""
        bit = self._claim_bit.get(cid)
        return bit is not None and agent.news_bits >> bit & 1 == 1

    def claims_of(self, agent: Agent, kind: str) -> list[NewsClaim]:
        """The claims of one kind in agent's news pool, lowest id first."""
        return self._sorted_claims(agent.news_bits & self._kind_bits.get(kind, 0))

    def _sorted_claims(self, bits: int) -> list[NewsClaim]:
        """The claims that bits name in the table, lowest id first."""
        claims = self._claims
        named = []
        while bits:
            low = bits & -bits
            named.append(claims[low.bit_length() - 1])
            bits ^= low
        named.sort(key=attrgetter("claim_id"))
        return named

    def clear_news(self) -> None:
        """Empty every news pool, and the transfer index and the claim
        table with them."""
        for agent in self.agents:
            agent.news_bits = 0
        self.transfer_index.clear()
        self._claims.clear()
        self._claim_bit.clear()
        self._kind_bits.clear()

    # -- gossip ---------------------------------------------------------------

    def gossip_round(self, rng: random.Random) -> int:
        """One epidemic round. Claims flow both ways on random contacts:
        every online agent syncs with fanout random online peers, drawn by
        ``_draw`` as ``rng.sample`` would draw them from the other online
        agents, with no list of those built. Records move only by pull:
        after the contacts, every online agent pulls the keys pending at it
        (see ``_pull``). Returns the contact count."""
        online = [a for a in self.agents if a.online]
        others = len(online) - 1
        if others < 1:
            return 0
        k = min(self.fanout, others)
        for me, agent in enumerate(online):
            # index j among the others, i.e. online without agent; the
            # draws are those of sampling that list itself
            for j in _draw(rng, others, k):
                self.metrics.messages += 1
                self._exchange(agent, online[j + (j >= me)])
        for agent in online:
            self._pull(agent)
        return len(online) * k

    def _plan(self, key: bytes, holders: list[Agent]) -> None:
        """Make key pending at each of its holders whose shard lacks it,
        until it is stored there. holders is the key's static holder set,
        the first holder-count members of its neighborhood, online or not:
        an offline holder keeps its entry and pulls the record once it is
        back. Pending sets follow shards, which only grow, not ``holds``:
        chain holdings shrink on ``SourceChain.replace_at`` and
        ``truncate``."""
        for member in holders:
            if key not in member.shard:
                self._pending.setdefault(member, set()).add(key)

    def _pull(self, agent: Agent) -> None:
        """Pull each key pending at agent that it does not hold, lowest
        first, from its sources in order (see ``_sources``): the first
        online one that holds it, that agent does not shun and that has not
        shipped agent an invalid copy of it (the misbehavior claim agent
        keeps, looked up only while agent's pool holds any). Each ask counts
        one message and passes both ends' receiver gates; a refused or
        invalid ship moves on to the next source."""
        for key in sorted(k for k in self._pending.get(agent, ()) if not agent.holds(k)):
            for source in self._sources(key, self._holder_sets[key][1]):
                if not source.online or not source.holds(key):
                    continue
                if is_blacklisted(agent.experience, source.public_key):
                    continue
                if agent.news_bits & self._kind_bits.get(CLAIM_MISBEHAVIOR, 0):
                    blame = misbehavior_claim(source.public_key, ObservationKind.INVALID_DATA, key)
                    if self.has_claim(agent, blame.claim_id):
                        continue
                self.metrics.messages += 1
                if self._refused(source, agent.public_key) or self._refused(agent, source.public_key):
                    continue
                if self._store_if_valid(agent, source.lookup(key), key, source.public_key):
                    self.metrics.backup_transfers += 1
                    break

    def _exchange(self, a: Agent, b: Agent) -> None:
        if self._refused(b, a.public_key) or self._refused(a, b.public_key):
            return
        self._sync_claims(a, b)
        self._sync_claims(b, a)

    def _sync_claims(self, src: Agent, dst: Agent) -> None:
        """Merge src's pool into dst's with one OR of the bits src holds
        and dst lacks; most contacts find none. The claims are in the table
        already, so only a misbehavior claim needs work of its own: dst
        scores those, lowest id first."""
        missing = src.news_bits & ~dst.news_bits
        if not missing:
            return
        dst.news_bits |= missing
        self.metrics.news_claims += missing.bit_count()
        for claim in self._sorted_claims(missing & self._kind_bits.get(CLAIM_MISBEHAVIOR, 0)):
            self._score_misbehavior(dst, claim)

    # -- integrity sweeps -------------------------------------------------------

    def assert_shards_validated(self) -> None:
        """Every stored record must still authenticate. Safety net assertion."""
        for agent in self.agents:
            for key in sorted(agent.shard):
                verdict = self._verdict(agent, agent.shard[key])
                if not verdict.valid:
                    raise AssertionError(
                        f"agent {agent.index} shard holds invalid record "
                        f"{key.hex()[:12]}: {verdict.reason.value}"
                    )
