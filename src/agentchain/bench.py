"""Cost comparison: global replication versus per-agent chains with shards.

Two layers deliberately kept apart:

* an analytic model of per-step validation burden -- every replica
  re-validating every entry (n^2 scaling for n proposers) versus a constant
  validator set per entry (log n neighborhood maintenance plus a constant),
* two small but real executions with actual signatures, counting every
  store and every message, so the model's scaling shows up in counted
  events rather than asserted formulas.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .canonical import Writer
from .chain import record_key
from .crypto import KeyPair, generate_keypair, hash_bytes, sign, verify
from .dht import Network, agent_seed, make_agent
from .healthcare import healthcare_dna
from .validation import Marketplace

# model constant: fixed per-entry work that does not grow with the network
BASE_VALIDATION_COST = 1.0


def eval_model(n: int, m: int) -> tuple[float, float]:
    """(replicated cost, sharded cost) for m entries across n nodes.

    Replicated: each of n nodes validates everything all n nodes produce.
    Sharded: an entry is validated by a fixed-size neighborhood whose
    upkeep grows with log2(n).
    """
    if n < 2:
        raise ValueError("need at least two nodes to compare")
    replicated = float(n * n * m)
    sharded = m * (math.log2(n) + BASE_VALIDATION_COST)
    return replicated, sharded


# ---------------------------------------------------------------------------
# replicated baseline, executed

@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    payload: bytes
    proposer: bytes
    signature: bytes


def _block_signing_bytes(index: int, prev_hash: bytes, payload: bytes, proposer: bytes) -> bytes:
    w = Writer()
    w.u64(index)
    w.digest(prev_hash)
    w.lp_bytes(payload)
    w.lp_bytes(proposer)
    return w.getvalue()


def block_hash(block: Block) -> bytes:
    w = Writer()
    w.lp_bytes(_block_signing_bytes(block.index, block.prev_hash, block.payload, block.proposer))
    w.lp_bytes(block.signature)
    return hash_bytes(w.getvalue())


def run_blockchain_baseline(n: int, m: int, seed: int = 7) -> dict:
    """n replicas, m blocks, every replica stores and verifies every block.

    Returns counted stores/messages plus a replica-agreement flag: after the
    run every replica must hold the identical chain.
    """
    if n < 2:
        raise ValueError("need at least two replicas")
    keys: list[KeyPair] = [generate_keypair(agent_seed(seed, i)) for i in range(n)]
    replicas: list[list[Block]] = [[] for _ in range(n)]
    heads: list[bytes] = [b"\x00" * 32 for _ in range(n)]
    stores = 0
    messages = 0
    verifications = 0
    rng = random.Random(seed)
    for index in range(m):
        proposer_i = index % n
        proposer = keys[proposer_i]
        payload = b"entry-" + index.to_bytes(4, "big") + rng.randbytes(8)
        signing = _block_signing_bytes(index, heads[proposer_i], payload, proposer.public_key)
        block = Block(
            index=index,
            prev_hash=heads[proposer_i],
            payload=payload,
            proposer=proposer.public_key,
            signature=sign(proposer, signing),
        )
        # proposer stores its own block, then broadcasts to everyone else
        for i in range(n):
            if i != proposer_i:
                messages += 1
            expected_prev = heads[i]
            verifications += 1
            ok = block.prev_hash == expected_prev and verify(
                block.proposer,
                _block_signing_bytes(block.index, block.prev_hash, block.payload, block.proposer),
                block.signature,
            )
            if not ok:
                raise AssertionError(f"replica {i} rejected block {index}")
            replicas[i].append(block)
            heads[i] = block_hash(block)
            stores += 1
    identical = len(set(heads)) == 1 and all(len(r) == m for r in replicas)
    return {
        "nodes": n,
        "entries": m,
        "stores": stores,
        "messages": messages,
        "verifications": verifications,
        "replicas_identical": identical,
    }


# ---------------------------------------------------------------------------
# sharded run, executed

def run_holochain_count(n: int, m: int, r: int = 4, seed: int = 7) -> dict:
    """n agents, m published entries, r validators per entry, counted.

    Storage materialized: every agent's two bootstrap records (2n), the
    author's own copy of each entry (m), and r holder copies per entry
    (m*r). Messages are the publish deliveries (m*r); no gossip rounds run
    here, so the counts stay closed-form checkable.
    """
    if n <= r:
        raise ValueError(f"need more than {r} agents to host {r} holders")
    dna = healthcare_dna(redundancy=r)
    network = Network(dna, Marketplace())
    for i in range(n):
        network.join(make_agent(i, agent_seed(seed, i), dna))
    for index in range(m):
        author = network.agents[index % n]
        record = author.append("report", {"text": f"entry {index}"}, index + 1)
        receipts = network.publish(author, record)
        if len(receipts) != r:
            raise AssertionError(
                f"entry {index} gathered {len(receipts)} receipts, wanted {r}"
            )
        key = record_key(record)
        if any(not a.holds(key) for a in network.neighborhood(key)):
            raise AssertionError(f"entry {index} missing at a neighborhood holder")
    chain_copies = sum(len(a.chain.records) for a in network.agents)
    return {
        "nodes": n,
        "entries": m,
        "redundancy": r,
        "stores": network.metrics.stores + chain_copies,
        "messages": network.metrics.messages,
        "validations": network.metrics.validations,
        "validation_work": network.metrics.validation_work,
    }


# ---------------------------------------------------------------------------
# the sweep

SWEEP_HEADER = "n,m,r,bc_stores,bc_msgs,hc_stores,hc_msgs,model_bc,model_hc"
DEFAULT_SIZES = (8, 16, 32, 64, 128)


def compare_sweep(
    sizes: tuple[int, ...] = DEFAULT_SIZES, m: int = 100, r: int = 4, seed: int = 7
) -> list[dict]:
    rows = []
    for n in sizes:
        bc = run_blockchain_baseline(n, m, seed)
        if not bc["replicas_identical"]:
            raise AssertionError(f"baseline replicas diverged at n={n}")
        hc = run_holochain_count(n, m, r, seed)
        model_bc, model_hc = eval_model(n, m)
        rows.append(
            {
                "n": n,
                "m": m,
                "r": r,
                "bc_stores": bc["stores"],
                "bc_msgs": bc["messages"],
                "hc_stores": hc["stores"],
                "hc_msgs": hc["messages"],
                "model_bc": model_bc,
                "model_hc": model_hc,
            }
        )
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                str(row[c])
                for c in ("n", "m", "r", "bc_stores", "bc_msgs", "hc_stores", "hc_msgs", "model_bc", "model_hc")
            )
        )
    return "\n".join(lines) + "\n"
