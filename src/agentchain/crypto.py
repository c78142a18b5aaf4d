"""Hashing and signing primitives.

Everything above this layer treats digests and keys as plain bytes so the
algorithm choice stays swappable. Current bindings: SHA-256 for content
addressing, Ed25519 for signatures. Key generation is deterministic from a
32-byte seed, which is what makes whole-network simulations replayable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_SIZE = 32
SEED_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

# prev-link sentinel for the first record of a chain
ZERO_DIGEST = bytes(DIGEST_SIZE)

HASH_ALG_ID = "sha-256"


def hash_bytes(data: bytes) -> bytes:
    """Content digest of a byte string (32 bytes)."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"hash_bytes wants bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


@dataclass(frozen=True)
class KeyPair:
    """Signing identity. public_key doubles as the agent id on the wire."""

    seed: bytes
    public_key: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sk", Ed25519PrivateKey.from_private_bytes(self.seed))

    def __repr__(self) -> str:  # never leak the seed
        return f"KeyPair(public_key={self.public_key.hex()[:16]}...)"


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair from a 32-byte seed. Same seed, same keys."""
    if len(seed) != SEED_SIZE:
        raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    sk = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(seed=bytes(seed), public_key=sk.public_key().public_bytes_raw())


def sign(keys: KeyPair, message: bytes) -> bytes:
    """Detached 64-byte signature over message."""
    return keys._sk.sign(message)  # type: ignore[attr-defined]


# verifying keys are immutable; cache the parsed objects
_PK_CACHE: dict[bytes, Ed25519PublicKey] = {}


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid for message under public_key.

    Malformed keys or signatures simply verify as False; callers never have
    to distinguish "wrong" from "garbage".
    """
    if len(signature) != SIGNATURE_SIZE or len(public_key) != PUBLIC_KEY_SIZE:
        return False
    pk = _PK_CACHE.get(public_key)
    if pk is None:
        try:
            pk = Ed25519PublicKey.from_public_bytes(public_key)
        except ValueError:
            return False
        if len(_PK_CACHE) < 4096:
            _PK_CACHE[public_key] = pk
    try:
        pk.verify(signature, message)
        return True
    except InvalidSignature:
        return False
