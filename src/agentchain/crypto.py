"""Hashing and signing primitives.

Everything above this layer treats digests and keys as plain bytes so the
algorithm choice stays swappable. Current bindings: SHA-256 (hashlib) for
content addressing, Ed25519 from the libsodium shared library (1.0.18 or
later, through ctypes) for signatures. Key generation is deterministic from
a 32-byte seed, which is what makes whole-network simulations replayable.

libsodium's verify refuses small-order public keys and R points and
non-canonical encodings, so a signature that no secret key made (the
identity point as key, with the identity point and zero as signature) does
not verify. Signatures themselves are RFC 8032's: deterministic, the same
bytes from any conforming signer.
"""

from __future__ import annotations

import ctypes
import hashlib
from dataclasses import dataclass, field

DIGEST_SIZE = 32
SEED_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64
# libsodium's secret key is seed || public key
SECRET_KEY_SIZE = SEED_SIZE + PUBLIC_KEY_SIZE

# prev-link sentinel for the first record of a chain
ZERO_DIGEST = bytes(DIGEST_SIZE)

HASH_ALG_ID = "sha-256"

# Loaded by soname, not through ctypes.util.find_library, which forks
# ldconfig: libsodium 1.0.18 (Debian/Ubuntu libsodium23), 1.0.19 and later,
# the unversioned development link, macOS.
_LIBSODIUM_NAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so", "libsodium.dylib")


def _load_libsodium() -> ctypes.CDLL:
    for name in _LIBSODIUM_NAMES:
        try:
            lib = ctypes.CDLL(name)
            break
        except OSError:
            continue
    else:
        raise ImportError(
            "agentchain.crypto needs the libsodium shared library, 1.0.18 or later: "
            "install libsodium23 (Debian, Ubuntu), libsodium (Fedora, Homebrew)"
        )
    if _bind(lib, "sodium_init", ctypes.c_int)() < 0:
        raise ImportError(f"{name}: sodium_init failed")
    for size_name, want in (
        ("crypto_sign_ed25519_bytes", SIGNATURE_SIZE),
        ("crypto_sign_ed25519_publickeybytes", PUBLIC_KEY_SIZE),
        ("crypto_sign_ed25519_secretkeybytes", SECRET_KEY_SIZE),
    ):
        got = _bind(lib, size_name, ctypes.c_size_t)()
        if got != want:
            raise ImportError(f"{name}: {size_name}() is {got}, expected {want}")
    return lib


def _bind(lib: ctypes.CDLL, name: str, restype: type, *argtypes: type) -> ctypes._CFuncPtr:
    fn = getattr(lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


_sodium = _load_libsodium()
_seed_keypair = _bind(
    _sodium,
    "crypto_sign_ed25519_seed_keypair",
    ctypes.c_int,
    ctypes.c_char_p,  # public key out
    ctypes.c_char_p,  # secret key out
    ctypes.c_char_p,  # seed
)
_sign_detached = _bind(
    _sodium,
    "crypto_sign_ed25519_detached",
    ctypes.c_int,
    ctypes.c_char_p,  # signature out
    ctypes.c_void_p,  # signature length out, NULL
    ctypes.c_char_p,  # message
    ctypes.c_ulonglong,  # message length
    ctypes.c_char_p,  # secret key
)
_verify_detached = _bind(
    _sodium,
    "crypto_sign_ed25519_verify_detached",
    ctypes.c_int,
    ctypes.c_char_p,  # signature
    ctypes.c_char_p,  # message
    ctypes.c_ulonglong,  # message length
    ctypes.c_char_p,  # public key
)


# output buffer types of keygen and sign, made once
_PublicKeyOut = ctypes.c_char * PUBLIC_KEY_SIZE
_SecretKeyOut = ctypes.c_char * SECRET_KEY_SIZE
_SignatureOut = ctypes.c_char * SIGNATURE_SIZE

_sha256 = hashlib.sha256


def hash_bytes(data: bytes) -> bytes:
    """Content digest of a byte string (32 bytes). bytes are hashed as
    they are; a bytearray or memoryview is hashed from a copy."""
    if type(data) is bytes:
        return _sha256(data).digest()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"hash_bytes wants bytes, got {type(data).__name__}")
    return _sha256(bytes(data)).digest()


@dataclass(frozen=True)
class KeyPair:
    """Signing identity. public_key doubles as the agent id on the wire.

    secret_key is libsodium's (seed || public key), made once by
    generate_keypair for every sign, and the one place the seed is kept.
    It is neither shown nor compared: one public key is one identity.
    """

    public_key: bytes
    secret_key: bytes = field(repr=False, compare=False)

    def __repr__(self) -> str:  # never leak the secret key
        return f"KeyPair(public_key={self.public_key.hex()[:16]}...)"


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair from a 32-byte seed. Same seed, same keys."""
    if len(seed) != SEED_SIZE:
        raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    seed = bytes(seed)
    public_key = _PublicKeyOut()
    secret_key = _SecretKeyOut()
    if _seed_keypair(public_key, secret_key, seed) != 0:
        raise RuntimeError("libsodium crypto_sign_ed25519_seed_keypair failed")
    return KeyPair(public_key.raw, secret_key.raw)


def sign(keys: KeyPair, message: bytes) -> bytes:
    """Detached 64-byte signature over message."""
    signature = _SignatureOut()
    if _sign_detached(signature, None, message, len(message), keys.secret_key) != 0:
        raise RuntimeError("libsodium crypto_sign_ed25519_detached failed")
    return signature.raw


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid for message under public_key.

    Malformed keys or signatures simply verify as False; callers never have
    to distinguish "wrong" from "garbage".
    """
    if len(signature) != SIGNATURE_SIZE or len(public_key) != PUBLIC_KEY_SIZE:
        return False
    return _verify_detached(signature, message, len(message), public_key) == 0
