"""Primitives against published vectors, then behavior under mutation, then
against cryptography's Ed25519 as a reference implementation."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain.crypto import (
    DIGEST_SIZE,
    PUBLIC_KEY_SIZE,
    SECRET_KEY_SIZE,
    SEED_SIZE,
    SIGNATURE_SIZE,
    ZERO_DIGEST,
    generate_keypair,
    hash_bytes,
    sign,
    verify,
)

# SHA-256 vectors from FIPS 180-2 examples
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# Ed25519 vectors from RFC 8032 section 7.1 (TEST 1 and TEST 2)
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bac"
        "c61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e"
        "458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
]


def test_sha256_vectors():
    assert hash_bytes(b"").hex() == SHA256_EMPTY
    assert hash_bytes(b"abc").hex() == SHA256_ABC
    assert hash_bytes(b"abc") == hashlib.sha256(b"abc").digest()


def test_constants():
    assert DIGEST_SIZE == SEED_SIZE == PUBLIC_KEY_SIZE == 32
    assert SIGNATURE_SIZE == 64
    assert ZERO_DIGEST == b"\x00" * 32


@pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex", RFC8032_VECTORS)
def test_rfc8032_vectors(seed_hex, pub_hex, msg_hex, sig_hex):
    keys = generate_keypair(bytes.fromhex(seed_hex))
    assert keys.public_key.hex() == pub_hex
    msg = bytes.fromhex(msg_hex)
    assert sign(keys, msg).hex() == sig_hex
    assert verify(keys.public_key, msg, bytes.fromhex(sig_hex))


def test_keypair_determinism_and_distinctness():
    seen = set()
    for i in range(1000):
        seed = hash_bytes(i.to_bytes(4, "big"))
        kp = generate_keypair(seed)
        assert kp == generate_keypair(seed)
        seen.add(kp.public_key)
    assert len(seen) == 1000


def test_bad_seed_length_rejected():
    with pytest.raises(ValueError):
        generate_keypair(b"short")


def test_sign_verify_roundtrip():
    kp = generate_keypair(hash_bytes(b"roundtrip"))
    msg = b"clinical note 42"
    sig = sign(kp, msg)
    assert len(sig) == SIGNATURE_SIZE
    assert verify(kp.public_key, msg, sig)
    assert not verify(kp.public_key, msg + b"!", sig)
    other = generate_keypair(hash_bytes(b"other"))
    assert not verify(other.public_key, msg, sig)


def test_verify_tolerates_garbage_inputs():
    kp = generate_keypair(hash_bytes(b"garbage"))
    sig = sign(kp, b"m")
    assert not verify(b"\x00" * 32, b"m", sig)
    assert not verify(b"not a key", b"m", sig)
    assert not verify(kp.public_key, b"m", b"short")
    assert not verify(kp.public_key, b"m", b"\xff" * 64)


def test_signature_mutation_fuzz():
    """No single corrupted bit in sig, message, or key may verify."""
    rng = random.Random(0xC0FFEE)
    kp = generate_keypair(hash_bytes(b"fuzz"))
    msg = bytes(rng.randbytes(48))
    sig = sign(kp, msg)
    for trial in range(1000):
        target = rng.randrange(3)
        if target == 0:
            data = bytearray(sig)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            assert not verify(kp.public_key, msg, bytes(data))
        elif target == 1:
            data = bytearray(msg)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            assert not verify(kp.public_key, bytes(data), sig)
        else:
            data = bytearray(kp.public_key)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            assert not verify(bytes(data), msg, sig)


def test_keypair_repr_hides_seed():
    """Neither the seed nor the secret key shows."""
    seed = hash_bytes(b"secret")
    kp = generate_keypair(seed)
    for secret in (seed, kp.secret_key):
        for shown in (repr(kp), str(kp)):
            assert secret.hex() not in shown
            assert secret.hex()[:16] not in shown
            assert repr(secret) not in shown


def test_the_secret_key_is_libsodiums_seed_then_public_key():
    seed = hash_bytes(b"layout")
    kp = generate_keypair(seed)
    assert kp.secret_key == seed + kp.public_key
    assert len(kp.secret_key) == SECRET_KEY_SIZE == 64
    assert all(type(value) is bytes for value in (kp.public_key, kp.secret_key))


def test_keypairs_from_one_seed_compare_equal_and_the_secret_key_is_not_compared():
    seed = hash_bytes(b"equal")
    a, b = generate_keypair(seed), generate_keypair(bytearray(seed))
    assert a == b and hash(a) == hash(b)
    assert a.secret_key == b.secret_key and a.secret_key is not b.secret_key
    other = dataclasses.replace(a, secret_key=bytes(SECRET_KEY_SIZE))
    assert other == a and hash(other) == hash(a)
    assert generate_keypair(hash_bytes(b"not equal")) != a


@pytest.mark.parametrize("data", [b"", b"abc", bytes(range(256)) * 9])
def test_hash_bytes_gives_one_digest_for_bytes_bytearray_and_memoryview(data):
    want = hashlib.sha256(data).digest()
    assert hash_bytes(data) == want
    assert hash_bytes(bytearray(data)) == want
    assert hash_bytes(memoryview(data)) == want
    assert hash_bytes(memoryview(bytearray(data))) == want


@pytest.mark.parametrize("data", ["abc", "", 7, None, [1, 2]])
def test_hash_bytes_refuses_what_is_not_bytes(data):
    with pytest.raises(TypeError, match="hash_bytes wants bytes"):
        hash_bytes(data)


def test_a_missing_libsodium_is_an_import_error_that_names_the_package():
    """Every soname fails to load: the import says what to install."""
    probe = (
        "import ctypes\n"
        "def missing(name, *args, **kwargs):\n"
        "    raise OSError(name + ': cannot open shared object file')\n"
        "ctypes.CDLL = missing\n"
        "try:\n"
        "    import agentchain.crypto\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert "libsodium" in out and "libsodium23" in out


# The identity point of edwards25519 (y = 1, x = 0), of order 1. With it as
# public key and as R, and S = 0, the verification equation [S]B = R + [k]A
# holds for every message, though no secret key made the signature.
IDENTITY_POINT = bytes([1]) + bytes(31)
IDENTITY_FORGERY = IDENTITY_POINT + bytes(32)


@pytest.mark.parametrize(
    "message", [b"", b"hello", bytes(300), bytes(range(256))], ids=["empty", "hello", "zeros300", "bytes256"]
)
def test_small_order_forgery_does_not_verify(message):
    assert not verify(IDENTITY_POINT, message, IDENTITY_FORGERY)


FIELD_P = 2**255 - 19
GROUP_L = 2**252 + 27742317777372353535851937790883648493
# y-coordinates of the eight points whose order divides 8: 0 (order 4), 1
# (order 1), p - 1 (order 2) and two of order 8
SMALL_ORDER_Y = frozenset(
    int.from_bytes(bytes.fromhex(h), "little")
    for h in (
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    )
)


def small_order_or_noncanonical(public_key: bytes, signature: bytes) -> bool:
    """Whether the key or R is a small-order point or a y >= p encoding, or
    S is not reduced mod L: the inputs on which libsodium may refuse what
    the RFC 8032 equation alone accepts."""
    for point in (public_key, signature[:32]):
        y = int.from_bytes(point, "little") & ((1 << 255) - 1)
        if y >= FIELD_P or y in SMALL_ORDER_Y:
            return True
    return int.from_bytes(signature[32:], "little") >= GROUP_L


def reference_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (ValueError, InvalidSignature):
        return False
    return True


def test_the_identity_forgery_is_one_the_reference_accepts():
    """libsodium is stricter than the reference here, and only on inputs
    of this kind."""
    assert reference_verify(IDENTITY_POINT, b"hello", IDENTITY_FORGERY)
    assert small_order_or_noncanonical(IDENTITY_POINT, IDENTITY_FORGERY)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.binary(min_size=SEED_SIZE, max_size=SEED_SIZE),
    message=st.binary(max_size=600),
    target=st.sampled_from(["none", "signature", "message", "key"]),
    bit=st.integers(min_value=0),
)
def test_keys_signatures_and_verdicts_match_the_cryptography_reference(seed, message, target, bit):
    """Same public key and signature bytes as cryptography's Ed25519 for any
    seed and message, and the same verdict on the valid signature and on a
    single-bit flip of the signature, the message or the key. libsodium may
    refuse where the reference accepts only on small-order points and
    non-canonical encodings (small_order_or_noncanonical); it never accepts
    what the reference refuses."""
    keys = generate_keypair(seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    assert keys.public_key == reference.public_key().public_bytes_raw()
    signature = sign(keys, message)
    assert signature == reference.sign(message)
    public_key = keys.public_key
    if target == "signature":
        signature = _flip(signature, bit)
    elif target == "key":
        public_key = _flip(public_key, bit)
    elif target == "message" and message:
        message = _flip(message, bit)
    got = verify(public_key, message, signature)
    expected = reference_verify(public_key, message, signature)
    if got != expected:
        assert expected and small_order_or_noncanonical(public_key, signature)
    if target == "none" or (target == "message" and not message):
        assert got


def _flip(data: bytes, bit: int) -> bytes:
    bit %= len(data) * 8
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
