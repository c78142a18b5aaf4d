"""Validation gates and the inline rule language.

Uses a purpose-built probe blueprint so each rule kind can be driven to
pass and fail independently of the healthcare app.
"""

import dataclasses
import random

import pytest

from agentchain.chain import (
    COST_LIGHT,
    COST_HEAVY,
    CREDIT_LIMIT_PARAM,
    DnaDocument,
    EntryTypeDef,
    Record,
    append_entry,
    init_chain,
    record_key,
)
from agentchain.crypto import generate_keypair, hash_bytes, sign
from agentchain.validation import (
    Marketplace,
    Reason,
    Verdict,
    authenticate_channel,
    transfer_body,
    validate_application,
    validate_transaction,
    validation_work,
)
from agentchain.healthcare import healthcare_dna
from agentchain.sim import mutate_record


def _probe_dna() -> DnaDocument:
    return DnaDocument(
        app_name="rules-probe",
        description="one entry type per rule kind",
        entry_type_defs=(
            EntryTypeDef("plain", (("text", "str"),), ("required:text",), COST_LIGHT),
            EntryTypeDef("bounded", (("level", "int"),), ("range:level:0:10",)),
            EntryTypeDef("owned", (("owner", "bytes"),), ("author-field:owner",)),
            EntryTypeDef("pact", (("a", "bytes"), ("b", "bytes")), ("author-party:a,b",)),
            EntryTypeDef(
                "spend",
                (("amount", "int"), ("sender_prior_balance", "int")),
                ("balance-nonneg",),
            ),
            EntryTypeDef("cap_grant", (("grantee", "bytes"),), ("required:grantee",)),
            EntryTypeDef("cap_use", (("token", "digest"),), ("grant-exists:token",)),
            EntryTypeDef(
                "transfer",
                (
                    ("amount", "int"),
                    ("receiver", "bytes"),
                    ("receiver_sig", "bytes"),
                    ("sender", "bytes"),
                    ("sender_prev_tx", "digest"),
                    ("sender_prior_balance", "int"),
                    ("sender_sig", "bytes"),
                    ("timestamp", "int"),
                    ("tx_id", "digest"),
                ),
                ("fuel-cosigned",),
                COST_HEAVY,
            ),
            EntryTypeDef("mystery", (), ("frobnicate:now",)),
            EntryTypeDef("ruleless", (), ()),
        ),
    )


@pytest.fixture
def setup():
    dna = _probe_dna()
    keys = generate_keypair(hash_bytes(b"validation-tests"))
    chain = init_chain(keys, dna, clock=0)
    return dna, keys, chain


def _rec(chain, entry_type, fields, clock=100):
    return append_entry(chain, entry_type, fields, clock)


# --- gate reasons, one test per reason ------------------------------------

def test_ok(setup):
    dna, _, chain = setup
    verdict = validate_transaction(_rec(chain, "plain", {"text": "hi"}), dna)
    assert verdict.valid and verdict.reason is Reason.OK
    assert bool(verdict)


def test_unknown_entry_type(setup):
    dna, _, chain = setup
    record = _rec(chain, "plain", {"text": "hi"})
    verdict = validate_transaction(record, healthcare_dna())
    assert (verdict.valid, verdict.reason) == (False, Reason.UNKNOWN_ENTRY_TYPE)


def test_bad_link(setup):
    dna, _, chain = setup
    record = _rec(chain, "plain", {"text": "hi"})
    forged = Record(record.header, record.payload + b"\x00")
    verdict = validate_transaction(forged, dna)
    assert verdict.reason is Reason.BAD_LINK


def test_bad_signature(setup):
    dna, _, chain = setup
    record = _rec(chain, "plain", {"text": "hi"})
    sig = bytearray(record.header.signature)
    sig[0] ^= 1
    forged = Record(dataclasses.replace(record.header, signature=bytes(sig)), record.payload)
    verdict = validate_transaction(forged, dna)
    assert verdict.reason is Reason.BAD_SIGNATURE


@pytest.mark.parametrize("how", ["seq", "timestamp", "author", "prev_header_hash", "signature"])
def test_mutated_copy_of_a_verified_record_is_verified_afresh(setup, verify_calls, how):
    dna, _, chain = setup
    record = _rec(chain, "plain", {"text": "hi"})
    assert validate_transaction(record, dna).valid
    assert len(verify_calls) == 1
    assert validate_transaction(record, dna).valid  # the verdict is the record's
    assert len(verify_calls) == 1
    mutated = mutate_record(record, how, random.Random(how))
    verdict = validate_transaction(mutated, dna)
    assert verdict.reason is Reason.BAD_SIGNATURE
    assert len(verify_calls) == 2
    assert validate_transaction(record, dna).valid


def test_undecodable_payload_is_rule_violation(setup):
    dna, _, chain = setup
    record = _rec(chain, "ruleless", b"\xff\xff")
    verdict = validate_transaction(record, dna)
    assert verdict.reason is Reason.RULE_VIOLATION
    assert "decode" in verdict.detail


def test_unregistered_app():
    verdict = validate_application(b"\x42" * 32, Marketplace())
    assert (verdict.valid, verdict.reason) == (False, Reason.UNREGISTERED_APP)
    market = Marketplace()
    app_id = market.register(_probe_dna())
    assert validate_application(app_id, market).valid


def test_verdict_guard():
    with pytest.raises(ValueError):
        Verdict(True, Reason.BAD_LINK)


# --- the two gates composed ------------------------------------------------

def test_channel_truth_table(setup):
    dna, _, chain = setup
    good = _rec(chain, "plain", {"text": "hi"})
    bad = Record(good.header, good.payload + b"\x00")
    registered = Marketplace()
    registered.register(dna)
    empty = Marketplace()

    assert authenticate_channel(good, dna, registered).valid
    assert authenticate_channel(good, dna, empty).reason is Reason.UNREGISTERED_APP
    # transaction gate runs first, so its failure wins either way
    assert authenticate_channel(bad, dna, registered).reason is Reason.BAD_LINK
    assert authenticate_channel(bad, dna, empty).reason is Reason.BAD_LINK


def test_channel_checks_claimed_app_id(setup):
    dna, _, chain = setup
    good = _rec(chain, "plain", {"text": "hi"})
    market = Marketplace()
    market.register(dna)
    # a valid record claiming an unknown network id must not pass
    verdict = authenticate_channel(good, dna, market, app_id=b"\x13" * 32)
    assert verdict.reason is Reason.UNREGISTERED_APP
    assert authenticate_channel(good, dna, market, app_id=dna.network_id).valid


# --- rule language, pass and fail for each kind ----------------------------

def test_required(setup):
    dna, _, chain = setup
    assert validate_transaction(_rec(chain, "plain", {"text": "x"}), dna).valid
    verdict = validate_transaction(_rec(chain, "plain", {"other": "x"}), dna)
    assert verdict.reason is Reason.RULE_VIOLATION
    assert "required:text" in verdict.detail


def test_range(setup):
    dna, _, chain = setup
    assert validate_transaction(_rec(chain, "bounded", {"level": 0}), dna).valid
    assert validate_transaction(_rec(chain, "bounded", {"level": 10}), dna).valid
    assert not validate_transaction(_rec(chain, "bounded", {"level": 11}), dna).valid
    assert not validate_transaction(_rec(chain, "bounded", {"level": -1}), dna).valid
    assert not validate_transaction(_rec(chain, "bounded", {"level": "high"}), dna).valid
    assert not validate_transaction(_rec(chain, "bounded", {}), dna).valid


def test_author_field(setup):
    dna, keys, chain = setup
    assert validate_transaction(_rec(chain, "owned", {"owner": keys.public_key}), dna).valid
    assert not validate_transaction(_rec(chain, "owned", {"owner": b"\x01" * 32}), dna).valid


def test_author_party(setup):
    dna, keys, chain = setup
    other = generate_keypair(hash_bytes(b"other")).public_key
    me = keys.public_key
    assert validate_transaction(_rec(chain, "pact", {"a": me, "b": other}), dna).valid
    assert validate_transaction(_rec(chain, "pact", {"a": other, "b": me}), dna).valid
    stranger = generate_keypair(hash_bytes(b"stranger")).public_key
    assert not validate_transaction(_rec(chain, "pact", {"a": other, "b": stranger}), dna).valid


def test_balance_nonneg(setup):
    dna, _, chain = setup
    ok = {"amount": 5, "sender_prior_balance": 5}
    over = {"amount": 6, "sender_prior_balance": 5}
    assert validate_transaction(_rec(chain, "spend", ok), dna).valid
    assert not validate_transaction(_rec(chain, "spend", over), dna).valid
    # the validator's blueprint credit limit shifts the floor
    credit = dataclasses.replace(dna, params={CREDIT_LIMIT_PARAM: 2})
    assert validate_transaction(_rec(chain, "spend", {"amount": 7, "sender_prior_balance": 5}), credit).valid
    assert not validate_transaction(_rec(chain, "spend", {"amount": 8, "sender_prior_balance": 5}), credit).valid


def test_grant_exists(setup):
    dna, keys, chain = setup
    grant = _rec(chain, "cap_grant", {"grantee": keys.public_key})
    plain = _rec(chain, "plain", {"text": "not a grant"})
    index = {record_key(grant): grant, record_key(plain): plain}

    assert validate_transaction(_rec(chain, "cap_use", {"token": record_key(grant)}), dna, index.get).valid
    assert not validate_transaction(_rec(chain, "cap_use", {"token": b"\x99" * 32}), dna, index.get).valid
    # resolving to a record of the wrong type is still a failure
    assert not validate_transaction(_rec(chain, "cap_use", {"token": record_key(plain)}), dna, index.get).valid
    # and with no resolver the rule cannot be satisfied
    assert not validate_transaction(_rec(chain, "cap_use", {"token": record_key(grant)}), dna).valid


def _transfer_fields(sender_keys, receiver_keys, amount=3):
    fields = {
        "amount": amount,
        "receiver": receiver_keys.public_key,
        "sender": sender_keys.public_key,
        "sender_prev_tx": b"\x00" * 32,
        "sender_prior_balance": 10,
        "timestamp": 100,
    }
    body = transfer_body(fields)
    fields["tx_id"] = hash_bytes(body)
    fields["sender_sig"] = sign(sender_keys, body)
    fields["receiver_sig"] = sign(receiver_keys, body)
    return fields


def test_fuel_cosigned(setup):
    dna, keys, chain = setup
    receiver = generate_keypair(hash_bytes(b"receiver"))
    fields = _transfer_fields(keys, receiver)
    assert validate_transaction(_rec(chain, "transfer", fields), dna).valid

    # tx_id must commit to the body
    drifted = dict(fields, tx_id=b"\x31" * 32)
    assert not validate_transaction(_rec(chain, "transfer", drifted), dna).valid
    # changing a signed field invalidates both signatures and the id
    bumped = dict(fields, amount=fields["amount"] + 1)
    assert not validate_transaction(_rec(chain, "transfer", bumped), dna).valid
    # each signature is checked individually
    no_sender = dict(fields, sender_sig=b"\x00" * 64)
    assert not validate_transaction(_rec(chain, "transfer", no_sender), dna).valid
    no_receiver = dict(fields, receiver_sig=b"\x00" * 64)
    assert not validate_transaction(_rec(chain, "transfer", no_receiver), dna).valid
    missing = {k: v for k, v in fields.items() if k != "receiver_sig"}
    assert not validate_transaction(_rec(chain, "transfer", missing), dna).valid


def test_unknown_rule_fails_closed(setup):
    dna, _, chain = setup
    verdict = validate_transaction(_rec(chain, "mystery", {}), dna)
    assert verdict.reason is Reason.RULE_VIOLATION
    assert "unknown rule" in verdict.detail


def test_ruleless_type_passes(setup):
    dna, _, chain = setup
    assert validate_transaction(_rec(chain, "ruleless", {}), dna).valid


# --- work accounting --------------------------------------------------------

def test_validation_work():
    dna = _probe_dna()
    assert validation_work(dna, "plain") == 1
    assert validation_work(dna, "bounded") == 4
    assert validation_work(dna, "transfer") == 16
    assert validation_work(dna, "never_heard_of_it") == 4
