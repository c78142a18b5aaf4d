"""Healthcare app behavior: vitals bounds, capability grants, revocation,
and holder-served access when the patient is offline."""

import dataclasses
import random

import pytest

from agentchain.canonical import EncodingError
from agentchain import chain as chain_module
from agentchain.chain import DEFAULT_REDUNDANCY, Record, record_key
from agentchain.crypto import generate_keypair, hash_bytes
from agentchain.dht import Network, agent_seed, make_agent, revoke_claim
from agentchain.healthcare import (
    AccessResult,
    CapabilityGrant,
    DenialReason,
    HealthcareError,
    VITALS_METRICS,
    VitalsReading,
    create_grant,
    grant_from_fields,
    healthcare_dna,
    note_token,
    publish_vitals,
    request_access,
    request_access_via_holder,
    revoke_grant,
    vitals_entry_type,
)
from agentchain.reputation import ObservationKind, update_experience
from agentchain.validation import Marketplace
from conftest import holders_of


def _network(n=12, seed=99):
    dna = healthcare_dna()
    net = Network(dna, Marketplace())
    for i in range(n):
        net.join(make_agent(i, agent_seed(seed, i), dna))
    return net


def _patient(seed=b"patient"):
    return make_agent(0, hash_bytes(seed), healthcare_dna())


# --- blueprint ----------------------------------------------------------------

def test_blueprint_covers_every_metric():
    dna = healthcare_dna()
    for metric, (unit, lo, hi) in VITALS_METRICS.items():
        etd = dna.entry_type(vitals_entry_type(metric))
        assert etd is not None
        assert f"range:value:{lo}:{hi}" in etd.rule_ids
        assert "author-field:patient" in etd.rule_ids
    assert dna.restricted_prefixes == ("vitals_",)


def test_blueprint_knobs_change_identity_inputs():
    assert healthcare_dna(redundancy=6).dht_redundancy == 6
    assert healthcare_dna(credit_limit=9).credit_limit == 9


def test_one_shared_blueprint_per_argument_pair_encoded_once(monkeypatch):
    real = chain_module.encode_dna
    encoded = []
    monkeypatch.setattr(chain_module, "encode_dna", lambda dna: encoded.append(dna) or real(dna))
    pairs = [(11, 0), (11, 23), (12, 23)]  # pairs no other test asks for
    for _ in range(3):
        for r, c in pairs:
            dna = healthcare_dna(r, c)
            assert dna is healthcare_dna(r, c) is healthcare_dna(redundancy=r, credit_limit=c)
            assert (dna.dht_redundancy, dna.credit_limit) == (r, c)
            assert dna.network_id == hash_bytes(dna.encoded)
    assert encoded == [healthcare_dna(r, c) for r, c in pairs]
    assert len({healthcare_dna(r, c).network_id for r, c in pairs}) == len(pairs)
    assert healthcare_dna() is healthcare_dna(DEFAULT_REDUNDANCY, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        healthcare_dna().dht_redundancy = 1


# --- vitals -------------------------------------------------------------------

def test_publish_vitals_appends_full_payload():
    patient = _patient()
    record = publish_vitals(patient, VitalsReading("pulse", 72, taken_at=30), clock=5)
    assert record.header.entry_type == "vitals_pulse"
    from agentchain import canonical

    fields = canonical.decode_fields(record.payload)
    assert fields == {
        "metric": "pulse",
        "value": 72,
        "unit": "bpm",
        "taken_at": 30,
        "patient": patient.public_key,
    }


def test_vitals_bounds_are_inclusive_on_both_ends():
    patient = _patient()
    clock = 0
    for metric, (unit, lo, hi) in sorted(VITALS_METRICS.items()):
        assert publish_vitals(patient, VitalsReading(metric, lo, 0), clock).fields["unit"] == unit
        publish_vitals(patient, VitalsReading(metric, hi, 0), clock + 1)
        clock += 2
        for bad in (lo - 1, hi + 1):
            with pytest.raises(HealthcareError):
                publish_vitals(patient, VitalsReading(metric, bad, 0), clock)


def test_unknown_metric_refused():
    with pytest.raises(HealthcareError):
        publish_vitals(_patient(), VitalsReading("mood", 5, 0), 0)


def test_shared_vitals_reach_their_holders():
    net = _network()
    patient = net.agents[0]
    record = publish_vitals(patient, VitalsReading("oxygen", 97, 1), 5, net)
    key = record_key(record)
    holders = holders_of(net, key)
    assert len(holders) >= net.redundancy


def test_network_rejects_what_an_honest_device_refuses():
    net = _network()
    rogue = net.agents[0]
    # bypass the device-side check entirely
    record = rogue.append(
        "vitals_pulse",
        {"metric": "pulse", "value": 9000, "unit": "bpm", "taken_at": 1, "patient": rogue.public_key},
        5,
    )
    assert net.publish(rogue, record) == []


# --- grants and patient-served access ------------------------------------------

def test_grant_token_is_the_record_digest():
    patient = _patient()
    doctor = generate_keypair(hash_bytes(b"doctor")).public_key
    token, record = create_grant(patient, CapabilityGrant(doctor, "report"), 3)
    assert token == record_key(record)
    note = note_token(patient, token, 4)  # grantee-side filing works the same way
    assert note.header.entry_type == "cap_token"


def test_identical_grants_still_get_distinct_tokens():
    patient = _patient()
    doctor = generate_keypair(hash_bytes(b"doctor")).public_key
    grant = CapabilityGrant(doctor, "report")
    t1, _ = create_grant(patient, grant, 3)
    t2, _ = create_grant(patient, grant, 4)
    assert t1 != t2


def test_grant_fields_roundtrip():
    doctor = generate_keypair(hash_bytes(b"doctor")).public_key
    full = CapabilityGrant(doctor, "vitals_*", seq_lo=2, seq_hi=9, expires_at=44)
    assert grant_from_fields(full.to_fields()) == full
    bare = CapabilityGrant(doctor, "report")
    fields = bare.to_fields()
    assert set(fields) == {"grantee", "entry_type"}  # optional fields stay absent
    assert grant_from_fields(fields) == bare


def _granted_patient():
    patient = _patient()
    doctor = generate_keypair(hash_bytes(b"doctor")).public_key
    publish_vitals(patient, VitalsReading("pulse", 70, 0), 1)     # seq 2
    publish_vitals(patient, VitalsReading("glucose", 110, 1), 2)  # seq 3
    patient.append("report", {"text": "stable"}, 3)               # seq 4
    publish_vitals(patient, VitalsReading("pulse", 75, 2), 4)     # seq 5
    return patient, doctor


@pytest.mark.parametrize(
    "selector,expected_seqs",
    [
        (CapabilityGrant(b"", "vitals_pulse"), [2, 5]),
        (CapabilityGrant(b"", "vitals_*"), [2, 3, 5]),
        (CapabilityGrant(b"", "vitals_*", seq_lo=3, seq_hi=4), [3]),
        (CapabilityGrant(b"", "report"), [4]),
        (CapabilityGrant(b"", "vitals_ecg"), []),
    ],
)
def test_selector_scopes_served_records(selector, expected_seqs):
    patient, doctor = _granted_patient()
    import dataclasses

    token, _ = create_grant(patient, dataclasses.replace(selector, grantee=doctor), 10)
    result = request_access(patient, doctor, token, 11)
    assert result.granted and bool(result)
    assert [r.header.seq for r in result.records] == expected_seqs


def test_denials_and_their_priority():
    patient, doctor = _granted_patient()
    stranger = generate_keypair(hash_bytes(b"stranger")).public_key

    assert request_access(patient, doctor, b"\x00" * 32, 20).reason is DenialReason.UNKNOWN_TOKEN
    vitals_key = record_key(patient.chain.records[2])
    assert request_access(patient, doctor, vitals_key, 20).reason is DenialReason.UNKNOWN_TOKEN

    revoked_t, _ = create_grant(patient, CapabilityGrant(doctor, "report", expires_at=15), 10)
    revoke_grant(patient, revoked_t, 11)
    # revoked beats expired beats wrong-grantee
    assert request_access(patient, stranger, revoked_t, 20).reason is DenialReason.REVOKED

    expired_t, _ = create_grant(patient, CapabilityGrant(doctor, "report", expires_at=15), 12)
    assert request_access(patient, stranger, expired_t, 20).reason is DenialReason.EXPIRED

    live_t, _ = create_grant(patient, CapabilityGrant(doctor, "report"), 13)
    assert request_access(patient, stranger, live_t, 20).reason is DenialReason.WRONG_GRANTEE
    assert request_access(patient, doctor, live_t, 20).granted


def test_expiry_boundary_is_inclusive():
    patient, doctor = _granted_patient()
    token, _ = create_grant(patient, CapabilityGrant(doctor, "report", expires_at=30), 10)
    assert request_access(patient, doctor, token, 30).granted
    assert request_access(patient, doctor, token, 31).reason is DenialReason.EXPIRED


def test_revocation_stops_future_access_without_rewriting_history():
    patient, doctor = _granted_patient()
    token, grant_record = create_grant(patient, CapabilityGrant(doctor, "report"), 10)
    before = len(patient.chain.records)
    assert request_access(patient, doctor, token, 11).granted
    revoke_grant(patient, token, 12)
    assert request_access(patient, doctor, token, 13).reason is DenialReason.REVOKED
    # the grant is not erased, only superseded
    assert len(patient.chain.records) == before + 1
    assert patient.chain.records[grant_record.header.seq] == grant_record


def test_a_revocation_that_is_not_a_field_map_raises_on_every_read():
    patient, doctor = _granted_patient()
    token, _ = create_grant(patient, CapabilityGrant(doctor, "report"), 10)
    revocation = revoke_grant(patient, token, 12)
    patient.chain.replace_at(revocation.header.seq, Record(revocation.header, b"not a field map"))
    # a failed decode caches nothing, so the second read fails the same way
    for _ in range(2):
        with pytest.raises(EncodingError):
            request_access(patient, doctor, token, 13)


def test_revoking_nonsense_raises():
    patient, _ = _granted_patient()
    with pytest.raises(HealthcareError):
        revoke_grant(patient, b"\x11" * 32, 20)


def test_grant_guards_membership_and_reputation():
    net = _network()
    patient = net.agents[0]
    outsider = generate_keypair(hash_bytes(b"outsider")).public_key
    with pytest.raises(HealthcareError):
        create_grant(patient, CapabilityGrant(outsider, "report"), 5, net)
    doctor = net.agents[1]
    for _ in range(3):
        update_experience(patient.experience, doctor.public_key, ObservationKind.DOUBLE_SPEND)
    with pytest.raises(HealthcareError):
        create_grant(patient, CapabilityGrant(doctor.public_key, "report"), 5, net)


def test_a_grant_to_a_keypair_that_never_joined_is_refused_before_it_is_appended():
    net = _network()
    patient = net.agents[0]
    stranger = generate_keypair(hash_bytes(b"never joined")).public_key
    before = len(patient.chain)
    with pytest.raises(HealthcareError, match="grantee is not a member of this network"):
        create_grant(patient, CapabilityGrant(stranger, "report"), 5, net)
    assert len(patient.chain) == before


# --- holder-served access --------------------------------------------------------

def _holder_setup():
    net = _network()
    rng = random.Random(5)
    patient, doctor = net.agents[0], net.agents[3]
    report = patient.append("report", {"text": "checkup"}, 5)
    net.publish(patient, report)
    token, _ = create_grant(
        patient, CapabilityGrant(doctor.public_key, "report", expires_at=50), 6, net
    )
    for tick in range(6):
        net.begin_tick(tick)
        net.gossip_round(rng)
    patient.online = False
    holder = next(
        h
        for h in holders_of(net, token)
        if h is not patient and h.online and h.holds(record_key(report))
    )
    return net, patient, doctor, holder, token, report


def test_holder_serves_published_scope_while_patient_sleeps():
    net, patient, doctor, holder, token, report = _holder_setup()
    result = request_access_via_holder(net, holder, doctor.public_key, token, 10)
    assert result.granted
    assert report in result.records
    assert all(r.header.author == patient.public_key for r in result.records)


def test_holder_denials_mirror_patient_denials():
    net, patient, doctor, holder, token, _ = _holder_setup()
    stranger = net.agents[7].public_key
    assert request_access_via_holder(net, holder, doctor.public_key, b"\x01" * 32, 10).reason is DenialReason.UNKNOWN_TOKEN
    assert request_access_via_holder(net, holder, stranger, token, 10).reason is DenialReason.WRONG_GRANTEE
    assert request_access_via_holder(net, holder, doctor.public_key, token, 51).reason is DenialReason.EXPIRED
    # expired beats wrong-grantee here too
    assert request_access_via_holder(net, holder, stranger, token, 51).reason is DenialReason.EXPIRED


def test_fabricated_revoke_hints_do_not_deny():
    net, patient, doctor, holder, token, _ = _holder_setup()
    # hint naming a record that does not exist
    ghost = revoke_claim(b"\x23" * 32, patient.public_key, token)
    net._accept_claim(holder, ghost)
    # hint naming a real record that is not a revocation
    decoy = revoke_claim(token, patient.public_key, token)
    net._accept_claim(holder, decoy)
    result = request_access_via_holder(net, holder, doctor.public_key, token, 10)
    assert result.granted


def test_real_revocation_reaches_the_holder():
    net, patient, doctor, holder, token, _ = _holder_setup()
    patient.online = True
    revoke_grant(patient, token, 12, net)
    rng = random.Random(9)
    for tick in range(6):
        net.begin_tick(20 + tick)
        net.gossip_round(rng)
    patient.online = False
    result = request_access_via_holder(net, holder, doctor.public_key, token, 25)
    assert result.reason is DenialReason.REVOKED


def test_access_result_truthiness():
    assert bool(AccessResult(True))
    assert not AccessResult(False, DenialReason.EXPIRED)
