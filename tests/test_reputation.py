"""Exact arithmetic of the peer confidence model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchain.reputation import (
    ExperienceMatrix,
    ObservationKind,
    PeerRow,
    VIOLATIONS,
    is_blacklisted,
    update_experience,
)

PEER = b"\xaa" * 32


def test_defaults():
    m = ExperienceMatrix()
    assert not is_blacklisted(m, PEER)
    assert m.row(PEER) == PeerRow(confidence=0.5)


def test_single_good_interaction():
    m = ExperienceMatrix()
    update_experience(m, PEER, ObservationKind.VALID_OK)
    assert m.rows[PEER].confidence == pytest.approx(0.55)


def test_confidence_caps_at_one():
    m = ExperienceMatrix()
    for _ in range(30):
        update_experience(m, PEER, ObservationKind.VALID_OK)
    assert m.rows[PEER].confidence == 1.0


@pytest.mark.parametrize("kind", sorted(VIOLATIONS, key=lambda k: k.value))
def test_three_strikes_blacklists(kind):
    m = ExperienceMatrix()
    expected = [0.25, 0.125, 0.0625]
    for strike, want in enumerate(expected, start=1):
        update_experience(m, PEER, kind)
        assert m.rows[PEER].confidence == want
        assert is_blacklisted(m, PEER) == (strike == 3)


def test_threshold_is_strict_less_than():
    m = ExperienceMatrix(blacklist_threshold=0.25)
    update_experience(m, PEER, ObservationKind.INVALID_DATA)
    assert m.rows[PEER].confidence == 0.25
    assert not is_blacklisted(m, PEER)  # 0.25 < 0.25 is false
    update_experience(m, PEER, ObservationKind.INVALID_DATA)
    assert is_blacklisted(m, PEER)


def test_rows_are_per_peer():
    m = ExperienceMatrix()
    other = b"\xbb" * 32
    update_experience(m, PEER, ObservationKind.DOUBLE_SPEND)
    assert m.rows[PEER].confidence == 0.25
    assert other not in m.rows
    assert not is_blacklisted(m, other)


def test_goodwill_delays_but_cannot_prevent_exclusion():
    # six good interactions buy exactly one extra halving of headroom
    m = ExperienceMatrix()
    for _ in range(6):
        update_experience(m, PEER, ObservationKind.VALID_OK)
    assert m.rows[PEER].confidence == pytest.approx(0.8)
    for _ in range(3):
        update_experience(m, PEER, ObservationKind.DOUBLE_SPEND)
    assert m.rows[PEER].confidence == pytest.approx(0.1)
    assert not is_blacklisted(m, PEER)
    update_experience(m, PEER, ObservationKind.DOUBLE_SPEND)
    assert is_blacklisted(m, PEER)


@given(
    st.lists(
        st.sampled_from(sorted(ObservationKind, key=lambda k: k.value)),
        max_size=60,
    )
)
@settings(max_examples=120, deadline=None)
def test_confidence_stays_bounded(observations):
    m = ExperienceMatrix()
    for kind in observations:
        update_experience(m, PEER, kind)
    row = m.rows.get(PEER, PeerRow())
    assert 0.0 <= row.confidence <= 1.0
    expected = 0.5
    for kind in observations:
        expected = expected * 0.5 if kind in VIOLATIONS else min(1.0, expected + 0.05)
    assert row.confidence == expected
