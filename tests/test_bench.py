"""Cost comparison layer.

Model values and event counts below were frozen from closed forms computed
by hand before the implementation existed:

  replicated stores  = n*m          messages = m*(n-1)
  sharded stores     = m*(1+r)+2n   messages = m*r
  model: replicated  = n^2 * m      sharded = m*(log2(n)+1)
"""

import pytest

from agentchain.bench import (
    DEFAULT_SIZES,
    SWEEP_HEADER,
    compare_sweep,
    eval_model,
    run_blockchain_baseline,
    run_holochain_count,
    sweep_to_csv,
)


def test_model_frozen_values():
    assert eval_model(100, 1) == (10000.0, 7.643856189774724)
    assert eval_model(2, 10) == (40.0, 20.0)
    assert eval_model(8, 20) == (1280.0, pytest.approx(80.0))


def test_model_rejects_degenerate_population():
    with pytest.raises(ValueError):
        eval_model(1, 100)


def test_model_gap_widens_with_population():
    m = 50
    ratios = []
    for n in (4, 8, 16, 32, 64):
        replicated, sharded = eval_model(n, m)
        ratios.append(replicated / sharded)
    assert ratios == sorted(ratios)
    assert ratios[-1] > ratios[0] * 10


def test_baseline_counts_match_closed_form():
    out = run_blockchain_baseline(8, 20)
    assert out["stores"] == 8 * 20
    assert out["messages"] == 20 * (8 - 1)
    assert out["verifications"] == 8 * 20
    assert out["replicas_identical"]


def test_baseline_needs_two_replicas():
    with pytest.raises(ValueError):
        run_blockchain_baseline(1, 5)


def test_sharded_counts_match_closed_form():
    out = run_holochain_count(8, 20, r=4)
    assert out["stores"] == 20 * (1 + 4) + 2 * 8
    assert out["messages"] == 20 * 4
    assert out["validations"] >= 20 * 4  # every stored copy was validated


def test_sharded_needs_room_for_holders():
    with pytest.raises(ValueError):
        run_holochain_count(4, 10, r=4)


def test_sweep_rows_and_csv():
    rows = compare_sweep(sizes=(8, 16), m=12, r=4)
    for row, n in zip(rows, (8, 16)):
        assert row["n"] == n
        assert row["bc_stores"] == n * 12
        assert row["bc_msgs"] == 12 * (n - 1)
        assert row["hc_stores"] == 12 * 5 + 2 * n
        assert row["hc_msgs"] == 12 * 4
        assert (row["model_bc"], row["model_hc"]) == eval_model(n, 12)
    csv = sweep_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("8,12,4,96,84,")


def test_message_advantage_grows_strictly():
    # counted messages: replicated m*(n-1) vs sharded m*r, so the advantage
    # is (n-1)/r and must rise strictly along the default sweep
    rows = compare_sweep(sizes=DEFAULT_SIZES[:3], m=10, r=4)
    advantages = [row["bc_msgs"] / row["hc_msgs"] for row in rows]
    assert all(b > a for a, b in zip(advantages, advantages[1:]))
    for row, n in zip(rows, DEFAULT_SIZES[:3]):
        assert advantages[rows.index(row)] == pytest.approx((n - 1) / 4)


def test_model_tracks_counted_direction():
    # the analytic gap and the counted gap must agree in direction for
    # every sweep size: sharded cheaper on both axes once n > r + 1
    rows = compare_sweep(sizes=(8, 16), m=30, r=4)
    for row in rows:
        assert row["model_hc"] < row["model_bc"]
        assert row["hc_msgs"] < row["bc_msgs"]
        assert row["hc_stores"] < row["bc_stores"]
