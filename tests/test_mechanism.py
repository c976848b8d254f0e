"""Payments: hand-checked externalities, incentive properties, deviation sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmarket import (
    FrozenInstance,
    deviation_grid,
    deviation_sweep,
    job_payments,
    random_frozen_instance,
    sw_greedy,
)
from crowdmarket.mechanism import payment_rows_to_csv


def literal_externality_row(i, alloc, caps, bids):
    """Straightforward transcription of the displacement rule, kept independent
    of the vectorized production path: walk the tail in bid order, give the
    boundary worker's slack first, then the caps above it, clamping at zero."""
    order = list(alloc.bid_order)
    k_pos = alloc.k_pos
    x = alloc.fractions
    row = {}
    if order.index(i) > k_pos:
        return {w: 0.0 for w in order}
    prefix = 0.0
    for q, w in enumerate(order):
        if q < k_pos or w == i:
            row[w] = 0.0
            continue
        if q == k_pos:
            val = min(caps[w] - x[w], x[i])
        else:
            val = min(caps[w], x[i] - prefix)
        val = max(0.0, val)
        row[w] = val
        prefix += val
    return row


def payment(i, alloc, caps, bids, c_bar):
    """Literal payment rule on top of the literal rows: displaced units at the
    absorbers' bids plus the unabsorbable residual at the cost ceiling."""
    row = literal_externality_row(i, alloc, caps, bids)
    spill = sum(row.values())
    total = sum(val * bids[w] for w, val in row.items())
    return float(total + max(0.0, alloc.fractions[i] - spill) * c_bar)


@pytest.fixture
def worked(worked_instance):
    bids, caps = worked_instance
    return bids, caps, sw_greedy(bids, caps)


def test_worked_externalities(worked):
    bids, caps, alloc = worked
    ext = job_payments(alloc, caps, bids, 3.0).externality
    for i, j, expected in ((0, 1, 0.1931), (0, 2, 0.3069), (1, 2, 0.5)):
        assert ext[i, j] == pytest.approx(expected)
        assert literal_externality_row(i, alloc, caps, bids)[j] == pytest.approx(expected)
    # boundary worker spills past itself straight into the next cap
    assert ext[1, 1] == 0.0
    assert literal_externality_row(1, alloc, caps, bids)[1] == 0.0


def test_externality_zero_cases(worked):
    bids, caps, alloc = worked
    ext = job_payments(alloc, caps, bids, 3.0).externality
    # (2, *): outside the active set; (0, 0): j below the boundary
    for i, j in ((2, 0), (2, 1), (0, 0)):
        assert ext[i, j] == 0.0
        assert literal_externality_row(i, alloc, caps, bids)[j] == 0.0


def test_worked_payments_and_utilities(worked):
    bids, caps, alloc = worked
    c_bar = 3.0
    p0 = payment(0, alloc, caps, bids, c_bar)
    p1 = payment(1, alloc, caps, bids, c_bar)
    p2 = payment(2, alloc, caps, bids, c_bar)
    assert p0 == pytest.approx(0.1931 * 2 + 0.3069 * 3)  # 1.3069
    assert p1 == pytest.approx(1.5)
    assert p2 == 0.0

    rec = job_payments(alloc, caps, bids, c_bar)
    assert rec.payments == pytest.approx([p0, p1, p2])
    # realized utility is payment minus incurred cost
    assert rec.payments[0] - 1.0 * alloc.fractions[0] == pytest.approx(0.8069)
    assert rec.payments[1] - 2.0 * alloc.fractions[1] == pytest.approx(0.5)
    assert rec.payments[2] - 3.0 * alloc.fractions[2] == 0.0
    assert rec.utilities == pytest.approx([0.8069, 0.5, 0.0])


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150)
def test_vectorized_matches_literal_rule(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng)
    alloc = sw_greedy(inst.costs, inst.caps)
    rec = job_payments(alloc, inst.caps, inst.costs, inst.cost_bounds[1], true_costs=inst.costs)
    ext = rec.externality
    n = len(inst.costs)
    for i in range(n):
        row = literal_externality_row(i, alloc, inst.caps, inst.costs)
        for j in range(n):
            assert ext[i, j] == pytest.approx(row[j], abs=1e-12)
        assert payment(i, alloc, inst.caps, inst.costs, inst.cost_bounds[1]) == pytest.approx(
            rec.payments[i], abs=1e-12
        )
        # record utilities use the exact term form; agree with p - c*x
        assert rec.payments[i] - inst.costs[i] * alloc.fractions[i] == pytest.approx(
            float(rec.utilities[i]), abs=1e-9
        )


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=200)
def test_spill_bounded_and_residual_means_infeasible_without_worker(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng)
    alloc = sw_greedy(inst.costs, inst.caps)
    rec = job_payments(alloc, inst.caps, inst.costs, inst.cost_bounds[1])
    for i in alloc.active_set:
        spill = rec.externality[i].sum()
        assert spill <= alloc.fractions[i] + 1e-12
        residual = alloc.fractions[i] - spill
        if residual > 1e-9:
            remaining = np.delete(inst.caps, i)
            assert remaining.sum() < 1.0


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=200)
def test_truthful_utilities_nonnegative_exactly(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng)
    alloc = sw_greedy(inst.costs, inst.caps)
    rec = job_payments(alloc, inst.caps, inst.costs, inst.cost_bounds[1], true_costs=inst.costs)
    assert np.all(rec.utilities >= 0.0)  # exact, no tolerance
    # payment dominance for active truthful workers
    for i in alloc.active_set:
        assert rec.payments[i] >= inst.costs[i] * alloc.fractions[i] - 1e-12


def test_payments_zero_beyond_boundary(worked):
    bids, caps, alloc = worked
    rec = job_payments(alloc, caps, bids, 3.0)
    k_pos = alloc.k_pos
    for w in alloc.bid_order[k_pos + 1 :]:
        assert rec.payments[w] == 0.0
        assert np.all(rec.externality[w] == 0.0)


def test_deviation_overbid_outside_active_set_changes_nothing(worked_instance):
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    # worker 2 never enters by overbidding; utility pinned at zero
    grid = np.array([3.0])
    assert deviation_sweep(inst, 2, grid=grid) == 0.0


def test_deviation_underbid_into_active_set_hurts(worked_instance):
    """Worker 2 undercutting to 1.5 wins half the job but is paid below cost."""
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    shifted = inst.costs.copy()
    shifted[2] = 1.5
    alloc = sw_greedy(shifted, caps)
    rec = job_payments(alloc, caps, shifted, 3.0, true_costs=inst.costs)
    assert alloc.fractions[2] == pytest.approx(0.5)
    assert rec.payments[2] == pytest.approx(1.0)  # 0.5 absorbed at bid 2.0
    assert rec.utilities[2] == pytest.approx(-0.5)
    assert deviation_sweep(inst, 2) <= 1e-9


def test_deviation_underbid_inside_active_set_is_neutral(worked_instance):
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    grid = np.array([1.0])  # worker 0 underbids; allocation and payment fixed
    assert deviation_sweep(inst, 0, grid=grid) == pytest.approx(0.0, abs=1e-12)


def test_deviation_grid_contains_crossings_and_endpoints(worked_instance):
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    # knots 1, 2, 3 (bounds, crossings, own cost) and the midpoints between them
    assert deviation_grid(inst, 0).tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]


def dense_grid(instance, i):
    """Knots plus a 50-point uniform grid over the cost range, and all
    midpoints: a superset of ``deviation_grid`` that checks its knots miss no maximum."""
    lo, hi = instance.cost_bounds
    others = np.delete(instance.costs, i)
    knots = np.concatenate([np.linspace(lo, hi, 50), others, [instance.costs[i]]])
    knots = np.unique(np.clip(knots, lo, hi))
    return np.unique(np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_max=st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_deviation_grid_finds_the_dense_grid_maximum(seed, n_max):
    inst = random_frozen_instance(np.random.default_rng(seed), n_max=n_max)
    for i in range(len(inst.costs)):
        gain = deviation_sweep(inst, i)
        assert repr(gain) == repr(deviation_sweep(inst, i, dense_grid(inst, i)))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_no_profitable_deviation_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng, n_max=6)
    for i in range(len(inst.costs)):
        assert deviation_sweep(inst, i) <= 1e-9


def test_random_instance_is_feasible():
    rng = np.random.default_rng(0)
    for _ in range(200):
        inst = random_frozen_instance(rng)
        assert inst.caps.sum() >= 1.0
        assert np.all(inst.caps <= 1.0)
        assert np.all((inst.costs >= 1.0) & (inst.costs <= 10.0))


def test_payment_rows_csv(tmp_path):
    path = tmp_path / "payments.csv"
    payment_rows_to_csv([(1, 0, 0.5, 1.3069, 0.8069)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,worker,fraction,payment,utility"
    assert lines[1].startswith("1,0,0.5,")
