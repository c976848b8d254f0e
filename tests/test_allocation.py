"""Greedy allocation: optimality vs enumeration, monotonicity, separation.

Tests marked ``on_both_branches`` run once on Python floats and once on
numpy arrays, whatever their worker count."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdmarket import (
    InfeasibleJob,
    SortedBids,
    sample_population,
    sw_greedy,
    true_cap,
)

from conftest import (
    enumeration_optimum,
    on_both_branches,
    reference_config,
    reference_recipe,
)
from oracles import delta_separation


@on_both_branches
def test_worked_example(worked_instance):
    bids, caps = worked_instance
    alloc = sw_greedy(bids, caps)
    assert alloc.fractions == pytest.approx([0.5, 0.5, 0.0])
    assert alloc.bid_order[alloc.k_pos] == 1
    assert float(bids @ alloc.fractions) == pytest.approx(1.5)
    assert enumeration_optimum(bids, caps) == pytest.approx(1.5, abs=1e-12)


@on_both_branches
def test_single_worker_cap_one():
    alloc = sw_greedy([5.0], [1.0])
    assert alloc.fractions == pytest.approx([1.0])
    assert alloc.bid_order[alloc.k_pos] == 0


@on_both_branches
def test_infeasible_caps_raise():
    with pytest.raises(InfeasibleJob) as exc:
        sw_greedy([1.0, 2.0], [0.3, 0.3])
    assert exc.value.total_cap == pytest.approx(0.6)


@on_both_branches
def test_tie_break_by_worker_id():
    alloc = sw_greedy([2.0, 2.0, 2.0], [0.4, 0.4, 0.4])
    assert alloc.fractions == pytest.approx([0.4, 0.4, 0.2])
    assert alloc.bid_order[alloc.k_pos] == 2


@on_both_branches
def test_caps_must_be_valid():
    with pytest.raises(ValueError):
        sw_greedy([1.0, 2.0], [0.5, 1.5])
    with pytest.raises(ValueError):
        sw_greedy([1.0, 2.0], [-0.1, 1.0])


@pytest.mark.parametrize(
    "bids, caps",
    [
        ([1.0, 2.0], [math.nan, 1.0]),
        ([1.0, 2.0], [1.0, math.inf]),
        ([math.nan, 2.0], [0.5, 1.0]),
        ([1.0, math.inf], [0.5, 1.0]),
        ([-math.inf, 2.0], [0.5, 1.0]),
    ],
)
@on_both_branches
def test_non_finite_bids_or_caps_raise(bids, caps):
    with pytest.raises(ValueError):
        sw_greedy(bids, caps)


@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200)
@on_both_branches
def test_allocation_invariants_on_random_instances(n, seed):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.05, 1.0, size=n)
    if caps.sum() < 1.0:
        caps = np.minimum(1.0, caps + (1.0 - caps.sum()) / n + 0.05)
    bids = rng.uniform(1.0, 10.0, size=n)
    alloc = sw_greedy(bids, caps)
    assert math.fsum(alloc.fractions) == 1.0  # exact, remainder construction
    assert np.all(alloc.fractions >= 0.0)
    assert np.all(alloc.fractions <= caps + 1e-15)
    # nothing beyond the boundary worker in bid order
    k_pos = alloc.k_pos
    assert np.all(alloc.fractions[alloc.bid_order[k_pos + 1 :]] == 0.0)


def _random_caps_and_bids(rng, n):
    """Feasible caps (some zero, some tiny, sum near or well above one) and
    bids on a few levels, so ties are common."""
    caps = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-17, 1, n)
    caps[rng.random(n) < 0.2] = 0.0
    caps = np.minimum(1.0, caps / max(caps.sum(), 1e-300) * rng.uniform(1.0, 3.0))
    bids = rng.choice(rng.uniform(1.0, 10.0, 3), n)
    return bids, caps


def literal_rest(c_sorted, k_pos):
    """The boundary fraction by the full fix-up loop, with no shortcut."""
    full = c_sorted[:k_pos].tolist()
    rest = max(0.0, 1.0 - math.fsum(full))
    for _ in range(4):
        gap = 1.0 - math.fsum([*full, rest])
        if gap == 0.0:
            break
        rest = max(0.0, rest + gap)
    return min(rest, float(c_sorted[k_pos]))


@given(
    n=st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=300, max_value=420)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
@on_both_branches
def test_sorted_bids_are_byte_equal_and_fix_up_shortcut_is_exact(n, seed):
    rng = np.random.default_rng(seed)
    bids, caps = _random_caps_and_bids(rng, n)
    try:
        alloc = sw_greedy(bids, caps)
    except InfeasibleJob:
        with pytest.raises(InfeasibleJob):
            sw_greedy(SortedBids.of(bids), caps)
        return
    presorted = sw_greedy(SortedBids.of(bids), caps)
    assert presorted.fractions.tobytes() == alloc.fractions.tobytes()
    assert presorted.k_pos == alloc.k_pos
    assert presorted.bid_order.tobytes() == alloc.bid_order.tobytes()
    c_sorted = caps[alloc.bid_order]
    k_pos = int(c_sorted.cumsum().searchsorted(1.0))
    assert alloc.fractions[alloc.bid_order[k_pos]] == literal_rest(c_sorted, k_pos)


@on_both_branches
def test_fix_up_below_one_half_moves_the_remainder_by_an_ulp():
    """Three full caps summing to 0.2387: 1 - total rounds, and the exact sum
    with that remainder rounds below one, so the loop must add one ulp."""
    caps = np.array([0.12897873630177883, 0.015148427668818855, 0.09453055554283875, 1.0])
    rest = 1.0 - math.fsum(caps[:3].tolist())
    assert math.fsum([*caps[:3].tolist(), rest]) != 1.0
    alloc = sw_greedy(np.arange(4.0), caps)
    assert alloc.fractions[3] == literal_rest(caps, 3) != rest
    assert math.fsum(alloc.fractions) == 1.0


@on_both_branches
def test_boundary_takes_nothing_when_the_full_caps_cover_the_job_exactly():
    """Ten caps of 0.1 sum to just below one in sequence, which makes the
    eleventh worker the boundary, but to exactly one under exact summation:
    the eleventh takes nothing and the tenth is the last active worker."""
    caps = np.array([0.1] * 10 + [0.5])
    assert caps.cumsum()[9] < 1.0 == math.fsum(caps[:10].tolist())
    alloc = sw_greedy(np.arange(11.0), caps)
    assert alloc.fractions.tolist() == [0.1] * 10 + [0.0]
    assert (alloc.k_pos, alloc.bid_order[alloc.k_pos]) == (9, 9)


@on_both_branches
def test_infeasible_job_names_the_total_to_the_last_digit():
    """Caps of 0.2, 0.7 and 0.1 in bid order sum to one ulp short of one,
    and the message shows it."""
    with pytest.raises(InfeasibleJob) as exc:
        sw_greedy([3.0, 1.0, 2.0], [0.1, 0.2, 0.7])
    assert exc.value.total_cap == 0.9999999999999999
    assert str(exc.value) == "caps sum to 0.9999999999999999 < 1; job cannot be fully allocated"


@on_both_branches
def test_empty_or_non_vector_inputs_raise():
    with pytest.raises(InfeasibleJob) as exc:
        sw_greedy([], [])
    assert exc.value.total_cap == 0.0
    with pytest.raises(ValueError, match="vectors"):
        sw_greedy([[1.0, 2.0]], [[0.5, 0.5]])


def test_bid_order_of_wrong_length_raises(worked_instance):
    bids, _ = worked_instance
    for order in (np.arange(2), np.arange(4)):
        with pytest.raises(ValueError, match="bid order"):
            SortedBids(bids, order)
    assert not SortedBids.of(bids).order.flags.writeable


@on_both_branches
def test_greedy_matches_enumeration_on_grid_caps():
    """Fractional-knapsack optimality against exhaustive vertex enumeration,
    caps on a 0.05 grid."""
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        caps = rng.integers(1, 21, size=n) * 0.05
        if caps.sum() < 1.0:
            continue
        bids = rng.uniform(1.0, 10.0, size=n)
        alloc = sw_greedy(bids, caps)
        greedy_cost = float(bids @ alloc.fractions)
        assert greedy_cost == pytest.approx(enumeration_optimum(bids, caps), abs=1e-12)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    bump=st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=200)
@on_both_branches
def test_raising_own_bid_never_increases_fraction(seed, bump):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    caps = rng.uniform(0.2, 1.0, size=n)
    if caps.sum() < 1.0:
        caps = np.minimum(1.0, caps * (1.2 / caps.sum()))
    bids = rng.uniform(1.0, 10.0, size=n)
    i = int(rng.integers(0, n))
    before = sw_greedy(bids, caps).fractions[i]
    bids_up = bids.copy()
    bids_up[i] += bump
    after = sw_greedy(bids_up, caps).fractions[i]
    assert after <= before + 1e-15


def test_oracle_reference_population_uses_cheap_workers():
    cfg = reference_config()
    workers = sample_population(cfg, reference_recipe())
    costs = [w.cost for w in workers]
    caps = [true_cap(w.mjct, w.mttf, cfg.D, cfg.epsilon) for w in workers]
    alloc = sw_greedy(costs, caps)
    active = alloc.active_set
    assert active  # feasible
    assert all(i < 250 for i in active)  # only the capable group is used
    # any allocation giving a slow worker a positive share is strictly costlier
    greedy_cost = float(np.asarray(costs) @ alloc.fractions)
    shifted = alloc.fractions.copy()
    donor = max(active, key=lambda i: alloc.fractions[i])
    move = min(0.001, shifted[donor])
    shifted[donor] -= move
    shifted[250] += move  # slow worker, cap 0.0025 > 0.001
    assert float(np.asarray(costs) @ shifted) > greedy_cost


def test_oracle_matches_linear_program():
    scipy_opt = pytest.importorskip("scipy.optimize")
    cfg = reference_config()
    workers = sample_population(cfg, reference_recipe())
    costs = np.array([w.cost for w in workers])
    caps = np.array([true_cap(w.mjct, w.mttf, cfg.D, cfg.epsilon) for w in workers])
    alloc = sw_greedy(costs, caps)
    res = scipy_opt.linprog(
        costs,
        A_eq=np.ones((1, len(costs))),
        b_eq=[1.0],
        bounds=list(zip(np.zeros(len(costs)), caps)),
        method="highs",
    )
    assert res.success
    assert float(costs @ alloc.fractions) == pytest.approx(res.fun, abs=1e-9)


def test_identical_costs_make_any_completion_optimal():
    bids = np.full(4, 3.0)
    caps = np.array([0.4, 0.4, 0.4, 0.4])
    alloc = sw_greedy(bids, caps)
    assert float(bids @ alloc.fractions) == pytest.approx(3.0)
    assert enumeration_optimum(bids, caps) == pytest.approx(3.0)


@on_both_branches
def test_pessimistic_caps_give_superset_active_set():
    """With true means inside the confidence band, pessimistic caps sit below
    the true caps, so the greedy active set can only grow."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        true_caps = rng.uniform(0.3, 1.0, size=n)
        if true_caps.sum() < 1.2:
            continue
        shrink = rng.uniform(0.5, 1.0, size=n)
        pess_caps = true_caps * shrink
        if pess_caps.sum() < 1.0:
            continue
        bids = rng.uniform(1.0, 10.0, size=n)
        opt = sw_greedy(bids, true_caps).active_set
        pess = sw_greedy(bids, pess_caps).active_set
        assert opt <= pess


def test_delta_separation_values(worked_instance):
    bids, caps = worked_instance
    alloc = sw_greedy(bids, caps)
    assert delta_separation(alloc, caps) == pytest.approx(0.1931)

    exhausted = sw_greedy([1.0, 2.0], [0.5, 0.5])
    assert delta_separation(exhausted, [0.5, 0.5]) == 0.0

    single = sw_greedy([5.0], [1.0])
    assert delta_separation(single, [1.0]) == 0.0


def literal_cap(rho, beta, D, epsilon):
    """The cap rule written out for one worker."""
    return min(1.0, min(D, beta * -math.log1p(-epsilon)) / rho)


def test_true_cap_formula():
    assert true_cap(100.0, 25.0, 50.0, 0.01) == pytest.approx(0.0025126, abs=1e-7)
    assert true_cap(1.0, 5000.0, 50.0, 0.5) == 1.0  # clamped to a whole job
    assert true_cap(2.0, 2.0, 1.0, 0.5) == pytest.approx(0.5)
    # per worker: clamped at 1, budget clamped at D (50 / 100), neither
    caps = true_cap(np.array([1.0, 100.0, 100.0]), np.array([5000.0, 5000.0, 25.0]), 50.0, 0.5)
    assert caps.tolist() == [1.0, 0.5, literal_cap(100.0, 25.0, 50.0, 0.5)]


@example(workers=[(1.0, 5000.0), (100.0, 5000.0), (100.0, 25.0)], D=50.0, epsilon=0.5)
@given(
    workers=st.lists(
        st.tuples(st.floats(0.01, 200.0), st.floats(0.5, 5000.0)), min_size=1, max_size=12
    ),
    D=st.floats(0.5, 100.0),
    epsilon=st.floats(1e-4, 0.9),
)
def test_true_cap_arrays_equal_the_scalar_rule(workers, D, epsilon):
    """Each entry of the array form is the scalar rule's float, bit for bit."""
    rho, beta = (np.array(column) for column in zip(*workers))
    caps = true_cap(rho, beta, D, epsilon)
    assert caps.tolist() == [literal_cap(r, b, D, epsilon) for r, b in workers]

