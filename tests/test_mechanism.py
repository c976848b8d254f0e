"""Payments: hand-checked externalities, incentive properties, deviation sweeps.

The externality rows exist only here, in the literal rule that the
prefix-sum payments of ``job_payments`` are checked against.  The knot grid
(``oracles.knot_grid``: cost bounds, every bid, and the midpoints between
them) is the oracle that the rank grid of ``deviation_grid`` must match order
for order, and ``oracles.literal_sweep`` (public ``sw_greedy`` and
``job_payments`` per bid) the one that ``deviation_sweep`` must match bit for
bit.
Tests marked ``on_both_branches`` run once on Python floats and once on numpy
arrays, whatever their worker count, against the same literal rule.
``job_payments`` runs on numpy arrays on both; its list form
``_payments_lists``, which the job step and the sweep call, is held to it
bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crowdmarket import (
    FrozenInstance,
    InfeasibleJob,
    Simulator,
    SortedBids,
    deviation_grid,
    deviation_sweep,
    job_payments,
    mechanism,
    random_frozen_instance,
    sw_greedy,
)

from oracles import knot_grid, literal_sweep
from conftest import (
    BRANCHES,
    crossover,
    desk_config,
    desk_estimator,
    desk_recipe,
    on_both_branches,
)


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
    return literal_payment_and_utility(i, alloc, caps, bids, c_bar, bids[i])[0]


def literal_payment_and_utility(i, alloc, caps, bids, c_bar, cost):
    """Payment and utility at true cost ``cost`` by the literal rule, each
    displaced unit and the residual priced one at a time."""
    row = literal_externality_row(i, alloc, caps, bids)
    residual = max(0.0, alloc.fractions[i] - sum(row.values()))
    pay = sum(val * bids[w] for w, val in row.items()) + residual * c_bar
    util = sum(val * (bids[w] - cost) for w, val in row.items()) + residual * (c_bar - cost)
    return float(pay), float(util)


@pytest.fixture
def worked(worked_instance):
    bids, caps = worked_instance
    return bids, caps, sw_greedy(bids, caps)


def test_worked_externalities(worked):
    bids, caps, alloc = worked
    for i, j, expected in ((0, 1, 0.1931), (0, 2, 0.3069), (1, 2, 0.5)):
        assert literal_externality_row(i, alloc, caps, bids)[j] == pytest.approx(expected)
    # boundary worker spills past itself straight into the next cap
    assert literal_externality_row(1, alloc, caps, bids)[1] == 0.0


def test_externality_zero_cases(worked):
    bids, caps, alloc = worked
    # (2, *): outside the active set; (0, 0): j below the boundary
    for i, j in ((2, 0), (2, 1), (0, 0)):
        assert literal_externality_row(i, alloc, caps, bids)[j] == 0.0


@on_both_branches
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
@on_both_branches
def test_vectorized_matches_literal_rule(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng)
    alloc = sw_greedy(inst.costs, inst.caps)
    rec = job_payments(alloc, inst.caps, inst.costs, inst.cost_bounds[1], true_costs=inst.costs)
    for i in range(len(inst.costs)):
        assert payment(i, alloc, inst.caps, inst.costs, inst.cost_bounds[1]) == pytest.approx(
            rec.payments[i], abs=1e-12
        )
        # record utilities use the exact term form; agree with p - c*x
        assert rec.payments[i] - inst.costs[i] * alloc.fractions[i] == pytest.approx(
            float(rec.utilities[i]), abs=1e-9
        )


@st.composite
def payment_instances(draw):
    """(bids, caps, true_costs, c_bar) of a feasible job: n from 1 to 12 or
    near 400, bids on a few levels (ties), some zero caps, caps that cover
    the job tightly (the boundary worker often last, residuals paid at
    c_bar) or loosely, and true costs that are or are not the bids."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 12), st.integers(390, 410)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bids = rng.choice(rng.uniform(1.0, 10.0, draw(st.integers(1, n))), n)
    caps = rng.uniform(0.0, 1.0, n)
    caps[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    target = draw(st.sampled_from([1.0, 1.001, 1.3, 3.0]))
    caps = np.minimum(1.0, caps / max(caps.sum(), 1e-12) * target)
    assume(caps[bids.argsort(kind="stable")].cumsum()[-1] >= 1.0)  # sw_greedy's test
    if draw(st.booleans()):
        true_costs = bids
    else:
        true_costs = np.clip(bids + rng.normal(0.0, 2.0, n), 1.0, 10.0)
    c_bar = float(bids.max()) + draw(st.sampled_from([0.0, 0.5, 5.0]))
    return bids, caps, true_costs, c_bar


def _checked_workers(alloc):
    """Every worker up to n = 12; beyond, the ends of the bid order and the
    positions around the boundary (the literal rule is quadratic in n)."""
    n, k = len(alloc.fractions), alloc.k_pos
    if n <= 12:
        return range(n)
    positions = {0, 1, k - 2, k - 1, k, k + 1, n - 1}
    return [int(alloc.bid_order[p]) for p in sorted(positions) if 0 <= p < n]


def _check_against_literal_rule(bids, caps, true_costs, c_bar):
    alloc = sw_greedy(bids, caps)
    rec = job_payments(alloc, caps, bids, c_bar, true_costs=true_costs)
    for i in _checked_workers(alloc):
        pay, util = literal_payment_and_utility(i, alloc, caps, bids, c_bar, true_costs[i])
        assert rec.payments[i] == pytest.approx(pay, rel=1e-12, abs=0.0)
        # a utility can cancel to near zero; its scale is the payment and the cost
        scale = pay + true_costs[i] * alloc.fractions[i]
        assert abs(rec.utilities[i] - util) <= 1e-12 * scale
    if true_costs is bids:
        assert np.all(rec.utilities >= 0.0)  # exact, no tolerance
    return alloc, rec


@example((np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.6931, 1.0]), np.array([1.0, 2.0, 3.0]), 3.0))
@example((np.array([4.0]), np.array([1.0]), np.array([4.0]), 4.0))
@given(inst=payment_instances())
@settings(max_examples=120, deadline=None)
@on_both_branches
def test_prefix_sum_payments_match_literal_rule(inst):
    """The prefix-sum payments equal the literal spill rule within 1e-12
    (relative), for tied bids, zero caps, a boundary worker in the last
    position, residuals paid at c_bar and true costs apart from the bids."""
    _check_against_literal_rule(*inst)


@on_both_branches
def test_literal_rule_edge_cases():
    """The edge cases the hypothesis test names, each made to occur."""
    # boundary worker last, and a residual at c_bar: without worker 0 the
    # other caps cover only 0.3 of the job
    bids, caps = np.array([2.0, 5.0]), np.array([0.7, 0.3])
    alloc, rec = _check_against_literal_rule(bids, caps, np.array([3.0, 1.0]), 9.0)
    assert alloc.k_pos == 1
    assert rec.payments[0] == pytest.approx(0.7 * 9.0)  # all of it at c_bar
    # tied bids and a zero cap
    bids = np.array([1.0, 1.0, 1.0])
    alloc, rec = _check_against_literal_rule(bids, np.array([0.0, 0.6, 0.4]), bids, 4.0)
    assert alloc.fractions.tolist() == [0.0, 0.6, 0.4]
    assert rec.payments[0] == 0.0


POISON = [np.nan, np.inf, -np.inf]


@st.composite
def branch_instances(draw):
    """(bids, caps, true_costs, c_bar, presorted) of a job for both branches:
    n on both sides of the crossover and at it, tied bids, bids on the cost
    bounds (c_bar is a bid or above all of them), zero caps of either sign,
    caps that cover the job tightly, loosely or not at all, and now and then
    a NaN or infinite cap or bid, or a cap outside [0, 1]."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 31, 32, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bids = rng.choice(rng.uniform(1.0, 10.0, draw(st.integers(1, n))), n)
    bids[rng.random(n) < 0.1] = 1.0
    c_bar = draw(st.sampled_from([10.0, 12.0]))
    bids[rng.random(n) < 0.1] = 10.0
    caps = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-17, 1, n)
    caps[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    target = draw(st.sampled_from([0.9, 1.0, 1.001, 1.3, 3.0]))
    caps = np.minimum(1.0, caps / max(caps.sum(), 1e-300) * target)
    if draw(st.integers(0, 9)) == 0:
        caps[rng.integers(n)] = draw(st.sampled_from([*POISON, -0.1, 1.5]))
    if draw(st.integers(0, 9)) == 0:
        bids[rng.integers(n)] = draw(st.sampled_from(POISON))
    true_costs = None if draw(st.booleans()) else np.clip(bids + rng.normal(0.0, 2.0, n), 1.0, 10.0)
    return bids, caps, true_costs, c_bar, draw(st.booleans())


def _outcome(bids, caps, true_costs, c_bar, presorted):
    """The bytes of one job's allocation and payments, or the error it raised;
    ``presorted`` hands both calls the bids as a :class:`SortedBids`."""
    if presorted:
        bids = SortedBids.of(bids)
    try:
        alloc = sw_greedy(bids, caps)
        rec = job_payments(alloc, caps, bids, c_bar, true_costs=true_costs)
    except (ValueError, InfeasibleJob) as exc:
        return type(exc), str(exc), getattr(exc, "total_cap", None)
    return (
        alloc.fractions.tobytes(),
        alloc.k_pos,
        alloc.bid_order.tobytes(),
        rec.payments.tobytes(),
        rec.utilities.tobytes(),
    )


FIX_UP_CAPS = [0.12897873630177883, 0.015148427668818855, 0.09453055554283875, 1.0]


@example((np.arange(4.0), np.array(FIX_UP_CAPS), None, 4.0, False))  # the fix-up moves rest
@example((np.arange(11.0), np.array([0.1] * 10 + [0.5]), None, 11.0, True))  # rest == 0
@example((np.array([2.0, 5.0]), np.array([0.7, 0.3]), np.array([3.0, 1.0]), 9.0, False))
@example((np.ones(33), np.full(33, 1 / 32), None, 1.0, True))  # ties, bids on c_bar
@given(inst=branch_instances())
@settings(max_examples=300, deadline=None)
def test_both_branches_give_the_same_bytes_and_errors(inst):
    """Python floats and numpy arrays give bit-equal fractions, ``k_pos``,
    bid orders, payments and utilities, or the same exception with the same
    message."""
    outcomes = {}
    for name, limit in BRANCHES.items():
        with crossover(limit):
            outcomes[name] = _outcome(*inst)
    assert outcomes["lists"] == outcomes["arrays"]


@given(inst=branch_instances())
@settings(max_examples=300, deadline=None)
def test_list_caps_against_sorted_bids_give_the_array_bytes_and_errors(inst):
    """Caps handed over as a list, against bids given as a
    :class:`SortedBids`, give the bytes or the error of array caps."""
    bids, caps, true_costs, c_bar, _ = inst
    assert _outcome(bids, caps.tolist(), true_costs, c_bar, True) == _outcome(
        bids, caps, true_costs, c_bar, True
    )


@pytest.mark.parametrize("n", [*range(1, 13), *range(33, 41)])
def test_list_payment_rule_matches_job_payments_bit_for_bit(n):
    """``_payments_lists``, which the job step and the deviation sweep call
    directly, gives ``job_payments``'s payments and utilities bit for bit
    (``repr``) at true costs apart from the bids, on both sides of the
    crossover: tied bids, bids on the ceiling ``c_bar`` or below it, zero
    caps of either sign, caps from 1e-17 to 1 that cover the job tightly or
    loosely, and a boundary worker anywhere in the order."""
    rng = np.random.default_rng(n)
    priced = 0
    while priced < 40:
        bids = rng.choice(rng.uniform(1.0, 10.0, rng.integers(1, n + 1)), n)
        bids[rng.random(n) < 0.1] = 10.0
        caps = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-17, 1, n)
        caps[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        caps = np.minimum(1.0, caps / max(caps.sum(), 1e-300) * rng.choice([1.0, 1.3, 3.0]))
        true_costs = np.clip(bids + rng.normal(0.0, 2.0, n), 1.0, 10.0)
        c_bar = float(rng.choice([10.0, 12.0]))
        try:
            alloc = sw_greedy(bids, caps)
        except InfeasibleJob:
            continue
        priced += 1
        rec = job_payments(alloc, caps, bids, c_bar, true_costs=true_costs)
        got = mechanism._payments_lists(
            alloc.fractions.tolist(), alloc.k_pos, caps.tolist(), bids.tolist(), c_bar,
            true_costs.tolist(), alloc.bid_order.tolist(),
        )
        assert repr(got) == repr((rec.payments.tolist(), rec.utilities.tolist())), (n, priced)


@pytest.mark.parametrize(
    "caps",
    [[[0.5], [0.6]], [np.array([0.5]), np.array([0.6])], ["x", "y"], ["0.5", "0.6"], [None, 1.0],
     [1, 0], [0.5]],
)
def test_list_caps_of_other_types_act_as_with_unsorted_bids(caps):
    """List caps that hold other things than floats, or too few of them,
    give the bytes or the error they give against unsorted bids."""
    outcomes = [_outcome(np.array([1.0, 2.0]), caps, None, 3.0, presorted) for presorted in (0, 1)]
    assert outcomes[0] == outcomes[1]


@on_both_branches
def test_job_payments_rejects_inputs_that_do_not_fit_the_allocation(worked):
    bids, caps, alloc = worked
    for kwargs in (
        dict(bids=np.append(bids, 4.0)),
        dict(caps=caps[:2]),
        dict(true_costs=bids[:2]),
        dict(true_costs=np.ones((3, 1))),
    ):
        args = dict(caps=caps, bids=bids, c_bar=3.0) | kwargs
        with pytest.raises(ValueError, match="one entry per worker of the allocation"):
            job_payments(alloc, **args)
    for c_bar in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="c_bar must be finite"):
            job_payments(alloc, caps, bids, c_bar)


def test_worker_index_outside_the_instance_raises(worked_instance):
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    for i in (-1, 3):
        with pytest.raises(ValueError, match=r"worker index .* outside \[0, 3\)"):
            deviation_grid(inst, i)
        with pytest.raises(ValueError, match=r"worker index .* outside \[0, 3\)"):
            deviation_sweep(inst, i)
        with pytest.raises(ValueError, match=r"worker index .* outside \[0, 3\)"):
            deviation_sweep(inst, i, grid=np.array([2.0]))


@given(inst=payment_instances())
@settings(max_examples=60, deadline=None)
@on_both_branches
def test_payment_identity_over_the_deviation_grid(inst):
    """Myerson's identity ``P_i = b_i * x_i + integral of x_i(z) from b_i to
    c_bar``: x_i(z) is constant between the knots of the knot grid, so the
    integral is a sum over its segments."""
    bids, caps, _, c_bar = inst
    assume(caps.sum() >= 1.0 + 1e-9)  # feasible in every deviation's bid order
    alloc = sw_greedy(bids, caps)
    rec = job_payments(alloc, caps, bids, c_bar)
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(float(bids.min()), c_bar))
    for i in _checked_workers(alloc):
        knots = knot_grid(inst, i)
        knots = knots[knots >= bids[i]]
        integral = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            z = bids.copy()
            z[i] = 0.5 * (lo + hi)
            integral += sw_greedy(z, caps).fractions[i] * (hi - lo)
        expected = bids[i] * alloc.fractions[i] + integral
        assert rec.payments[i] == pytest.approx(expected, rel=1e-9, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=200)
@on_both_branches
def test_spill_bounded_and_residual_means_infeasible_without_worker(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng)
    alloc = sw_greedy(inst.costs, inst.caps)
    for i in alloc.active_set:
        spill = sum(literal_externality_row(i, alloc, inst.caps, inst.costs).values())
        assert spill <= alloc.fractions[i] + 1e-12
        residual = alloc.fractions[i] - spill
        if residual > 1e-9:
            remaining = np.delete(inst.caps, i)
            assert remaining.sum() < 1.0


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=200)
@on_both_branches
def test_truthful_utilities_nonnegative_exactly(seed):
    rng = np.random.default_rng(seed)
    inst = random_frozen_instance(rng)
    alloc = sw_greedy(inst.costs, inst.caps)
    rec = job_payments(alloc, inst.caps, inst.costs, inst.cost_bounds[1], true_costs=inst.costs)
    assert np.all(rec.utilities >= 0.0)  # exact, no tolerance
    # payment dominance for active truthful workers
    for i in alloc.active_set:
        assert rec.payments[i] >= inst.costs[i] * alloc.fractions[i] - 1e-12


@on_both_branches
def test_payments_zero_beyond_boundary(worked):
    bids, caps, alloc = worked
    rec = job_payments(alloc, caps, bids, 3.0)
    k_pos = alloc.k_pos
    for w in alloc.bid_order[k_pos + 1 :]:
        assert rec.payments[w] == 0.0
        assert not any(literal_externality_row(w, alloc, caps, bids).values())


def test_job_records_are_slotted_and_replaceable(worked):
    """``Allocation`` and ``PaymentRecord`` hold their fields in slots, and
    ``dataclasses.replace`` builds a changed copy, the way perfbench's
    selftest plants a faulty allocation."""
    bids, caps, alloc = worked
    rec = job_payments(alloc, caps, bids, 3.0)
    for record in (alloc, rec):
        assert not hasattr(record, "__dict__")
    scaled = replace(alloc, fractions=alloc.fractions * 2.0)
    assert type(scaled) is type(alloc) and scaled.k_pos == alloc.k_pos
    assert scaled.fractions.tolist() == [1.0, 1.0, 0.0]
    assert replace(rec, utilities=rec.payments).utilities is rec.payments


def test_deviation_overbid_outside_active_set_changes_nothing(worked_instance):
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    # worker 2 never enters by overbidding; utility pinned at zero
    grid = np.array([3.0])
    assert deviation_sweep(inst, 2, grid=grid) == 0.0


@on_both_branches
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
    # Ties go to the lower worker id.  Worker 0 can fall behind worker 1
    # (midpoint 2.5) but not behind worker 2, who bids the ceiling; worker 2
    # can pass worker 1 (midpoint 1.5) but not worker 0, who bids the floor;
    # worker 1 keeps its place at any bid.
    assert deviation_grid(inst, 0).tolist() == [1.0, 2.5]
    assert deviation_grid(inst, 1).tolist() == [2.0]
    assert deviation_grid(inst, 2).tolist() == [3.0, 1.5]


def _orders(inst, i, grid):
    """The bid order (ties by worker id) that each bid of ``grid`` gives."""
    orders = []
    for b in grid:
        bids = inst.costs.copy()
        bids[i] = b
        orders.append(tuple(bids.argsort(kind="stable").tolist()))
    return orders


@st.composite
def tied_instances(draw, sizes=(1, 8)):
    """Feasible frozen instances of ``sizes`` workers with cost bounds (1, 5)
    and costs on the integer levels between them or uniform over them: tied
    other bids, bids on either bound, own costs tied with another bid, and
    some zero caps."""
    n = draw(st.integers(*sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        costs = rng.integers(1, 6, n).astype(float)
    else:
        costs = rng.uniform(1.0, 5.0, n)
    caps = rng.uniform(0.0, 1.0, n)
    caps[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    target = draw(st.sampled_from([1.001, 1.3, 3.0]))
    caps = np.minimum(1.0, caps / max(caps.sum(), 1e-12) * target)
    assume(caps.sum() >= 1.0 + 1e-9)  # feasible in every deviation's bid order
    return FrozenInstance(costs=costs, caps=caps, cost_bounds=(1.0, 5.0))


TIED = FrozenInstance(  # ties on both bounds and inside, one zero cap
    costs=np.array([5.0, 1.0, 3.0, 1.0, 5.0, 3.0, 1.0]),
    caps=np.array([0.4, 0.0, 0.3, 0.5, 0.2, 0.3, 0.1]),
    cost_bounds=(1.0, 5.0),
)


@example(inst=TIED)
@given(inst=tied_instances())
@settings(max_examples=200, deadline=None)
def test_rank_grid_reaches_the_knot_grid_orders_once_each(inst):
    """The rank grid reaches the same set of bid orders as the knot grid,
    each order once, the truthful order first."""
    for i in range(len(inst.costs)):
        grid = deviation_grid(inst, i)
        assert grid[0] == inst.costs[i]
        orders = _orders(inst, i, grid)
        assert len(set(orders)) == len(orders)
        assert set(orders) == set(_orders(inst, i, knot_grid(inst, i)))


def _ranks_by_boundary(inst, i, b):
    """True when worker ``i``, bidding ``b``, ranks at or before the boundary."""
    bids = inst.costs.copy()
    bids[i] = b
    alloc = sw_greedy(bids, inst.caps)
    return alloc.bid_order.tolist().index(i) <= alloc.k_pos


def test_rank_grid_has_one_bid_per_rank_on_distinct_costs(monkeypatch):
    """With distinct costs inside the bounds every rank is reachable, so a
    sweep runs ``sw_greedy`` exactly n times.  It prices the worker with
    ``_payments_lists`` once per bid that leaves it at or before the
    boundary, and never calls ``job_payments``."""
    calls = {"sw_greedy": 0, "_payments_lists": 0, "job_payments": 0}

    def counted(name):
        real = getattr(mechanism, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mechanism, name, counted(name))
    rng = np.random.default_rng(5)
    skipped = 0
    for _ in range(30):
        inst = random_frozen_instance(rng)
        n = len(inst.costs)
        for i in range(n):
            grid = deviation_grid(inst, i)
            assert len(grid) == n
            priced = sum(_ranks_by_boundary(inst, i, b) for b in grid)
            skipped += n - priced
            before = dict(calls)
            deviation_sweep(inst, i)
            counts = {k: calls[k] - before[k] for k in calls}
            assert counts == {"sw_greedy": n, "_payments_lists": priced, "job_payments": 0}
    assert skipped > 0


def _assert_one_job_certificate(inst):
    """x_i(bid) is non-increasing over the sorted rank grid, and no worker
    gains by a unilateral deviation."""
    for i in range(len(inst.costs)):
        fractions = []
        for b in np.sort(deviation_grid(inst, i)):
            bids = inst.costs.copy()
            bids[i] = b
            fractions.append(sw_greedy(bids, inst.caps).fractions[i])
        assert np.all(np.diff(fractions) <= 0.0)
        assert deviation_sweep(inst, i) <= 1e-9


@example(inst=TIED)
@given(inst=tied_instances())
@settings(max_examples=150, deadline=None)
@on_both_branches
def test_one_job_certificate_with_ties_and_zero_caps(inst):
    _assert_one_job_certificate(inst)


def test_one_job_certificate_on_simulator_states():
    """Frozen desk6 learning states at jobs 1, 10, 100 and 1000: the caps the
    learner allocates with, and the workers' true costs."""
    cfg = desk_config(seed=1000, T=1000)
    sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
    for t in range(1, cfg.T + 1):
        if t in (1, 10, 100, 1000):
            caps = sim.current_caps(t).copy()
            _assert_one_job_certificate(FrozenInstance(sim.costs, caps, cfg.cost_bounds))
        sim.step(t)


def dense_grid(instance, i):
    """Knots plus a 50-point uniform grid over the cost range, and all
    midpoints: a superset of ``knot_grid`` that checks the rank grid misses
    no maximum."""
    lo, hi = instance.cost_bounds
    others = np.delete(instance.costs, i)
    knots = np.concatenate([np.linspace(lo, hi, 50), others, [instance.costs[i]]])
    knots = np.unique(np.clip(knots, lo, hi))
    return np.unique(np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_max=st.integers(2, 8))
@settings(max_examples=100, deadline=None)
@on_both_branches
def test_deviation_grid_finds_the_dense_grid_maximum(seed, n_max):
    inst = random_frozen_instance(np.random.default_rng(seed), n_max=n_max)
    for i in range(len(inst.costs)):
        gain = deviation_sweep(inst, i)
        assert repr(gain) == repr(deviation_sweep(inst, i, dense_grid(inst, i)))


# Small instances, and wide ones past the list crossover of 32 workers.
SWEPT_INSTANCES = st.one_of(tied_instances(), tied_instances(sizes=(33, 40)))


def _swept_workers(inst):
    """Every worker of a small instance, and five spread over a wide one."""
    n = len(inst.costs)
    return range(n) if n <= 8 else range(0, n, n // 5 + 1)


@example(inst=TIED, grid_seed=0)
@given(inst=SWEPT_INSTANCES, grid_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
@on_both_branches
def test_sweep_matches_the_public_payment_oracle_bit_for_bit(inst, grid_seed):
    """``deviation_sweep`` equals a sweep of public ``sw_greedy`` and
    ``job_payments`` calls, by ``repr``, on the rank grid and on given grids:
    bids tied with other costs, on the bounds, outside them and in between."""
    rng = np.random.default_rng(grid_seed)
    lo, hi = inst.cost_bounds
    for i in _swept_workers(inst):
        given_grid = np.concatenate(
            [rng.choice(inst.costs, 3), [lo, hi], rng.uniform(lo - 1.0, hi + 1.0, 3)]
        )
        for grid in (None, given_grid, given_grid[:1]):
            assert repr(deviation_sweep(inst, i, grid)) == repr(literal_sweep(inst, i, grid))


@example(inst=TIED)
@given(inst=SWEPT_INSTANCES)
@settings(max_examples=60, deadline=None)
@on_both_branches
def test_utility_past_the_boundary_is_exactly_zero(inst):
    """At every grid bid that ranks the worker after the boundary,
    ``job_payments`` gives it a utility of exactly ``0.0``: the value the
    sweep takes there without pricing."""
    c_bar = inst.cost_bounds[1]
    for i in _swept_workers(inst):
        for b in deviation_grid(inst, i):
            bids = inst.costs.copy()
            bids[i] = b
            alloc = sw_greedy(bids, inst.caps)
            if alloc.bid_order.tolist().index(i) > alloc.k_pos:
                rec = job_payments(alloc, inst.caps, bids, c_bar, true_costs=inst.costs)
                assert repr(float(rec.utilities[i])) == "0.0"


@on_both_branches
def test_sweep_prices_the_bid_it_deviates_to():
    """A boundary worker's own bid enters its utility only as ``(b - c) *
    0.0``, which is NaN when ``b - c`` overflows: the sweep prices the bid of
    the deviation, as ``job_payments`` does, not the truthful one."""
    inst = FrozenInstance(costs=np.array([1.5e308, 2.0]), caps=np.array([1.0, 0.5]),
                          cost_bounds=(1.0, 5.0))
    grid = np.array([-1.5e308])  # worker 0 bids first and takes the whole job
    with np.errstate(over="ignore", invalid="ignore"):
        assert repr(deviation_sweep(inst, 0, grid)) == repr(literal_sweep(inst, 0, grid)) == "nan"


def _bad(costs=(1.0, 2.0, 3.0), caps=(0.5, 0.4, 0.6), cost_bounds=(1.0, 5.0)):
    return FrozenInstance(costs=np.array(costs), caps=np.array(caps), cost_bounds=cost_bounds)


BAD_INSTANCES = {
    "2-D costs and caps": _bad(costs=[[1.0, 2.0], [3.0, 4.0]], caps=[[0.5, 0.5], [0.5, 0.5]]),
    "0-D costs and caps": _bad(costs=2.0, caps=1.0),
    "caps longer than costs": _bad(caps=(0.5, 0.4, 0.6, 0.2)),
    "NaN upper bound": _bad(cost_bounds=(1.0, np.nan)),
    "NaN lower bound": _bad(cost_bounds=(np.nan, 5.0)),
    "infinite upper bound": _bad(cost_bounds=(1.0, np.inf)),
    "infinite lower bound": _bad(cost_bounds=(-np.inf, 5.0)),
    "bounds out of order": _bad(cost_bounds=(5.0, 2.0)),
    "NaN cost": _bad(costs=(1.0, np.nan, 3.0)),
    "infinite cost": _bad(costs=(1.0, 2.0, np.inf)),
    "NaN cap": _bad(caps=(0.5, np.nan, 0.6)),
    "cap above one": _bad(caps=(0.5, 1.5, 0.6)),
    "negative cap": _bad(caps=(0.5, -0.1, 0.6)),
    "caps short of the job": _bad(caps=(0.3, 0.3, 0.3)),
}


@pytest.mark.parametrize("inst", BAD_INSTANCES.values(), ids=BAD_INSTANCES.keys())
@on_both_branches
def test_sweep_of_a_bad_instance_raises(inst):
    """A bad instance raises ``ValueError`` or ``InfeasibleJob``, with no
    grid and with a given one; it never returns a number."""
    for grid in (None, np.array([2.0, 4.0])):
        with pytest.raises((ValueError, InfeasibleJob)):
            deviation_sweep(inst, 0, grid)


@on_both_branches
def test_sweep_over_a_bad_grid_raises():
    """An empty grid, or one with a NaN or infinite bid, raises ``ValueError``."""
    inst = _bad()
    for grid in ([], [2.0, np.nan], [np.inf], [-np.inf, 2.0]):
        with pytest.raises(ValueError):
            deviation_sweep(inst, 0, np.array(grid))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
@on_both_branches
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

