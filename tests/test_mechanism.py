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
``_payments_lists``, which the job step calls, is held to it bit for bit,
and so are the tail and row helpers it shares with the sweep.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crowdmarket import (
    EstimatorConfig,
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
    desk48_market,
    desk_config,
    desk_estimator,
    desk_recipe,
    on_both_branches,
    reference_config,
    reference_recipe,
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
    """``_payments_lists``, which the job step calls directly, gives
    ``job_payments``'s payments and utilities bit for bit (``repr``) at true
    costs apart from the bids, on both sides of the crossover: tied bids,
    bids on the ceiling ``c_bar`` or below it, zero caps of either sign,
    caps from 1e-17 to 1 that cover the job tightly or loosely, and a
    boundary worker anywhere in the order.  Each active row priced alone by
    ``_payment_row``, from a tail of ``_payment_tail``, as the sweep prices
    its worker, gives the same bytes."""
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
        args = (
            alloc.fractions.tolist(), alloc.k_pos, caps.tolist(), bids.tolist(), c_bar,
            true_costs.tolist(), alloc.bid_order.tolist(),
        )
        got = mechanism._payments_lists(*args)
        assert repr(got) == repr((rec.payments.tolist(), rec.utilities.tolist())), (n, priced)
        x, k, cl, bl, _, tc, order = args
        tail = mechanism._payment_tail(
            [bl[w] for w in order[k + 1 :]], [cl[w] for w in order[k + 1 :]], c_bar
        )
        w_k = order[k]
        for q, w in enumerate(order[: k + 1]):
            room = 0.0 if q == k else cl[w_k] - x[w_k]  # the boundary row skips its own slack
            row = mechanism._payment_row(tail, bl[w_k], room, x[w], tc[w])
            assert repr(row) == repr((got[0][w], got[1][w])), (n, priced, q)


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


def test_worker_index_that_is_not_an_integer_raises(worked_instance):
    """A float index no longer fails as a list index and ``True`` no longer
    sweeps worker 1: both raise ``ValueError``.  A numpy int sweeps its
    worker, bit for bit as the Python int does."""
    bids, caps = worked_instance
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=(1.0, 3.0))
    for i in (1.5, 1.0, True, np.bool_(True), np.float64(1.0)):
        with pytest.raises(ValueError, match="worker index must be an integer"):
            deviation_grid(inst, i)
        with pytest.raises(ValueError, match="worker index must be an integer"):
            deviation_sweep(inst, i)
        with pytest.raises(ValueError, match="worker index must be an integer"):
            deviation_sweep(inst, i, grid=np.array([2.0]))
    for i in (np.int64(1), np.int32(2), np.intp(0)):
        assert deviation_grid(inst, i).tolist() == deviation_grid(inst, int(i)).tolist()
        assert repr(deviation_sweep(inst, i)) == repr(deviation_sweep(inst, int(i)))
        grid = np.array([1.5, 2.5])
        assert repr(deviation_sweep(inst, i, grid)) == repr(deviation_sweep(inst, int(i), grid))


def test_instance_arrays_are_read_only_copies(worked_instance):
    """Neither array can be written through the instance, and the caller's
    later writes to its own arrays and bounds do not reach it.  Read-only
    float arrays that own their data, as ``random_frozen_instance`` hands
    over, are kept without a copy."""
    bids, caps = worked_instance
    bounds = [1.0, 3.0]
    inst = FrozenInstance(costs=bids, caps=caps, cost_bounds=bounds)
    gains = [deviation_sweep(inst, i) for i in range(3)]
    for name in ("costs", "caps"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[0] = 0.5
    bids[:] = [3.0, 2.0, 1.0]
    caps[:] = [1.0, 0.0, 0.0]
    bounds[1] = np.nan
    assert inst.costs.tolist() == [1.0, 2.0, 3.0] and inst.caps.tolist() == [0.5, 0.6931, 1.0]
    assert inst.cost_bounds == (1.0, 3.0)
    assert [deviation_sweep(replace(inst), i) for i in range(3)] == gains
    listed = FrozenInstance(costs=[1.0, 2.0], caps=[1, 1], cost_bounds=(1.0, 3.0))
    assert listed.caps.dtype == float and not listed.caps.flags.writeable
    drawn = random_frozen_instance(np.random.default_rng(0))
    kept = replace(drawn)
    assert kept.costs is drawn.costs and kept.caps is drawn.caps


def _gains(inst, order, grid=None) -> list:
    return [repr(deviation_sweep(inst, i, grid)) for i in order]


@pytest.mark.parametrize("grid", [None, np.array([0.5, 1.5, 2.5, 4.0, 9.5])], ids=["rank", "given"])
@on_both_branches
def test_sweeps_of_one_instance_match_fresh_instances(grid):
    """The state the sweeps of an instance share changes no gain: sweeping
    its workers in reverse order, or one worker twice, gives each worker's
    gain bit for bit as a fresh instance per sweep does."""
    rng = np.random.default_rng(11)
    for inst in [*(random_frozen_instance(rng) for _ in range(20)), TIED, SHORT_COVER]:
        n = len(inst.costs)
        fresh = [_gains(replace(inst), [i], grid)[0] for i in range(n)]
        shared = replace(inst)
        assert _gains(shared, reversed(range(n)), grid) == fresh[::-1]
        assert _gains(shared, [n - 1, 0, 0], grid) == [fresh[-1], fresh[0], fresh[0]]


def test_replaced_caps_are_swept():
    """``dataclasses.replace`` with new caps gives an instance whose sweeps
    use the new caps, after the old instance's sweeps have run."""
    old = FrozenInstance(costs=np.array([1.0, 2.0, 3.0]), caps=np.array([0.6, 0.6, 0.6]),
                         cost_bounds=(1.0, 5.0))
    new = replace(old, caps=np.array([0.3, 0.3, 0.6]))
    want = [repr(literal_sweep(new, i)) for i in range(3)]
    assert _gains(old, range(3)) == [repr(literal_sweep(old, i)) for i in range(3)]
    assert _gains(new, range(3)) == want
    assert _gains(replace(old, caps=new.caps), range(3)) == want
    short = replace(old, caps=np.array([0.3, 0.3, 0.3]))
    with pytest.raises(InfeasibleJob):
        deviation_sweep(short, 0)


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


def test_deviation_grid_clips_the_other_costs_to_the_bounds():
    """Costs outside the bounds enter the others' order clipped, so each
    midpoint lies inside the bounds (3.5, not 4.0, between 2.0 and the
    clipped 6.0; 1.5, not 1.25, between the clipped 0.5 and 2.0).  A
    worker's own cost, first in its grid, is not clipped."""
    inst = FrozenInstance(costs=np.array([0.5, 2.0, 6.0]), caps=np.array([0.6, 0.6, 0.6]),
                          cost_bounds=(1.0, 5.0))
    assert [deviation_grid(inst, i).tolist() for i in range(3)] == [[0.5, 3.5], [2.0], [6.0, 1.5]]


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


def _tail_behind(inst, i, b):
    """The workers after the boundary when worker ``i`` bids ``b`` and ranks
    at or before it, else ``None``."""
    bids = inst.costs.copy()
    bids[i] = b
    alloc = sw_greedy(bids, inst.caps)
    order = alloc.bid_order.tolist()
    return tuple(order[alloc.k_pos + 1 :]) if order.index(i) <= alloc.k_pos else None


# Worker 0 bids first; the others' caps cover the job at exactly 1.0 in bid
# order, so its rank-3 bid leaves it past the boundary.
EXACT_COVER = FrozenInstance(
    costs=np.array([1.5, 2.0, 3.0, 4.0]), caps=np.array([0.6, 0.5, 0.25, 0.25]),
    cost_bounds=(1.0, 5.0),
)
# Workers 2, 3 and 0 cap 0.7, 0.2 and 0.1: 0.9999999999999999 in bid order,
# 1.0 by fsum.  Worker 1 bidding 3.0 ranks after them and still takes its
# cap of 2e-17, as the boundary worker; grid seed 17 gives it the grid [3.0].
SHORT_COVER = FrozenInstance(
    costs=np.array([3.0, 1.5, 2.0, 2.5, 4.0]), caps=np.array([0.1, 2e-17, 0.7, 0.2, 0.5]),
    cost_bounds=(1.0, 5.0),
)
# Worker 1's bid of 2.0 ties with worker 0's cost and with worker 2's and
# ranks between them, where the others' caps reach 0.5, not yet 1.0.
TIED_AROUND = FrozenInstance(
    costs=np.array([2.0, 1.5, 2.0, 4.0]), caps=np.array([0.5, 0.6, 0.5, 0.5]),
    cost_bounds=(1.0, 5.0),
)

# Worker 0 has a zero cap and worker 4 a negative-zero one: at a rank before
# the boundary either is allocated its cap and priced.
ZERO_CAP = FrozenInstance(
    costs=np.array([2.0, 1.0, 3.0, 4.0, 2.5]), caps=np.array([0.0, 0.6, 0.5, 0.5, -0.0]),
    cost_bounds=(1.0, 5.0),
)
# Worker 3 bidding 3.0 or more ranks after three full caps that sum to
# 0.2387, where 1 - total is one ulp short and ``_remainder``'s fix-up loop
# sets its fraction.  Grid seed 2 gives worker 3 the given grid [3.0], and
# depends on the order the test draws its per-worker grids.
FIX_UP_CAPS = FrozenInstance(
    costs=np.array([1.0, 2.0, 3.0, 1.5]),
    caps=np.array([0.12897873630177883, 0.015148427668818855, 0.09453055554283875, 1.0]),
    cost_bounds=(1.0, 5.0),
)
# Costs on both bounds: worker 1 bidding either bound ties with a cost there
# and keeps rank 1, so only a bid outside the bounds reaches rank 0 or rank
# 2, where the others' caps of 0.9 make it the boundary worker.  Grid seed
# 306 gives every worker given bids below 1.0 and above 5.0, and depends on
# the order the test draws its per-worker grids.
OUT_OF_BOUNDS = FrozenInstance(
    costs=np.array([1.0, 2.5, 5.0]), caps=np.array([0.4, 0.5, 0.5]), cost_bounds=(1.0, 5.0),
)

# Worker 3 (cap 0.1) ranks after the caps 0.7 and 0.2 of workers 0 and 1, at
# rank 2, or after worker 2's zero cap too, at rank 3.  Either way the caps
# sum to 0.9999999999999999 in bid order, so worker 4's cap completes the
# job at position 4, and to 1.0 by fsum, a zero remainder.  So both ranks
# share the boundary and the remainder, but not the last positive cap before
# it: worker 3's own, at position 2 or 3.  Grid seed 0 gives worker 3,
# truthfully at rank 2, the given grid [4.0], at rank 3.
SHARED_ZERO_REST = FrozenInstance(
    costs=np.array([1.5, 2.0, 3.0, 2.5, 4.0]), caps=np.array([0.7, 0.2, 0.0, 0.1, 0.5]),
    cost_bounds=(1.0, 5.0),
)


def _covered_before(inst, i, b):
    """True when the caps of the workers that bid before worker ``i``,
    bidding ``b``, sum to at least one, added up in bid order."""
    bids = inst.costs.copy()
    bids[i] = b
    order = bids.argsort(kind="stable").tolist()
    before = order[: order.index(i)]
    return bool(before) and np.cumsum(inst.caps[before])[-1] >= 1.0


def _boundary_of(inst, i, b):
    """Where the caps, summed in bid order (by an independent ``np.cumsum``)
    when worker ``i`` bids ``b``, first reach one, and whether ``i`` ranks
    before that position."""
    bids = inst.costs.copy()
    bids[i] = b
    order = bids.argsort(kind="stable").tolist()
    k = int(np.cumsum(inst.caps[order]).searchsorted(1.0))
    return k, order.index(i) < k


def test_rank_grid_has_one_bid_per_rank_on_distinct_costs(monkeypatch):
    """With distinct costs inside the bounds every rank is reachable, so the
    grid holds n bids, on random instances and on the two whose caps cover
    the job exactly or just short of it.  The sweeps of an instance run
    ``sw_greedy`` once, on the truthful bid in the first sweep, and never
    call ``job_payments``.  A sweep solves every bid but those that the
    others' caps (summed in bid order, by an independent ``np.cumsum``)
    cover the job ahead of.  It runs ``_remainder`` once for each distinct
    pair, among the solved bids, of the boundary position and whether ``i``
    ranks before it, and builds the payment tail once for each distinct set
    of workers after the boundary that a bid at or before the boundary
    leaves."""
    calls = {"sw_greedy": 0, "_remainder": 0, "_payment_tail": 0, "job_payments": 0}

    def counted(name):
        real = getattr(mechanism, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mechanism, name, counted(name))
    rng = np.random.default_rng(5)
    skipped = shared = shared_rests = 0
    # fresh copies of the shared instances, which other tests may have swept
    fixed = [replace(EXACT_COVER), replace(SHORT_COVER)]
    for inst in [*fixed, *(random_frozen_instance(rng) for _ in range(30))]:
        n = len(inst.costs)
        for i in range(n):
            grid = deviation_grid(inst, i)
            assert len(grid) == n
            solved = [b for b in grid if not _covered_before(inst, i, b)]
            skipped += n - len(solved)
            rests = {_boundary_of(inst, i, b) for b in solved}
            shared_rests += len(solved) - len(rests)
            behind = [_tail_behind(inst, i, b) for b in grid]
            tails = {t for t in behind if t is not None}
            shared += len(behind) - behind.count(None) - len(tails)
            before = dict(calls)
            deviation_sweep(inst, i)
            counts = {k: calls[k] - before[k] for k in calls}
            assert counts == {
                "sw_greedy": int(i == 0), "_remainder": len(rests), "_payment_tail": len(tails),
                "job_payments": 0,
            }
    assert skipped > 0 and shared > 0 and shared_rests > 0


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


def test_every_plan_of_a_desk6_run_is_incentive_compatible():
    """Every plan of a 2,000-job desk6 learning run at seed 1, swept worker
    by worker: each distinct caps object ``current_caps`` hands out (a new
    one exactly when the plan changes), frozen with the run's costs and cost
    bounds.  No worker gains more than 1e-9 by a unilateral deviation."""
    cfg = desk_config(seed=1, T=2000)
    sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
    plans, last = [], None
    for t in range(1, cfg.T + 1):
        caps = sim.current_caps(t)
        if caps is not last:
            plans.append(caps)
            last = caps
        sim.step(t)
    assert len(plans) == 1487
    worst = max(
        deviation_sweep(FrozenInstance(sim.costs, caps, cfg.cost_bounds), i)
        for caps in plans
        for i in range(cfg.n)
    )
    assert worst <= 1e-9


def test_sampled_plans_of_array_form_markets_are_incentive_compatible():
    """Sampled plans of two markets whose job step runs on arrays, swept
    worker by worker and frozen with their run's costs and cost bounds.
    reference400 (seed 7, as configs/reference400.cfg): the plan of job 1,
    and that of job 2,067, where the caps first move, each at every 10th
    worker and at every worker whose cap moved.  desk48: every worker of
    every 100th plan of its 1,500-job run at seed 1.  No worker gains more
    than 1e-9 by a unilateral deviation."""
    cfg = reference_config(T=2067, seed=7)
    sim = Simulator(cfg, reference_recipe(), est_cfg=EstimatorConfig.defaults(cfg))
    first = sim.current_caps(1)
    for t in range(1, cfg.T):
        sim.step(t)
    moved = sim.current_caps(cfg.T)
    changed = np.flatnonzero(np.asarray(first) != np.asarray(moved)).tolist()
    assert changed
    sweeps = [
        (FrozenInstance(sim.costs, caps, cfg.cost_bounds), i)
        for caps in (first, moved)
        for i in sorted({*range(0, cfg.n, 10), *changed})
    ]
    cfg, recipe = desk48_market(1)
    sim = Simulator(cfg, recipe, est_cfg=desk_estimator(cfg))
    plans, last = [], None
    for t in range(1, cfg.T + 1):
        caps = sim.current_caps(t)
        if caps is not last:
            plans.append(caps)
            last = caps
        sim.step(t)
    assert len(plans) == 942
    sweeps += [
        (FrozenInstance(sim.costs, caps, cfg.cost_bounds), i)
        for caps in plans[::100]
        for i in range(cfg.n)
    ]
    assert max(deviation_sweep(inst, i) for inst, i in sweeps) <= 1e-9


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
@example(inst=EXACT_COVER, grid_seed=0)
@example(inst=SHORT_COVER, grid_seed=17)
@example(inst=TIED_AROUND, grid_seed=0)
@example(inst=ZERO_CAP, grid_seed=0)
@example(inst=FIX_UP_CAPS, grid_seed=2)
@example(inst=OUT_OF_BOUNDS, grid_seed=306)
@example(inst=SHARED_ZERO_REST, grid_seed=0)
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
    """A bad instance raises ``ValueError`` or ``InfeasibleJob`` for every
    worker, with no grid and with a given one; it never returns a number."""
    for i in range(3):  # every worker of the three-worker instances
        for grid in (None, np.array([2.0, 4.0])):
            with pytest.raises((ValueError, InfeasibleJob)):
                deviation_sweep(inst, i, grid)


@pytest.mark.parametrize("inst", BAD_INSTANCES.values(), ids=BAD_INSTANCES.keys())
def test_bad_instance_raises_on_every_sweep(inst):
    """A failed check is not kept: a fresh bad instance raises on its first
    sweep and again on its second, of the same worker or another, and it
    keeps no truthful allocation."""
    inst = replace(inst)
    for i, grid in ((0, None), (0, None), (1, np.array([2.0])), (1, None)):
        with pytest.raises((ValueError, InfeasibleJob)):
            deviation_sweep(inst, i, grid)
    assert "_truthful" not in vars(inst)


@pytest.mark.parametrize(
    "inst",
    [inst for name, inst in BAD_INSTANCES.items() if name != "caps short of the job"],
    ids=[name for name in BAD_INSTANCES if name != "caps short of the job"],
)
def test_grid_of_a_bad_instance_raises(inst):
    """``deviation_grid`` rejects what a sweep rejects, short caps apart,
    which only an allocation finds: ``ValueError`` for every worker."""
    for i in range(3):
        with pytest.raises(ValueError):
            deviation_grid(inst, i)


# Feasible at truthful bids, where the caps sum to 1.0 in bid order, but
# worker 0's rank-2 bid orders them 0.2, 0.7, 0.1, which sum to
# 0.9999999999999999.
ORDER_SHORT = _bad(caps=(0.1, 0.2, 0.7))


@on_both_branches
def test_sweep_of_a_feasible_instance_raises_where_a_deviation_sums_short():
    """Feasibility is decided by a sequential sum of the caps in bid order,
    so a deviation can leave a feasible job short: the sweep and the oracle
    both raise ``InfeasibleJob`` at that deviation's total."""
    assert sw_greedy(ORDER_SHORT.costs, ORDER_SHORT.caps).fractions.tolist() == [0.1, 0.2, 0.7]
    for sweep in (deviation_sweep, literal_sweep):
        with pytest.raises(InfeasibleJob) as exc:
            sweep(ORDER_SHORT, 0)
        assert exc.value.total_cap == 0.9999999999999999, sweep


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


@pytest.mark.parametrize("n_max", [1, 2**63 - 1, 2**64, 8.0, True, "8"])
def test_random_instance_rejects_a_worker_bound_it_cannot_draw(n_max):
    """An ``n_max`` that is not an int in [2, 2**63 - 1) raises ``ValueError``
    before any draw."""
    with pytest.raises(ValueError, match="n_max"):
        random_frozen_instance(np.random.default_rng(0), n_max=n_max)


def test_random_instance_is_feasible():
    rng = np.random.default_rng(0)
    for _ in range(200):
        inst = random_frozen_instance(rng)
        assert inst.caps.sum() >= 1.0
        assert np.all(inst.caps <= 1.0)
        assert np.all((inst.costs >= 1.0) & (inst.costs <= 10.0))

