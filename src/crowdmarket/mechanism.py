"""Externality-based payments and incentive verification.

A worker's payment prices the displacement it causes: in its absence, its
fraction would spill over to the boundary worker's remaining slack and then to
the workers bidding above the boundary, in bid order.  Each displaced unit is
paid at the bid of the worker who would have absorbed it; any part of the
fraction that nobody could absorb is paid at the cost ceiling.  Workers above
the boundary receive nothing and pay nothing.  Each payment is thus the
integral of a step function of the tail bids (Myerson's identity), so
``job_payments`` prices every active worker from prefix sums of the tail
caps, with one ``searchsorted``, in O(n log n); ``_payments_lists`` is the
same rule on Python floats, with the same bytes, for small job steps.  It
builds the tail's prefix sums with ``_payment_tail`` and prices each row
with ``_payment_row``, the two helpers ``deviation_sweep`` shares.  The
scalar transcription of the rule, worker by worker and displaced unit by
displaced unit, lives in the tests, as the oracle both are checked against.

``deviation_sweep`` evaluates a grid of unilateral bid deviations, the other
workers bidding truthfully, and reports the best achievable utility gain.
``sw_greedy`` reads only the bid order, and a worker's own bid never prices
its own payment, so a worker's utility depends on its bid only through its
rank among the other bids (ties broken by worker id).  The grid holds one
bid per rank the worker can reach, its own cost first, which finds the
maximum exactly.  Every bid is solved in rank space, with ``sw_greedy``'s
cover rule: a job is covered where the ``fsum`` of the filled caps reaches
one, whatever the order of the adds.  Two searches per sweep split the
ranks into three classes.  Before the rank where the worker's cap with the
others' first caps covers the job, it takes its full cap and the payment
does not read its bid (Myerson's identity), so one row prices the whole
class.  From there until the others' caps cover the job, the worker is the
boundary, and each rank is priced at its own remainder and tail.  Past
that, the rule writes ``0.0``.

A ``FrozenInstance`` checks its costs and caps once, on first use, and
keeps them as lists with the one (cost, id) order of all workers that
every grid and sweep of it reads.  No sweep calls ``sw_greedy``: the
instance checks what it checks, and the sweep's own solve raises its
``InfeasibleJob``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .allocation import (
    Allocation,
    InfeasibleJob,
    _as_bid_array,
    _check_caps,
    _cover,
    _remainder,
    sw_greedy,  # not called here; perfbench's tracer wraps it through this module
)

__all__ = [
    "PaymentRecord",
    "FrozenInstance",
    "job_payments",
    "random_frozen_instance",
    "deviation_grid",
    "deviation_sweep",
]


@dataclass(slots=True)
class PaymentRecord:
    """Payments and utilities of one job, one entry per worker.

    Utilities are evaluated at the supplied true costs and are computed
    term-by-term so that truthful utilities are non-negative exactly, not
    merely up to rounding.
    """

    payments: np.ndarray
    utilities: np.ndarray


def job_payments(
    alloc: Allocation,
    caps,
    bids,
    c_bar: float,
    true_costs=None,
) -> PaymentRecord:
    """Compute payments and utilities for every worker in one job.

    Every active worker but the boundary one first fills the boundary
    worker's slack, at the boundary bid ``b_k``.  The rest of its fraction
    fills the caps of the workers after the boundary, in bid order and each
    at its bid, and what they cannot absorb is paid at ``c_bar``.  One
    ``searchsorted`` in the prefix sums of those caps finds the slots each
    row fills completely, so all payments take O(n log n).  A slot's bid
    enters as ``r + (b - r)``, with ``r`` the first bid after the boundary,
    so the boundary worker's own bid never prices its own payment, and no
    term is negative for a truthful bid.

    ``caps``, ``bids`` and ``true_costs`` hold one entry per worker of
    ``alloc`` and ``c_bar`` is finite, or ``ValueError`` is raised.  The rule
    runs on numpy arrays at every n; ``_payments_lists`` is its list form,
    with the same bytes.
    """
    caps = np.asarray(caps, dtype=float)
    b = _as_bid_array(bids)
    costs = b if true_costs is None else np.asarray(true_costs, dtype=float)
    order, k = alloc.bid_order, alloc.k_pos
    if not caps.shape == b.shape == costs.shape == order.shape:
        raise ValueError(
            f"caps, bids and true_costs need one entry per worker of the allocation "
            f"{order.shape}, got {caps.shape}, {b.shape} and {costs.shape}"
        )
    if not math.isfinite(c_bar):
        raise ValueError(f"c_bar must be finite, got {c_bar}")
    n = order.shape[0]
    active = order[: k + 1]
    x = alloc.fractions[active]
    b_s = b[order]
    b_k = b_s[k]
    b_next = np.empty(n - k)  # the bid of each tail slot, then the ceiling
    b_next[:-1] = b_s[k + 1 :]
    b_next[-1] = c_bar
    r = b_next[0]
    a = caps[order[k + 1 :]]
    filled = np.zeros(n - k)  # prefix sums of a
    np.add.accumulate(a, out=filled[1:])
    premium = np.zeros(n - k)  # prefix sums of (b - r) * a
    np.add.accumulate((b_next[:-1] - r) * a, out=premium[1:])

    slack = np.minimum(x, caps[order[k]] - x[k])
    slack[k] = 0.0  # the boundary worker's row skips its own slack
    spill = x - slack
    j = filled[1:].searchsorted(spill, side="right")  # tail slots filled completely
    done = filled[j]
    part = spill - done
    prem, b_part = premium[j], b_next[j]

    c = b_s[: k + 1] if costs is b else costs[active]
    payments = np.zeros(n)
    utilities = np.zeros(n)
    payments[active] = b_k * slack + r * done + prem + b_part * part
    utilities[active] = (b_k - c) * slack + (r - c) * done + prem + (b_part - c) * part
    return PaymentRecord(payments=payments, utilities=utilities)


def _payments_lists(fractions, k: int, caps, bids, c_bar: float, costs, order) -> tuple:
    """``job_payments`` on lists of Python floats, each term in the same
    order: fractions, caps, bids, true costs and bid order in, with ``k`` the
    allocation's ``k_pos``; payments and utilities out, ``0.0`` past the
    boundary.  ``_payment_tail`` and ``_payment_row`` hold the rule, which
    ``deviation_sweep`` calls too."""
    n = len(order)
    after = order[k + 1 :]
    tail = _payment_tail([bids[w] for w in after], [caps[w] for w in after], c_bar)
    b_k = bids[order[k]]
    room = caps[order[k]] - fractions[order[k]]  # the boundary worker's slack
    payments = [0.0] * n
    utilities = [0.0] * n
    for q in range(k + 1):
        w = order[q]
        # the boundary worker's row skips its own slack
        payments[w], utilities[w] = _payment_row(
            tail, b_k, 0.0 if q == k else room, fractions[w], costs[w]
        )
    return payments, utilities


def _payment_tail(bids, caps, c_bar: float) -> tuple:
    """What a row's spill is priced at: the bids of the workers after the
    boundary, in bid order, then ``c_bar``, with the prefix sums of their
    caps and of their bid's premium over the first such bid.
    ``accumulate`` is the sequential ``np.add.accumulate``."""
    b_next = [*bids, c_bar]  # the bid of each tail slot, then the ceiling
    r = b_next[0]
    filled = [0.0, *accumulate(caps)]
    premium = [0.0, *accumulate([(bn - r) * a for bn, a in zip(b_next, caps)])]
    return b_next, filled, premium


def _payment_row(tail, b_k: float, room: float, x: float, c: float) -> tuple:
    """One active row of ``job_payments``: the payment and utility, at true
    cost ``c``, of a fraction ``x`` that first fills ``room`` of the
    boundary worker's slack (``0.0`` on the boundary worker's own row) at
    its bid ``b_k``, then spills into the ``tail`` of ``_payment_tail``.
    ``bisect_right`` is the ``searchsorted``."""
    b_next, filled, premium = tail
    r = b_next[0]
    # a tie (of signed zeros) takes the second operand, as in np.minimum
    slack = x if x < room else room
    spill = x - slack
    j = bisect_right(filled, spill, 1) - 1  # tail slots filled completely
    done = filled[j]
    part = spill - done
    prem, b_part = premium[j], b_next[j]
    return (
        b_k * slack + r * done + prem + b_part * part,
        (b_k - c) * slack + (r - c) * done + prem + (b_part - c) * part,
    )


_FLOAT = np.dtype(float)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array that no caller can write to:
    kept as it is if it is a read-only float array that owns its data, else
    copied."""
    if (
        type(values) is np.ndarray
        and values.dtype is _FLOAT
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    values = np.array(values, dtype=float)
    values.setflags(False)  # write=False, passed positionally: the cheap call
    return values


@dataclass(frozen=True)
class FrozenInstance:
    """One-job snapshot: caps are frozen learning state, costs are private
    and are also every worker's truthful bid.

    The instance owns read-only copies of ``costs`` and ``caps``, and keeps
    ``cost_bounds`` as a tuple: nothing can be written through it, and a
    caller's later write to its own arrays or bounds does not reach it.  A
    read-only float array that owns its data, as ``random_frozen_instance``
    hands over, is kept without a copy.

    What every deviation grid and sweep of the instance shares is derived
    once, on first use: the instance checks, the costs and caps as lists,
    and the one (cost, id) order of all workers.  Nothing that failed is
    kept, so a bad instance raises on every sweep.
    """

    costs: np.ndarray
    caps: np.ndarray
    cost_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", _read_only(self.costs))
        object.__setattr__(self, "caps", _read_only(self.caps))
        object.__setattr__(self, "cost_bounds", tuple(self.cost_bounds))

    @cached_property
    def _shared(self) -> tuple:
        """The costs and caps as lists, and the (cost, id) order of all
        workers, as ``sw_greedy`` sorts the truthful bids.  Raises
        ``ValueError`` unless costs and caps are finite vectors of one length
        with the caps in [0, 1], and the bounds are finite with ``lo <= hi``."""
        costs, caps = self.costs, self.caps
        if not (costs.ndim == 1 and costs.shape == caps.shape):
            raise ValueError(f"costs and caps must be 1-D of one length: {costs.shape}, {caps.shape}")
        lo, hi = self.cost_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"cost bounds must be finite with lo <= hi, got {self.cost_bounds}")
        costs, caps = costs.tolist(), caps.tolist()
        if not all(map(math.isfinite, costs)):
            raise ValueError("costs must be finite")
        if caps:  # an instance of no workers has no index to sweep
            _check_caps(caps)
        return costs, caps, sorted(zip(costs, range(len(costs))))


def random_frozen_instance(
    rng: np.random.Generator,
    n_max: int = 8,
    cost_bounds: tuple[float, float] = (1.0, 10.0),
) -> FrozenInstance:
    """Random feasible one-job instance for incentive fuzzing.

    Caps are rescaled so their sum lands comfortably above one, at 1.05 to
    2.5, and each is clipped to 1: caps that do not clip sum to above one,
    and a cap that clips is 1 itself, so the job is always covered.  Costs
    are uniform over the cost range.  The worker count
    is an int64 draw, so ``n_max`` must be an int (a numpy one included, a
    bool not) in [2, 2**63 - 1), or ``ValueError`` is raised.
    """
    if (type(n_max) is not int and not isinstance(n_max, np.integer)) or not 2 <= n_max < 2**63 - 1:
        raise ValueError(f"n_max must be an int in [2, 2**63 - 1), got {n_max!r}")
    lo, hi = cost_bounds
    n = int(rng.integers(2, n_max + 1))
    raw = rng.uniform(0.05, 0.95, size=n)
    caps = np.minimum(1.0, raw / raw.sum() * rng.uniform(1.05, 2.5))
    costs = rng.uniform(lo, hi, size=n)
    costs.setflags(False)  # read-only, so the instance keeps them without a copy
    caps.setflags(False)
    return FrozenInstance(costs=costs, caps=caps, cost_bounds=cost_bounds)


def deviation_grid(instance: FrozenInstance, i: int) -> list:
    """A list of one bid per bid order worker ``i`` can reach, own cost first.

    Every bid lies inside the cost bounds, so an other bidding below the
    lower bound ranks before each of them and one above the upper bound
    after: rank r puts ``i`` after those below and the r lowest others
    inside (ties by worker id).  A midpoint reaches the rank between two
    distinct bids.  A rank between equal bids, or between a bid on a bound
    and that bound, is reached only by that bid and only if the ids put
    ``i`` there.  The instance's (cost, id) order is the only order read.
    Raises ``ValueError`` on an instance as a sweep does, non-finite costs
    and caps outside [0, 1] included, and unless ``i`` is an int (a numpy
    one included, a bool not) with ``0 <= i < n``."""
    costs, _, order = instance._shared
    n = len(costs)
    if type(i) is not int and not isinstance(i, np.integer):
        raise ValueError(f"worker index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise ValueError(f"worker index {i} outside [0, {n})")
    lo, hi = map(float, instance.cost_bounds)  # numpy bounds would give numpy bids
    low, high = (lo, -1), (hi, n)  # each bound sorts outside its side
    others = [o for o in order if o[1] != i]
    cut = bisect_left(others, low)  # the others below the bounds
    own_rank = bisect_left(others, (costs[i], i)) - cut
    ends = [low, *others[cut : bisect_left(others, high)], high]
    grid = [costs[i]]
    for r, ((a, ja), (b, jb)) in enumerate(zip(ends, ends[1:])):
        if r != own_rank and (a < b or ja < i < jb):
            # halves first: a + b can overflow where neither does
            grid.append(0.5 * a + 0.5 * b if a < b else a)
    return grid


def deviation_sweep(instance: FrozenInstance, i: int, grid=None) -> float:
    """Best utility gain worker ``i`` can achieve by unilateral misreporting.

    The learning state (caps) stays frozen, other workers bid truthfully, and
    the return value is ``max_b u_i(b) - u_i(c_i)`` over the bids of
    :func:`deviation_grid`, one per rank ``i`` can reach, its own cost
    first; a non-positive result certifies that no profitable deviation
    exists.  Each utility is ``job_payments``'s at ``c_bar`` = the upper
    cost bound, bit for bit.  ``grid`` must be ``None``.

    Every bid is solved in rank space: the other workers are the instance's
    (cost, id) order without ``i``, and ``_cover`` decides where caps cover
    the job, as in ``sw_greedy``.  ``cover`` is where the others' caps
    cover it, and ``first_k`` where ``i``'s cap with the others' first caps
    does.  A rank ``r`` falls in one of three classes:

    - ``r < first_k``: ``i`` takes its full cap and the other at position
      ``first_k`` is the boundary, whatever ``r`` is.  The payment does not
      read the bid (Myerson's identity), so one row serves the class.
    - ``first_k <= r <= cover``: ``i`` is the boundary at position ``r``.
      Its fraction is the remainder after the others' first ``r`` caps,
      its payment tail the others from ``r`` on, and its row is priced at
      its own bid, as ``job_payments`` prices it.
    - ``r > cover``: the others cover the job ahead of ``i``, which is past
      the boundary, where the rule writes ``0.0``.

    The first two classes share the tail at ``first_k``.

    Raises ``ValueError`` on a ``grid`` other than ``None``, and where
    :func:`deviation_grid` does; and :class:`InfeasibleJob`, at
    ``sw_greedy``'s total and before any bid is solved, when the caps fall
    short of one, which no bid order changes.  Nothing that failed is kept,
    so a bad instance raises on every sweep.
    """
    if grid is not None:  # the keyword stays for perfbench's self-test, which passes None
        raise ValueError(f"grid must be None, got {type(grid).__name__}")
    grid = deviation_grid(instance, i)  # checks the instance and i
    costs, caps, order = instance._shared
    c_bar = float(instance.cost_bounds[1])
    others = [o for o in order if o[1] != i]
    o_bids = [c for c, _ in others]
    o_caps = [caps[j] for _, j in others]
    sums = list(accumulate(o_caps))
    cover = _cover(o_caps, sums)
    cost, cap = costs[i], caps[i]
    # at a rank r <= cover, the caps filled up to a position p >= r are i's
    # and the others' first p, whatever r is, so the boundary is
    # max(r, first_k).  s + cap adds the same caps in another sequence,
    # which errs as little.
    first_k = _cover([cap, *o_caps], [cap, *[s + cap for s in sums]])
    if first_k > len(others):
        raise InfeasibleJob(math.fsum(caps))
    tail = held = None  # the tail at first_k, and the row of every r < first_k
    u = []
    for b in grid:
        r = bisect_left(others, (b, i))  # i's position in the bid order
        if r > cover:  # the rule writes 0.0 past the boundary
            u.append(0.0)
            continue
        if tail is None and r <= first_k:
            tail = _payment_tail(o_bids[first_k:], o_caps[first_k:], c_bar)
        if r < first_k:  # i fills its cap; the other at first_k is the boundary
            if held is None:
                at_k = o_caps[first_k - 1]
                rest = _remainder([*o_caps[: first_k - 1], cap], at_k)
                held = _payment_row(tail, o_bids[first_k - 1], at_k - rest, cap, cost)[1]
            u.append(held)
        else:  # i is the boundary worker, whose row skips its own slack
            behind = tail if r == first_k else _payment_tail(o_bids[r:], o_caps[r:], c_bar)
            u.append(_payment_row(behind, b, 0.0, _remainder(o_caps[:r], cap), cost)[1])
    return max(u) - u[0]
