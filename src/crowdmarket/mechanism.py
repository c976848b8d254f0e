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
maximum exactly.  Every bid is solved in rank space.  Where the other
workers' caps cover the job ahead of the worker's rank, it is past the
boundary and the rule writes ``0.0``.  At any other rank the boundary comes
from the others' caps summed in bid order, with the worker's own cap added
at its rank.  The boundary worker's fraction and the payment tail behind
it are each built once per boundary position in a sweep, and price the
worker's row.

The sweeps of one instance share their start: the same checked costs and
caps and the same (cost, id) order of all workers.  A ``FrozenInstance``
derives both once, on first use, and a worker's sweep takes the others'
order as that order without it.  No sweep calls ``sw_greedy``: the
instance checks what it checks, and the sweep's own solve of the truthful
bid raises its ``InfeasibleJob``.
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

    What every deviation sweep of the instance shares is derived once, on
    first use: the instance checks, the costs and caps as lists, and the
    (cost, id) order of all workers, clipped to the cost bounds and not.
    Nothing that failed is kept, so a bad instance raises on every sweep.
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
        workers, unclipped and clipped to the cost bounds.  Raises
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
        order = sorted(zip(costs, range(len(costs))))
        if not order or (lo <= order[0][0] and order[-1][0] <= hi):  # clipping keeps every cost
            return costs, caps, order, order
        clipped = sorted((min(max(c, lo), hi), j) for j, c in enumerate(costs))
        return costs, caps, order, clipped


def random_frozen_instance(
    rng: np.random.Generator,
    n_max: int = 8,
    cost_bounds: tuple[float, float] = (1.0, 10.0),
) -> FrozenInstance:
    """Random feasible one-job instance for incentive fuzzing.

    Caps are rescaled so their sum lands comfortably above one (and each stays
    within [0, 1]); costs are uniform over the cost range.  The worker count
    is an int64 draw, so ``n_max`` must be an int (a numpy one included, a
    bool not) in [2, 2**63 - 1), or ``ValueError`` is raised.
    """
    if (type(n_max) is not int and not isinstance(n_max, np.integer)) or not 2 <= n_max < 2**63 - 1:
        raise ValueError(f"n_max must be an int in [2, 2**63 - 1), got {n_max!r}")
    lo, hi = cost_bounds
    while True:
        n = int(rng.integers(2, n_max + 1))
        raw = rng.uniform(0.05, 0.95, size=n)
        target = rng.uniform(1.05, 2.5)
        caps = np.minimum(1.0, raw / raw.sum() * target)
        if caps.sum() >= 1.0:
            break
    costs = rng.uniform(lo, hi, size=n)
    costs.setflags(False)  # read-only, so the instance keeps them without a copy
    caps.setflags(False)
    return FrozenInstance(costs=costs, caps=caps, cost_bounds=cost_bounds)


def deviation_grid(instance: FrozenInstance, i: int) -> list:
    """A list of one bid per bid order worker ``i`` can reach, own cost first.

    Rank r puts ``i`` after the r lowest other bids (clipped to the cost
    bounds, ties by worker id).  A midpoint reaches the rank between two
    distinct bids.  A rank between equal bids, or between a bid on a bound
    and that bound, is reached only by that bid and only if the ids put
    ``i`` there.  Raises ``ValueError`` on an instance or ``i`` as a sweep
    does: non-finite costs and caps outside [0, 1] included.  The instance
    checks and the clipped bid order are the instance's, made once; the
    others' order is that order without ``i``."""
    costs, _, _, clipped = _check_worker(instance, i)
    lo, hi = instance.cost_bounds
    own = (costs[i], i)
    others = [o for o in clipped if o[1] != i]
    own_rank = bisect_left(others, own)
    ends = [(lo, -1), *others, (hi, len(costs))]  # each bound sorts outside its side
    grid = [own[0]]
    for r, ((a, ja), (b, jb)) in enumerate(zip(ends, ends[1:])):
        if r != own_rank and (a < b or ja < i < jb):
            grid.append(0.5 * (a + b) if a < b else a)
    return grid


def _check_worker(instance: FrozenInstance, i: int) -> tuple:
    """The instance's shared sweep state, once ``i`` is checked to be an
    integer worker index: a Python or numpy int, not a bool."""
    shared = instance._shared
    if type(i) is not int and not isinstance(i, np.integer):
        raise ValueError(f"worker index must be an integer, got {i!r}")
    n = len(shared[0])
    if not 0 <= i < n:
        raise ValueError(f"worker index {i} outside [0, {n})")
    return shared


def deviation_sweep(instance: FrozenInstance, i: int, grid=None) -> float:
    """Best utility gain worker ``i`` can achieve by unilateral misreporting.

    The learning state (caps) stays frozen, other workers bid truthfully, and
    the return value is ``max_b u_i(b) - u_i(c_i)``; a non-positive result
    certifies that no profitable deviation exists on the grid.  Without a
    ``grid``, each bid of :func:`deviation_grid` is evaluated once; a given
    ``grid`` is evaluated after the truthful bid.  Each utility is
    ``job_payments``'s at ``c_bar`` = the upper cost bound, bit for bit.

    Every sweep of the instance shares its checks and the (cost, id) order
    of all workers, as ``sw_greedy`` sorts them.  Every bid is solved in
    rank space: the other workers are that order without ``i``, and their
    caps are summed in it as ``sw_greedy`` sums them.  A bid that ranks
    ``i`` after a prefix that covers the job leaves it past the boundary,
    where the rule writes ``0.0``.  At any other rank ``r`` the sum goes on
    from the others' first ``r`` caps, with ``i``'s cap and then theirs, to
    where it reaches one, with the adds ``sw_greedy`` makes; ``_remainder``
    gives the boundary worker's fraction.  Its ``fsum`` is correctly
    rounded, so that fraction depends only on the boundary position and on
    whether ``i`` ranks before it, which fixes the multiset of caps filled
    before it.  The payment tail depends only on where the boundary falls
    among the others.  So each boundary position's tail and remainder are
    built once per sweep, and ``_payment_row`` prices ``i``'s row from
    them; only a zero remainder has the filled caps listed in bid order, to
    find the last positive one.

    Raises ``ValueError`` unless ``i`` is an int (a numpy one included, a
    bool not) with ``0 <= i < n``, costs and caps are vectors of one length
    and the bounds are finite with ``lo <= hi``, on a non-finite bid, a cap
    outside [0, 1] or an empty ``grid``; and :class:`InfeasibleJob` when the
    caps, summed in the bid order of the truthful bid (solved first, so at
    ``sw_greedy``'s total) or of a deviation, fall short of one.  Nothing
    that failed is kept, so a bad instance raises on every sweep.
    """
    if grid is None:
        first, grid = 0, deviation_grid(instance, i)  # checks the instance
        costs, caps, order, _ = instance._shared
    else:  # a given grid follows the truthful bid
        costs, caps, order, _ = _check_worker(instance, i)
        first, grid = 1, [costs[i], *grid]
    c_bar = float(instance.cost_bounds[1])
    others = [o for o in order if o[1] != i]
    o_bids = [c for c, _ in others]
    o_caps = [caps[j] for _, j in others]
    sums = list(accumulate(o_caps))
    # the position of the other whose cap completes the job; a rank after it
    # leaves i past the boundary
    cover = bisect_left(sums, 1.0)
    cost, cap, n_others = costs[i], caps[i], len(others)
    tails = {}  # the payment tail behind each boundary position
    rests = {}  # the boundary worker's fraction at (position k, i before k)
    u = []
    for b in grid:
        b = float(b)
        if not math.isfinite(b):
            raise ValueError("bids must be finite")
        r = bisect_left(others, (b, i))  # i's position in the bid order
        if r > cover:  # the rule writes 0.0 past the boundary
            u.append(0.0)
            continue
        # the sums from i's cap on, as sw_greedy makes them, to the cap at
        # position k that completes the job; i's cap raises every later sum
        # (rounding is monotone), so that is at most one past the cover
        cums = list(accumulate(o_caps[r : cover + 1], initial=sums[r - 1] + cap if r else cap))
        k = r + bisect_left(cums, 1.0)
        if k > n_others:
            raise InfeasibleJob(cums[-1])
        # the caps filled before position k are the others' first k - 1 and
        # i's when i ranks before k, else the others' first k; fsum is
        # correctly rounded, so the remainder reads only that multiset
        before = r < k
        at_k = o_caps[k - 1] if before else cap
        rest = rests.get((k, before))
        if rest is None:
            full = [*o_caps[: k - 1], cap] if before else o_caps[:k]
            rest = rests[k, before] = _remainder(full, at_k)
        if rest > 0:
            last, room = k, at_k - rest
        else:  # the last positive cap before k, in bid order, is filled, with no room left
            full = [*o_caps[:r], cap, *o_caps[r : k - 1]] if before else o_caps[:k]
            last, room = next(p for p in reversed(range(k)) if full[p]), 0.0
        if last < r:  # a zero remainder left i past the boundary
            u.append(0.0)
            continue
        tail = tails.get(last)
        if tail is None:
            tail = tails[last] = _payment_tail(o_bids[last:], o_caps[last:], c_bar)
        if last == r:  # i is the boundary worker, whose row skips its own slack
            b_k, room = b, 0.0
        else:
            b_k = o_bids[last - 1]
        u.append(_payment_row(tail, b_k, room, rest if r == k else cap, cost)[1])
    return max(u[first:]) - u[0]
