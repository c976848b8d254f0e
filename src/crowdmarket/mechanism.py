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
same rule on Python floats, with the same bytes, for small job steps and
for ``deviation_sweep``.  The scalar transcription of the rule, worker by
worker and displaced unit by displaced unit, lives in the tests, as the
oracle both are checked against.

``deviation_sweep`` re-runs allocation and payments for a grid of unilateral
bid deviations, the other workers bidding truthfully, and reports the best
achievable utility gain.  ``sw_greedy`` reads only the bid order, and a
worker's own bid never prices its own payment, so a worker's utility depends
on its bid only through its rank among the other bids (ties broken by worker
id).  The grid holds one bid per rank the worker can reach, its own cost
first, which finds the maximum exactly with one allocation per bid order.
Each grid bid calls ``sw_greedy``, and ``_payments_lists`` at any n only if
the worker ranks at or before the boundary; past it the rule writes ``0.0``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .allocation import Allocation, _as_bid_array, sw_greedy

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
    allocation's ``k_pos``; payments and utilities out.  ``accumulate`` is
    the sequential ``np.add.accumulate``, ``bisect_right`` the ``searchsorted``."""
    n = len(order)
    active = order[: k + 1]
    b_s = [bids[w] for w in order]
    b_k = b_s[k]
    b_next = [*b_s[k + 1 :], c_bar]  # the bid of each tail slot, then the ceiling
    r = b_next[0]
    a = [caps[w] for w in order[k + 1 :]]
    filled = [0.0, *accumulate(a)]  # prefix sums of a
    premium = [0.0, *accumulate([(bn - r) * ai for bn, ai in zip(b_next, a)])]

    room = caps[active[k]] - fractions[active[k]]  # the boundary worker's slack
    payments = [0.0] * n
    utilities = [0.0] * n
    for q, w in enumerate(active):
        xq, cq = fractions[w], costs[w]
        # a tie (of signed zeros) takes the second operand, as in np.minimum
        slack = 0.0 if q == k else (xq if xq < room else room)
        spill = xq - slack
        j = bisect_right(filled, spill, 1) - 1  # tail slots filled completely
        done = filled[j]
        part = spill - done
        prem, b_part = premium[j], b_next[j]
        payments[w] = b_k * slack + r * done + prem + b_part * part
        utilities[w] = (b_k - cq) * slack + (r - cq) * done + prem + (b_part - cq) * part
    return payments, utilities


@dataclass(frozen=True)
class FrozenInstance:
    """One-job snapshot: caps are frozen learning state, costs are private
    and are also every worker's truthful bid."""

    costs: np.ndarray
    caps: np.ndarray
    cost_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))
        object.__setattr__(self, "caps", np.asarray(self.caps, dtype=float))


def random_frozen_instance(
    rng: np.random.Generator,
    n_max: int = 8,
    cost_bounds: tuple[float, float] = (1.0, 10.0),
) -> FrozenInstance:
    """Random feasible one-job instance for incentive fuzzing.

    Caps are rescaled so their sum lands comfortably above one (and each stays
    within [0, 1]); costs are uniform over the cost range.
    """
    lo, hi = cost_bounds
    while True:
        n = int(rng.integers(2, n_max + 1))
        raw = rng.uniform(0.05, 0.95, size=n)
        target = rng.uniform(1.05, 2.5)
        caps = np.minimum(1.0, raw / raw.sum() * target)
        if caps.sum() >= 1.0:
            break
    costs = rng.uniform(lo, hi, size=n)
    return FrozenInstance(costs=costs, caps=caps, cost_bounds=cost_bounds)


def deviation_grid(instance: FrozenInstance, i: int) -> np.ndarray:
    """One bid for each bid order worker ``i`` can reach, its own cost first.

    Rank r puts ``i`` after the r lowest other bids (clipped to the cost
    bounds, ties by worker id).  A midpoint reaches the rank between two
    distinct bids.  A rank between equal bids, or between a bid on a bound
    and that bound, is reached only by that bid and only if the ids put
    ``i`` there.  Raises ``ValueError`` on an instance or ``i`` as a sweep does."""
    _check_worker(instance, i)
    lo, hi = instance.cost_bounds
    costs = instance.costs.tolist()
    own = (costs[i], i)
    others = sorted((min(max(c, lo), hi), j) for j, c in enumerate(costs) if j != i)
    own_rank = sum(o < own for o in others)
    ends = [(lo, -1), *others, (hi, len(costs))]  # each bound sorts outside its side
    grid = [own[0]]
    for r, ((a, ja), (b, jb)) in enumerate(zip(ends, ends[1:])):
        if r != own_rank and (a < b or ja < i < jb):
            grid.append(0.5 * (a + b) if a < b else a)
    return np.array(grid)


def _check_worker(instance: FrozenInstance, i: int) -> None:
    costs, caps = instance.costs, instance.caps
    if not (costs.ndim == 1 and costs.shape == caps.shape):
        raise ValueError(f"costs and caps must be 1-D of one length: {costs.shape}, {caps.shape}")
    lo, hi = instance.cost_bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"cost bounds must be finite with lo <= hi, got {instance.cost_bounds}")
    n = len(costs)
    if not 0 <= i < n:
        raise ValueError(f"worker index {i} outside [0, {n})")


def deviation_sweep(instance: FrozenInstance, i: int, grid=None) -> float:
    """Best utility gain worker ``i`` can achieve by unilateral misreporting.

    The learning state (caps) stays frozen, other workers bid truthfully, and
    the return value is ``max_b u_i(b) - u_i(c_i)``; a non-positive result
    certifies that no profitable deviation exists on the grid.  Without a
    ``grid``, each bid of :func:`deviation_grid` is evaluated once; a given
    ``grid`` is evaluated after the truthful bid.  Each utility is
    ``job_payments``'s at ``c_bar`` = the upper cost bound, bit for bit.
    Raises ``ValueError`` unless ``0 <= i < n``, costs and caps are vectors
    of one length and the bounds are finite with ``lo <= hi``, on a
    non-finite bid, a cap outside [0, 1] or an empty ``grid``; and
    :class:`InfeasibleJob` when the caps sum to less than one.
    """
    _check_worker(instance, i)
    first = int(grid is not None)  # a given grid follows the truthful bid
    grid = [instance.costs[i], *grid] if first else deviation_grid(instance, i).tolist()
    c_bar = float(instance.cost_bounds[1])
    costs, caps = instance.costs.tolist(), instance.caps.tolist()
    bids, bid_list = instance.costs.copy(), costs.copy()
    u = []
    for b in grid:
        bids[i] = bid_list[i] = float(b)
        alloc = sw_greedy(bids, instance.caps)
        order, k = alloc.bid_order.tolist(), alloc.k_pos
        if i in order[: k + 1]:
            x = alloc.fractions.tolist()
            u.append(_payments_lists(x, k, caps, bid_list, c_bar, costs, order)[1][i])
        else:  # past the boundary the rule writes 0.0
            u.append(0.0)
    return max(u[first:]) - u[0]
