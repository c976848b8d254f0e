"""Greedy cost-ascending allocation of one divisible job under fraction caps.

The allocation problem per job is a fractional knapsack: minimize total cost
subject to the fractions summing to one and each worker staying below its cap
(deadline and failure-probability constraints folded into a single per-worker
bound).  Sorting by bid and filling caps greedily is optimal.  ``true_cap``
is the one form of that bound: the omniscient oracle applies it to the true
means, and the learner to its pessimistic indices.  Every solver finds the
job covered where the ``fsum`` of the filled caps reaches one (``_cover``),
whatever the order of the adds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

__all__ = [
    "InfeasibleJob",
    "Allocation",
    "SortedBids",
    "true_cap",
    "sw_greedy",
]


class InfeasibleJob(RuntimeError):
    """The caps cannot cover a whole job: ``total_cap``, their fsum, is below one."""

    def __init__(self, total_cap: float) -> None:
        super().__init__(f"caps sum to {total_cap!r} < 1; job cannot be fully allocated")
        self.total_cap = total_cap


@dataclass(slots=True)
class Allocation:
    """Fractions per worker (original indexing) plus the bid-order bookkeeping.

    ``k_pos`` is the position within ``bid_order``, the sorting permutation
    (ties broken by ascending worker id), of the boundary worker
    ``bid_order[k_pos]``.  It takes the remainder, which is positive, so it
    is the last worker with a positive fraction.
    """

    fractions: np.ndarray
    bid_order: np.ndarray
    k_pos: int

    @property
    def active_set(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.nonzero(self.fractions > 0)[0])


# The one crossover between Python floats and numpy arrays, whose fixed cost
# is about 1 us a call.  In a market of up to this many workers the whole job
# step runs on lists: caps, allocation, payments, outcome sampling and the
# estimator bank; above it on arrays.  Each layer crosses over near 32
# entries.
_LIST_MAX = 32


def _as_list(values):
    """``values`` as a list if it is an array (Python scalars for the list
    form), else unchanged."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def true_cap(rho, beta, D: float, epsilon: float):
    """Per-worker fraction bound ``min(1, min(D, beta * ln(1/(1-epsilon))) / rho)``
    from a mean job-completion time ``rho`` and a mean time to failure
    ``beta``: scalars, one array entry per worker, or one list entry per
    worker (then a list of floats, bit-equal to the array form)."""
    budget = -math.log1p(-epsilon)
    if not isinstance(rho, list):
        return np.minimum(1.0, np.minimum(D, beta * budget) / rho)
    caps = []
    for r, b in zip(rho, beta):
        # ``c if c < v else v`` is np.minimum(c, v), a NaN v included
        v = b * budget
        v = (D if D < v else v) / r
        caps.append(1.0 if 1.0 < v else v)
    return caps


@dataclass(frozen=True)
class SortedBids:
    """Bids with their ascending order (ties by worker id), for a caller that
    allocates many jobs against the same bids: ``sw_greedy`` then sorts
    nothing.  Build it with :meth:`of`; the bids and the order are read-only.
    Up to ``_LIST_MAX`` bids it also keeps both as Python lists, which the
    job step hands to ``_payments_lists`` as they are."""

    values: np.ndarray
    order: np.ndarray
    lists: tuple[list, list] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order.shape != self.values.shape:
            raise ValueError(
                f"bid order and bids disagree in length: {self.order.shape} vs {self.values.shape}"
            )
        small = self.values.ndim == 1 and 0 < self.values.size <= _LIST_MAX
        lists = (self.values.tolist(), self.order.tolist()) if small else None
        object.__setattr__(self, "lists", lists)

    @classmethod
    def of(cls, bids) -> "SortedBids":
        values = np.array(bids, dtype=float)
        order = values.argsort(kind="stable")
        values.flags.writeable = order.flags.writeable = False
        return cls(values, order)


def _as_bid_array(bids) -> np.ndarray:
    return bids.values if isinstance(bids, SortedBids) else np.asarray(bids, dtype=float)


def sw_greedy(bids, caps) -> Allocation:
    """Fill the job greedily in ascending-bid order, each worker up to its cap.

    The boundary worker, where ``_cover`` finds the job covered, takes the
    exact remainder, so the fractions sum to one exactly.  Ties in bids are
    broken by ascending worker id; a :class:`SortedBids` brings that order
    with it.  Raises :class:`InfeasibleJob` when the ``fsum`` of the caps is
    below one (no workers included) and ``ValueError`` on bids and caps that
    are not two vectors of one length, on non-finite bids, or on caps
    outside [0, 1].

    Up to ``_LIST_MAX`` workers the rule runs on Python floats, in
    ``_greedy_lists``, and the fractions are wrapped in an array; above it
    on numpy arrays.  Both give the same bytes and raise the same errors.
    """
    b = _as_bid_array(bids)
    c = np.asarray(caps, dtype=float)
    if b.shape != c.shape:
        raise ValueError(f"bids and caps disagree in length: {b.shape} vs {c.shape}")
    if c.ndim != 1:
        raise ValueError(f"bids and caps must be vectors, got shape {c.shape}")
    if not c.size:
        raise InfeasibleJob(0.0)
    order = bids.order if isinstance(bids, SortedBids) else b.argsort(kind="stable")
    if c.size <= _LIST_MAX:
        x, k_pos = _greedy_lists(b, order.tolist(), c.tolist())
        return Allocation(fractions=np.array(x), bid_order=order, k_pos=k_pos)
    if not ((c >= 0) & (c <= 1)).all():  # also rejects NaN caps
        raise ValueError("caps must lie in [0, 1]")
    # NaN sorts last and -inf first, so the two ends decide finiteness.
    if not (math.isfinite(b[order[0]]) and math.isfinite(b[order[-1]])):
        raise ValueError("bids must be finite")
    c_sorted = c[order]
    k_pos = _cover(c_sorted, c_sorted.cumsum())
    if k_pos == c.size:
        raise InfeasibleJob(math.fsum(memoryview(c_sorted)))
    # The workers filled up to their caps; a memoryview yields their floats
    # to fsum without building a list.
    rest = _remainder(memoryview(c_sorted[:k_pos]), float(c_sorted[k_pos]))

    x_sorted = np.zeros(c.shape)
    x_sorted[:k_pos] = c_sorted[:k_pos]
    x_sorted[k_pos] = rest
    fractions = np.empty(c.shape)
    fractions[order] = x_sorted
    return Allocation(fractions=fractions, bid_order=order, k_pos=k_pos)


def _cover(caps, sums) -> int:
    """The first position ``p`` where ``math.fsum(caps[:p + 1]) >= 1.0``, or
    ``len(caps)`` when the caps fall short: where the job is covered, read
    from which caps are filled, whatever the order of the adds.  ``sums``
    are the caps' prefix sums added in sequence, from ``caps[0]``, which err
    by at most about n*u of their total (u = 2**-53; Higham 2002, 4.2): one
    ``bisect`` in them decides unless they lie within 4(n + 2)u of one
    around the position it finds, where ``fsum`` decides (Shewchuk 1997)."""
    n = len(caps)
    p = bisect_left(sums, 1.0)
    if p == 0:  # sums[0] is caps[0] itself
        return 0
    total = sums[-1]
    band = (n + 2) * 2**-51 * (total if total > 1.0 else 1.0)
    if sums[p - 1] < 1.0 - band and (p == n or 1.0 + band < sums[p]):
        return p
    return bisect_left(range(n), True, key=lambda q: math.fsum(caps[: q + 1]) >= 1.0)


def _remainder(full, cap: float) -> float:
    """The boundary worker's fraction: what the ``full`` caps leave of the
    job, at most ``cap``; positive at the boundary that ``_cover`` finds."""
    total = math.fsum(full)
    rest = max(0.0, 1.0 - total)
    # One-ulp fix-up so the fractions sum to exactly one under exact summation.
    # From total >= 0.5 on it has nothing to fix: 1 - total is exact then, and
    # the exact sum of full and rest is 1 plus at most half an ulp of total,
    # which rounds to 1 (or rest is 0 both ways).
    for _ in range(4 if total < 0.5 else 0):
        gap = 1.0 - math.fsum([*full, rest])
        if gap == 0.0:
            break
        rest = max(0.0, rest + gap)
    return min(rest, cap)


def _check_caps(cl: list) -> None:
    """Raise ``ValueError`` unless every cap of the list ``cl`` lies in [0, 1]."""
    # A NaN cap can hide from min and max, but not from the sum.
    if not (0.0 <= min(cl) and max(cl) <= 1.0 and not math.isnan(sum(cl))):
        raise ValueError("caps must lie in [0, 1]")


def _greedy_lists(b, o: list, cl: list) -> tuple[list, int]:
    """The numpy branch of ``sw_greedy`` on lists of Python floats: bids ``b``
    (the array too, as only its two ends are read), their order ``o`` and caps
    ``cl`` in, fractions and ``k_pos`` out.  ``accumulate`` is the sequential
    ``cumsum``."""
    _check_caps(cl)
    if not (math.isfinite(b[o[0]]) and math.isfinite(b[o[-1]])):
        raise ValueError("bids must be finite")
    c_sorted = [cl[w] for w in o]
    k_pos = _cover(c_sorted, list(accumulate(c_sorted)))
    if k_pos == len(cl):
        raise InfeasibleJob(math.fsum(cl))
    rest = _remainder(c_sorted[:k_pos], c_sorted[k_pos])

    x = [0.0] * len(cl)
    for w in o[:k_pos]:
        x[w] = cl[w]
    x[o[k_pos]] = rest
    return x, k_pos
