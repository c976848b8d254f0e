"""Scalar reference implementations that the vectorized library code is checked against.

``truncated_mean`` applies the truncation rule directly to a list of samples,
and ``TruncatedMeanTracker`` applies it incrementally.  ``WorkerStats`` keeps one worker's learning state with a heap of drop keys,
one call per worker and sample, exactly as the estimator worked before its
state became one struct-of-arrays bank; the bank must reproduce its counts,
kept sums, indices and caps bit for bit.  ``BlockSampler`` serves each
worker's outcomes one scalar draw at a time by the k-th-activation rule that
``crowdmarket.sample_outcome`` implements with pre-drawn blocks, and
``sample_population`` draws the population with three scalar draws per
worker, the values ``crowdmarket.sample_population`` computes from one draw
of standard uniforms.
``delta_separation`` reads the slack an allocation leaves on its boundary
worker, and ``knot_grid`` lists bids at which a worker reaches every bid
order open to it.  ``literal_sweep`` is a deviation sweep built from
``utility_at_bid``, one public ``sw_greedy`` and ``job_payments`` call per bid,
which ``crowdmarket.deviation_sweep`` must match bit for bit.
``trace_to_csv`` writes a trace row by row through ``csv.writer``,
and ``write_csv`` any columns, the literal rules for the library's columnar writer.  ``run_literal`` runs
the paper's job loop from these scalar parts, recomputing every job with no
cache, as the reference for a whole ``crowdmarket.Simulator`` run.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque

import numpy as np

from crowdmarket import (
    EstimatorConfig,
    FrozenInstance,
    InfeasibleJob,
    WorkerProfile,
    deviation_grid,
    jct_location,
    job_payments,
    market,
    outcome_streams,
    sw_greedy,
)
from crowdmarket.market import BLOCK, Bounds


def truncated_mean(
    samples,
    u: float,
    t: int,
    alpha: float,
    prior: float = 0.0,
) -> float:
    """Truncated empirical mean over ``samples`` in arrival order.

    Sample ``x_k`` (1-based index k) contributes only while
    ``x_k <= sqrt(u * k / log(t**alpha))``; the divisor is always the full
    sample count.  With no samples the ``prior`` is returned; at ``t = 1`` the
    threshold is infinite, so nothing is truncated.
    """
    s = len(samples)
    if s == 0:
        return prior
    if t < 1:
        raise ValueError(f"job index must be >= 1, got {t}")
    log_term = alpha * math.log(t)
    total = 0.0
    for k, x in enumerate(samples, start=1):
        if log_term <= 0 or x * x * log_term <= u * k:
            total += x
    return total / s


def delta_separation(alloc, caps) -> float:
    """Slack left on the most expensive active worker of the given allocation."""
    k = alloc.bid_order[alloc.k_pos]
    return max(0.0, float(caps[k]) - float(alloc.fractions[k]))


def knot_grid(instance, i):
    """The cost bounds, every bid (the crossing points) and the midpoints
    between consecutive ones: between knots the bid order is fixed, so this
    grid reaches every bid order worker ``i`` can reach, most of them twice."""
    lo, hi = instance.cost_bounds
    others = np.delete(instance.costs, i)
    knots = np.concatenate([[lo, hi], others, [instance.costs[i]]])
    knots = np.unique(np.clip(knots, lo, hi))
    mids = 0.5 * (knots[:-1] + knots[1:])
    return np.unique(np.concatenate([knots, mids]))


def utility_at_bid(instance: FrozenInstance, i: int, bid: float) -> float:
    """Worker ``i``'s utility at ``bid``, the others bidding their costs:
    the public ``sw_greedy`` and ``job_payments``, at ``c_bar`` the upper
    cost bound."""
    bids = instance.costs.copy()
    bids[i] = bid
    alloc = sw_greedy(bids, instance.caps)
    rec = job_payments(
        alloc, instance.caps, bids, instance.cost_bounds[1], true_costs=instance.costs
    )
    return float(rec.utilities[i])


def literal_sweep(instance: FrozenInstance, i: int, grid=None) -> float:
    """The best gain of worker ``i`` over ``grid`` (by default the rank grid
    of ``deviation_grid``, whose first bid is truthful) against its truthful
    utility, one ``utility_at_bid`` per bid."""
    bids = deviation_grid(instance, i) if grid is None else grid
    u = [utility_at_bid(instance, i, float(b)) for b in bids]
    truthful = u[0] if grid is None else utility_at_bid(instance, i, float(instance.costs[i]))
    return max(u) - truthful


class TruncatedMeanTracker:
    """Incremental truncated mean.

    Inclusion of a fixed sample is monotone in t: ``x_k`` stays in while
    ``log t <= u * k / (alpha * x_k**2)``, so each sample gets a drop key and
    a heap evicts expired samples lazily.  Equivalent to
    :func:`truncated_mean` up to floating-point boundary ties.
    """

    __slots__ = ("u", "alpha", "count", "_kept_sum", "_heap", "_samples")

    def __init__(self, u: float, alpha: float) -> None:
        self.u = u
        self.alpha = alpha
        self.count = 0
        self._kept_sum = 0.0
        self._heap: list[tuple[float, float]] = []
        self._samples: list[float] = []

    def add(self, x: float) -> None:
        self.count += 1
        self._samples.append(x)
        # A sample >= 0 whose square is 0 (x = 0, or x*x underflows) never drops.
        drop_key = math.inf if x * x <= 0 else self.u * self.count / (self.alpha * x * x)
        self._kept_sum += x
        heapq.heappush(self._heap, (drop_key, x))

    def mean(self, t: int) -> float:
        """Truncated mean at job ``t``; needs at least one sample."""
        log_t = math.log(t) if t > 1 else 0.0
        while self._heap and self._heap[0][0] < log_t:
            _, x = heapq.heappop(self._heap)
            self._kept_sum -= x
        return self._kept_sum / self.count

    @property
    def samples(self) -> list[float]:
        return list(self._samples)


class WorkerStats:
    """Learning state of one worker: samples, window counter, indices.

    The scalar transcription of the rules that ``crowdmarket.WorkerStats``
    applies to all workers at once.

    Indices start at their most pessimistic admissible values (upper bound for
    the completion-time UCB, lower bounds elsewhere) and are refreshed from the
    truncated means once samples arrive; they are always clamped to the
    configured parameter bounds.
    """

    __slots__ = (
        "rho_bounds",
        "beta_bounds",
        "eta",
        "rho_hat_plus",
        "rho_hat_minus",
        "beta_hat_plus",
        "beta_hat_minus",
        "_jct",
        "_beta",
        "_delta",
    )

    def __init__(
        self, est: EstimatorConfig, rho_bounds: Bounds, beta_bounds: Bounds, delta: float
    ) -> None:
        self.rho_bounds = rho_bounds
        self.beta_bounds = beta_bounds
        self.eta = 0
        self.rho_hat_plus = rho_bounds[1]
        self.rho_hat_minus = rho_bounds[0]
        self.beta_hat_plus = beta_bounds[1]
        self.beta_hat_minus = beta_bounds[0]
        self._jct = TruncatedMeanTracker(est.u_rho, est.alpha)
        self._beta = TruncatedMeanTracker(est.u_beta, est.alpha)
        self._delta = delta

    @property
    def N_it(self) -> int:
        return self._jct.count

    @property
    def N_beta_it(self) -> int:
        return self._beta.count

    @property
    def jct_samples(self) -> list[float]:
        return self._jct.samples

    @property
    def beta_samples(self) -> list[float]:
        return self._beta.samples

    def record_jct_sample(self, tau: float, fraction: float) -> "WorkerStats":
        """Record one completion observation; the sample value is tau/fraction."""
        if fraction <= 0 or tau <= 0:
            raise ValueError("tau and fraction must be positive")
        self._jct.add(tau / fraction)
        return self

    def record_window(self, failed: bool) -> "WorkerStats":
        """Advance the failure-window process after one observed window.

        A failure closes the current streak: the sample ``delta * eta`` is
        recorded and the streak resets.  A clean window just extends the
        streak.  Unobserved windows (work shorter than delta) must not be
        reported here at all.
        """
        if failed:
            self._beta.add(self._delta * self.eta)
            self.eta = 0
        else:
            self.eta += 1
        return self

    def refresh_indices(self, t: int, est: EstimatorConfig) -> "WorkerStats":
        """Recompute UCB/LCB indices for job ``t``; no-sample sides keep their
        initialization values."""
        if t < 1:
            raise ValueError(f"job index must be >= 1, got {t}")
        r_lo, r_hi = self.rho_bounds
        b_lo, b_hi = self.beta_bounds
        log_t = math.log(t)
        if self._jct.count > 0:
            center = self._jct.mean(t)
            radius = 4.0 * math.sqrt(est.u_rho * est.alpha * log_t / self._jct.count)
            self.rho_hat_plus = min(max(center + radius, r_lo), r_hi)
            self.rho_hat_minus = min(max(center - radius, r_lo), r_hi)
        if self._beta.count > 0:
            center = self._beta.mean(t)
            radius = 4.0 * math.sqrt(est.u_beta * est.alpha * log_t / self._beta.count)
            self.beta_hat_plus = min(max(center + radius, b_lo), b_hi)
            self.beta_hat_minus = min(max(center - radius, b_lo), b_hi)
        return self

    def pessimistic_cap(self, D: float, epsilon: float) -> float:
        """Largest job fraction allocatable under the pessimistic indices."""
        budget = min(D, self.beta_hat_minus * -math.log1p(-epsilon))
        return min(1.0, budget / self.rho_hat_plus)


def trace_to_csv(trace, path) -> None:
    """Write a trace's per-job series to CSV one row at a time, in the
    library's format."""
    neg_w = trace.neg_welfare_cum
    pay = trace.payment_cum
    oracle = trace.oracle_cost_cum
    ravg = trace.regret_avg
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "t",
                "neg_social_welfare_cum",
                "payment_cum",
                "oracle_cost_cum",
                "active_set_size",
                "optimal_set_match",
                "regret_avg",
            ]
        )
        for ti in range(len(trace)):
            writer.writerow(
                [
                    ti + 1,
                    repr(float(neg_w[ti])),
                    repr(float(pay[ti])),
                    repr(float(oracle[ti])),
                    int(trace.active_size[ti]),
                    int(trace.match[ti]),
                    repr(float(ravg[ti])),
                ]
            )


def write_csv(columns: dict, path) -> None:
    """Write header name to column (an array, list or range) as CSV one row
    at a time through ``csv.writer``, each array entry as its Python scalar:
    the literal rule for the library's columnar writer."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns.values()]
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in zip(*lists):
            writer.writerow(row)


def stats_to_csv(stats_list: list[WorkerStats], path) -> None:
    """Snapshot one scalar state per worker to CSV, in the library's format."""
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "id",
                "N_it",
                "rho_hat_plus",
                "rho_hat_minus",
                "N_beta_it",
                "beta_hat_minus",
                "eta",
            ]
        )
        for wid, s in enumerate(stats_list):
            writer.writerow(
                [
                    wid,
                    s.N_it,
                    repr(s.rho_hat_plus),
                    repr(s.rho_hat_minus),
                    s.N_beta_it,
                    repr(s.beta_hat_minus),
                    s.eta,
                ]
            )


class BlockSampler:
    """Worker outcomes by the k-th-activation rule, one scalar draw at a time.

    Worker ``i``'s ``k``-th outcome is element ``k mod BLOCK`` of its
    ``k // BLOCK``-th block, and a block is ``BLOCK`` single log-normal draws
    followed by ``BLOCK`` single exponential draws from ``streams[i]``.
    """

    def __init__(self, streams, location, mttf, *, sigma_log: float, delta: float) -> None:
        self.streams = streams
        self.location = location
        self.mttf = mttf
        self.sigma_log = sigma_log
        self.delta = delta
        self._pending = [deque() for _ in streams]  # (jct, ttf) left in each block

    def outcome(self, i: int, fraction: float) -> tuple[float, int]:
        """Worker ``i``'s next completion time at ``fraction`` and its window
        code (-1 unobserved, 1 failed, 0 clean)."""
        pending = self._pending[i]
        if not pending:
            rng = self.streams[i]
            jct = [rng.lognormal(self.location[i], self.sigma_log) for _ in range(BLOCK)]
            ttf = [rng.exponential(self.mttf[i]) for _ in range(BLOCK)]
            pending.extend(zip(jct, ttf))
        jct, ttf = pending.popleft()
        tau = fraction * jct
        if tau < self.delta:
            return tau, -1
        return tau, int(ttf < self.delta)


def sample_population(cfg, recipe) -> list[WorkerProfile]:
    """The population of a valid ``cfg`` and ``recipe``: worker by worker,
    one scalar uniform draw each for cost, mjct and mttf, in that order, from
    the population stream."""
    rng = market.population_streams(cfg)
    workers = []
    for g in recipe.groups:
        for _ in range(g.count):
            cost = float(rng.uniform(*g.cost_range))
            mjct = float(rng.uniform(*g.rho_range))
            mttf = float(rng.uniform(*g.beta_range))
            workers.append(WorkerProfile(id=len(workers), cost=cost, mjct=mjct, mttf=mttf))
    return workers


SERIES = ("infeasible", "cost", "payment", "active_size", "utility_min", "match")


def run_literal(cfg, recipe, est: EstimatorConfig, mode: str) -> dict:
    """One whole run by the paper's job loop, with no cache.

    The population comes from this module's :func:`sample_population`.
    Each job refreshes one scalar :class:`WorkerStats` per worker (learning
    mode) and takes its caps, or takes the true caps (known-means mode);
    calls ``sw_greedy`` and ``job_payments`` afresh on plain arrays; and, in
    learning mode, draws each active worker's outcome from a
    :class:`BlockSampler` and records it.  A row's cost and payment total
    are the ``math.fsum`` of their per-worker terms.  Returns the trace's
    six per-job ``SERIES`` as lists, the run's ``true_caps``, the final
    scalar ``stats``, and per job, one entry per worker: its ``caps``; its
    ``fractions``, ``payments`` and ``utilities`` (zeros for an infeasible
    job); its ``completion`` times and ``window`` codes (NaN and 0 where a
    worker drew no outcome, as every worker does in known-means mode); and
    ``covered``, whether each worker's indices cover its true means.
    """
    workers = sample_population(cfg, recipe)
    costs = np.array([w.cost for w in workers])
    budget = -math.log1p(-cfg.epsilon)
    true_caps = [min(1.0, min(cfg.D, w.mttf * budget) / w.mjct) for w in workers]
    oracle_active = set(np.flatnonzero(sw_greedy(costs, true_caps).fractions).tolist())
    stats = [WorkerStats(est, cfg.rho_bounds, cfg.beta_bounds, cfg.delta) for _ in workers]
    sampler = BlockSampler(
        outcome_streams(cfg),
        [jct_location(w.mjct, cfg.sigma_log) for w in workers],
        [w.mttf for w in workers],
        sigma_log=cfg.sigma_log,
        delta=cfg.delta,
    )
    per_job = ("caps", "fractions", "payments", "utilities", "completion", "window", "covered")
    out = {name: [] for name in (*SERIES, *per_job)}
    out["true_caps"], out["stats"] = true_caps, stats
    zeros = [0.0] * cfg.n
    for t in range(1, cfg.T + 1):
        caps = true_caps
        if mode == "learning":
            caps = [s.refresh_indices(t, est).pessimistic_cap(cfg.D, cfg.epsilon) for s in stats]
        out["caps"].append(caps)
        out["covered"].append(
            [s.rho_hat_plus >= w.mjct and s.beta_hat_minus <= w.mttf for s, w in zip(stats, workers)]
        )
        completion, window = [math.nan] * cfg.n, [0] * cfg.n
        try:
            alloc = sw_greedy(costs, caps)
        except InfeasibleJob:
            row = (True, math.nan, math.nan, 0, math.nan, False)
            x = payments = utilities = zeros
        else:
            rec = job_payments(alloc, caps, costs, cfg.cost_bounds[1])
            x, payments = alloc.fractions.tolist(), rec.payments.tolist()
            utilities = rec.utilities.tolist()
            active = [i for i, xi in enumerate(x) if xi]
            row = (
                False,
                math.fsum(c * xi for c, xi in zip(costs.tolist(), x)),
                math.fsum(payments),
                len(active),
                float(rec.utilities.min()),
                set(active) == oracle_active,
            )
            for i in active if mode == "learning" else ():
                tau, code = sampler.outcome(i, x[i])
                completion[i], window[i] = tau, code
                stats[i].record_jct_sample(tau, x[i])
                if code >= 0:
                    stats[i].record_window(code == 1)
        tables = {"fractions": x, "payments": payments, "utilities": utilities,
                  "completion": completion, "window": window}
        for name, value in (*zip(SERIES, row), *tables.items()):
            out[name].append(value)
    return out
