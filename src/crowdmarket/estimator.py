"""Learning state of all workers: truncated-mean estimates and confidence indices.

Both worker parameters are heavy tailed (log-normal completion times,
exponential-driven failure surrogates), so the indices use a truncated
empirical mean: sample ``k`` (in arrival order) only counts at job ``t`` while
``x_k <= sqrt(u * k / log(t**alpha))``, with ``u`` an upper bound on the raw
second moment.  The confidence radius is ``4 * sqrt(u * alpha * log(t) / s)``.

Mean-time-to-failure samples cannot be observed directly; they are built from
the window process: each allocated job opens an observation window of length
``delta``, and when a failure lands inside a window the value
``delta * eta`` is recorded, where ``eta`` counts the preceding consecutive
no-failure windows.  ``surrogate_expectation`` gives the closed-form mean of
waiting times for this process.

:class:`WorkerStats` holds this state for the whole population as one set of
arrays, so each of its methods is one call per job.  Truncation needs no
per-sample history, because inclusion is monotone in t: sample ``x_k`` stays
in while ``log t <= key = u * k / (alpha * x_k**2)`` (``key = inf`` for
``x_k <= 0``).  Its *drop job*, the first t with ``key < log t``, is therefore
fixed when it arrives; it is looked up in a table of ``math.log(t)`` that grows
by doubling up to the run's horizon, and the sample is filed in that job's
bucket.  The refresh that reaches a bucket subtracts its samples from the kept
sums in (key, value) order, which is the order in which a per-worker heap of
``(key, value)`` would pop them, so the sums are the same floats.  A sample
that cannot drop before the horizon is added to the sum and never stored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import _LIST_MAX, true_cap
from .market import Bounds, InvalidConfig, MarketConfig

__all__ = [
    "EstimatorConfig",
    "WorkerStats",
    "surrogate_expectation",
    "stats_to_csv",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Second-moment bounds and confidence exponent for the index computation."""

    u_rho: float
    u_beta: float
    alpha: float = 4.0

    @classmethod
    def defaults(cls, cfg: MarketConfig, alpha: float = 4.0) -> "EstimatorConfig":
        """Valid second-moment bounds for the configured distributions.

        A log-normal with mean m and shape s has raw second moment
        m**2 * exp(s**2); the failure surrogate delta*eta is dominated by
        2 * (beta_max + delta)**2.
        """
        rho_hi = cfg.rho_bounds[1]
        beta_hi = cfg.beta_bounds[1]
        return cls(
            u_rho=rho_hi * rho_hi * math.exp(cfg.sigma_log * cfg.sigma_log),
            u_beta=2.0 * (beta_hi + cfg.delta) ** 2,
            alpha=alpha,
        )

    def validate(self, cfg: MarketConfig) -> "EstimatorConfig":
        rho_hi = cfg.rho_bounds[1]
        beta_hi = cfg.beta_bounds[1]
        if not all(map(math.isfinite, (self.u_rho, self.u_beta, self.alpha))):
            raise InvalidConfig(f"estimator values must be finite, got {self}")
        if self.alpha < 2:
            raise InvalidConfig(f"alpha must be >= 2, got {self.alpha}")
        if self.u_rho < rho_hi * rho_hi:
            raise InvalidConfig(
                f"u_rho={self.u_rho} is below rho_max**2={rho_hi * rho_hi}; "
                "not a valid second-moment bound"
            )
        min_u_beta = (beta_hi + cfg.delta) ** 2
        if self.u_beta < min_u_beta:
            raise InvalidConfig(
                f"u_beta={self.u_beta} is below (beta_max + delta)**2={min_u_beta}"
            )
        return self


def surrogate_expectation(beta: float, delta: float) -> float:
    """Expected window count times delta: ``delta / (1 - exp(-delta / beta))``.

    This is the mean waiting time (in window lengths) until the first failing
    window; it converges to ``beta`` as ``delta`` shrinks.  The recorded
    samples exclude the failing window itself, so their mean is this value
    minus ``delta``.
    """
    if beta <= 0 or delta <= 0:
        raise ValueError("beta and delta must be positive")
    return delta / -math.expm1(-delta / beta)


_RHO, _BETA = 0, 1  # rows of the stacked per-parameter arrays


class WorkerStats:
    """Learning state of all ``n`` workers as one set of arrays.

    Each method is one call per job for the whole population.  ``workers``
    lists distinct worker ids; ``tau``, ``fractions`` and ``failed`` hold one
    entry per listed worker.  Indices start at their most pessimistic
    admissible values (upper bound for the completion-time UCB, lower bounds
    elsewhere), are refreshed from the truncated means once samples arrive,
    and are always clamped to the configured parameter bounds.  The caps read
    only ``rho_hat_plus`` and ``beta_hat_minus``, so only those two are
    refreshed eagerly; ``rho_hat_minus`` and ``beta_hat_plus`` are computed
    when read, from the centres and radii of the last refresh.  Jobs are
    refreshed in non-decreasing order, up to ``horizon``.

    The two parameters share 2 x n arrays, row 0 for completion times and
    row 1 for failure surrogates, so a refresh is a handful of array
    operations for both.  ``_kept`` sums the samples still inside the
    truncation; a sample that drops out before the horizon also waits in
    ``_pending`` under its drop job, as ``(row, worker, key, value)``.
    ``_unseen`` is inf for a worker without samples and 0 otherwise, so the
    refresh needs no masks: such a worker gets centre 0 and an infinite
    radius, which the clamp maps to the initialization value.
    """

    def __init__(
        self,
        n: int,
        est: EstimatorConfig,
        rho_bounds: Bounds,
        beta_bounds: Bounds,
        delta: float,
        horizon: int,
    ) -> None:
        self.rho_bounds = rho_bounds
        self.beta_bounds = beta_bounds
        self.delta = delta
        self.horizon = horizon
        self.eta = np.zeros(n, dtype=np.int64)
        self.rho_hat_plus = np.full(n, rho_bounds[1])
        self.beta_hat_minus = np.full(n, beta_bounds[0])
        self._u = (est.u_rho, est.u_beta)
        self._alpha = est.alpha
        self._scale = np.array([[u * est.alpha] for u in self._u])
        # The eager indices are centre + radius for rho and centre - radius for beta.
        self._sign = np.array([[1.0], [-1.0]])
        self._lo = np.array([[rho_bounds[0]], [beta_bounds[0]]])
        self._hi = np.array([[rho_bounds[1]], [beta_bounds[1]]])
        self._count = np.zeros((2, n))
        self._kept = np.zeros((2, n))
        self._mean = np.array([np.full(n, rho_bounds[1]), np.full(n, beta_bounds[0])])
        self._unseen = np.full((2, n), math.inf)
        self._center = np.zeros((2, n))
        self._radius = np.full((2, n), math.inf)
        self._log_horizon = math.log(horizon) if horizon > 1 else 0.0
        self._logs = np.empty(0)  # math.log(t) for t = 1, 2, ..., grown on demand
        self._pending: dict[int, list[tuple[int, int, float, float]]] = {}
        self._refreshed = 0  # last refreshed job

    @property
    def N_it(self) -> np.ndarray:
        return self._count[_RHO].astype(np.int64)

    @property
    def N_beta_it(self) -> np.ndarray:
        return self._count[_BETA].astype(np.int64)

    @property
    def rho_hat(self) -> np.ndarray:
        return self._mean[_RHO]

    @property
    def beta_hat(self) -> np.ndarray:
        return self._mean[_BETA]

    @property
    def rho_hat_minus(self) -> np.ndarray:
        lo, hi = self.rho_bounds
        return np.minimum(np.maximum(self._center[_RHO] - self._radius[_RHO], lo), hi)

    @property
    def beta_hat_plus(self) -> np.ndarray:
        lo, hi = self.beta_bounds
        return np.minimum(np.maximum(self._center[_BETA] + self._radius[_BETA], lo), hi)

    def _add(self, row: int, workers: np.ndarray, x: np.ndarray) -> None:
        """Record sample ``x[k]`` of parameter ``row`` for worker ``workers[k]``."""
        counts, kept, means = self._count[row], self._kept[row], self._mean[row]
        count = counts[workers] + 1.0
        counts[workers] = count
        kept[workers] += x
        mean = means[workers]
        means[workers] = mean + (x - mean) / count
        if count.size <= _LIST_MAX:
            c_min, x_max = min(count.tolist()), max(x.tolist())
        else:
            c_min, x_max = float(count.min()), float(x.max())
        if c_min == 1.0:  # a worker's first sample is its mean
            first = count == 1.0
            means[workers[first]] = x[first]
            self._unseen[row, workers[first]] = 0.0
        # Rounding is monotone, so no key is below the one built from the
        # smallest count and the largest value: most jobs file nothing.
        u, alpha, log_horizon = self._u[row], self._alpha, self._log_horizon
        if x_max <= 0 or u * c_min / (alpha * x_max * x_max) >= log_horizon:
            return
        keep = x > 0  # a sample <= 0 has key inf
        workers, x, count = workers[keep], x[keep], count[keep]
        keys = u * count / (alpha * x * x)
        early = keys < log_horizon
        if not np.count_nonzero(early):
            return
        workers, keys, x = workers[early], keys[early], x[early]
        # A sample already due is filed under the last refreshed job, which the
        # next refresh, even one repeating that job, visits again.
        due = np.maximum(self._drop_jobs(keys), self._refreshed)
        pending = self._pending
        for d, *entry in zip(due.tolist(), workers.tolist(), keys.tolist(), x.tolist()):
            pending.setdefault(d, []).append((row, *entry))

    def _drop_jobs(self, keys: np.ndarray) -> np.ndarray:
        """First job t with ``key < math.log(t)``, for keys below the horizon's
        log: the comparison a check at every job would make, so a key equal to
        ``log t`` is kept at t and dropped at t + 1.  The log table doubles
        until it reaches the largest key."""
        logs, top = self._logs, float(keys.max())
        while logs.size == 0 or logs[-1] <= top:
            size = min(self.horizon, max(64, 2 * logs.size))
            logs = np.concatenate([logs, [math.log(t) for t in range(logs.size + 1, size + 1)]])
        self._logs = logs
        return np.searchsorted(logs, keys, side="right") + 1

    def record_jct_sample(self, workers, tau, fractions) -> "WorkerStats":
        """Record one completion observation per listed worker; the sample
        value is tau/fraction."""
        workers = np.asarray(workers, dtype=np.intp)
        tau = np.asarray(tau, dtype=float)
        fractions = np.asarray(fractions, dtype=float)
        if workers.size:
            if not np.minimum(tau, fractions).min() > 0:  # also rejects NaN
                raise ValueError("tau and fraction must be positive")
            self._add(_RHO, workers, tau / fractions)
        return self

    def record_window(self, workers, failed) -> "WorkerStats":
        """Advance the failure-window process of each listed worker by one
        observed window.

        A failure closes the current streak: the sample ``delta * eta`` is
        recorded and the streak resets.  A clean window just extends the
        streak.  Unobserved windows (work shorter than delta) must not be
        reported here at all.
        """
        workers = np.asarray(workers, dtype=np.intp)
        failed = np.asarray(failed, dtype=bool)
        eta = self.eta
        if np.count_nonzero(failed):
            closed = workers[failed]
            self._add(_BETA, closed, self.delta * eta[closed])
            eta[workers] += 1
            eta[closed] = 0
        else:
            eta[workers] += 1
        return self

    def refresh_indices(self, t: int) -> "WorkerStats":
        """Recompute the indices for job ``t``; a side without samples keeps
        its initialization values."""
        if not self._refreshed <= t <= self.horizon or t < 1:
            raise ValueError(
                f"job index must lie in [max(1, last refreshed {self._refreshed}), "
                f"{self.horizon}], got {t}"
            )
        if self._pending:
            due = []
            for d in range(self._refreshed, t + 1):
                due += self._pending.pop(d, ())
            if due:
                due.sort()  # by row and worker, then (key, value): a heap's pop order
                rows, workers, _, x = zip(*due)
                np.subtract.at(self._kept, (np.array(rows), np.array(workers)), x)
        self._refreshed = t
        denom = np.maximum(self._count, 1.0)
        self._center = center = self._kept / denom
        self._radius = radius = 4.0 * np.sqrt(self._scale * math.log(t) / denom) + self._unseen
        eager = np.minimum(np.maximum(center + self._sign * radius, self._lo), self._hi)
        self.rho_hat_plus, self.beta_hat_minus = eager
        return self

    def pessimistic_cap(self, D: float, epsilon: float) -> np.ndarray:
        """Largest job fraction allocatable under the pessimistic indices, per
        worker."""
        return true_cap(self.rho_hat_plus, self.beta_hat_minus, D, epsilon)


def stats_to_csv(stats: WorkerStats, path: str | Path) -> None:
    """Snapshot estimator state to CSV (one row per worker)."""
    path = Path(path)
    columns = (
        stats.N_it,
        stats.rho_hat,
        stats.rho_hat_plus,
        stats.rho_hat_minus,
        stats.N_beta_it,
        stats.beta_hat,
        stats.beta_hat_minus,
        stats.eta,
    )
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "id",
                "N_it",
                "rho_hat",
                "rho_hat_plus",
                "rho_hat_minus",
                "N_beta_it",
                "beta_hat",
                "beta_hat_minus",
                "eta",
            ]
        )
        # tolist() gives Python ints and floats, whose repr is the old format.
        for wid, row in enumerate(zip(*(c.tolist() for c in columns))):
            writer.writerow([wid, *(v if isinstance(v, int) else repr(v) for v in row)])
