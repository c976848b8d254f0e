"""Per-worker learning state: truncated-mean estimates and confidence indices.

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
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from pathlib import Path

from .market import Bounds, InvalidConfig, MarketConfig

__all__ = [
    "EstimatorConfig",
    "WorkerStats",
    "truncated_mean",
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


class _TruncatedMeanTracker:
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
        drop_key = math.inf if x <= 0 else self.u * self.count / (self.alpha * x * x)
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

    Indices start at their most pessimistic admissible values (upper bound for
    the completion-time UCB, lower bounds elsewhere) and are refreshed from the
    truncated means once samples arrive; they are always clamped to the
    configured parameter bounds.
    """

    __slots__ = (
        "rho_bounds",
        "beta_bounds",
        "eta",
        "rho_hat",
        "rho_hat_plus",
        "rho_hat_minus",
        "beta_hat",
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
        self.rho_hat = rho_bounds[1]
        self.rho_hat_plus = rho_bounds[1]
        self.rho_hat_minus = rho_bounds[0]
        self.beta_hat = beta_bounds[0]
        self.beta_hat_plus = beta_bounds[1]
        self.beta_hat_minus = beta_bounds[0]
        self._jct = _TruncatedMeanTracker(est.u_rho, est.alpha)
        self._beta = _TruncatedMeanTracker(est.u_beta, est.alpha)
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
        x = tau / fraction
        self._jct.add(x)
        n = self._jct.count
        self.rho_hat = x if n == 1 else self.rho_hat + (x - self.rho_hat) / n
        return self

    def record_window(self, failed: bool) -> "WorkerStats":
        """Advance the failure-window process after one observed window.

        A failure closes the current streak: the sample ``delta * eta`` is
        recorded and the streak resets.  A clean window just extends the
        streak.  Unobserved windows (work shorter than delta) must not be
        reported here at all.
        """
        if failed:
            x = self._delta * self.eta
            self._beta.add(x)
            n = self._beta.count
            self.beta_hat = x if n == 1 else self.beta_hat + (x - self.beta_hat) / n
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


def stats_to_csv(stats_list: list[WorkerStats], path: str | Path) -> None:
    """Snapshot estimator state to CSV (one row per worker)."""
    path = Path(path)
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
        for wid, s in enumerate(stats_list):
            writer.writerow(
                [
                    wid,
                    s.N_it,
                    repr(s.rho_hat),
                    repr(s.rho_hat_plus),
                    repr(s.rho_hat_minus),
                    s.N_beta_it,
                    repr(s.beta_hat),
                    repr(s.beta_hat_minus),
                    s.eta,
                ]
            )
