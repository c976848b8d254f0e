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
``x_k <= 0``).  Its *drop job* d is the first t with ``key < log t``, and
``log`` increases, so ``d <= t`` holds exactly when ``key < log t``.  A sample
that can drop before the horizon is filed in one store kept sorted by key, and
the refresh for job t takes the store's prefix of keys below ``log t``.  It
subtracts those samples from the kept sums in (key, value) order per worker,
which is the order in which a per-worker heap of ``(key, value)`` would pop
them, so the sums are the same floats.  A sample that cannot drop before the
horizon is added to the sum and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import _LIST_MAX, _as_list, true_cap
from .market import Bounds, InvalidConfig, MarketConfig, _check_ids, _worker_index, _write_csv

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
    def defaults(cls, cfg: MarketConfig, **given: float) -> "EstimatorConfig":
        """Valid second-moment bounds for the configured distributions.

        A log-normal with mean m and shape s has raw second moment
        m**2 * exp(s**2); the failure surrogate delta*eta is dominated by
        2 * (beta_max + delta)**2.  A value in ``given`` (``u_rho``, ``u_beta``
        or ``alpha``) is kept, and a bound given there is not computed.
        """
        rho_hi = cfg.rho_bounds[1]
        beta_hi = cfg.beta_bounds[1]
        try:
            if "u_rho" not in given:
                given["u_rho"] = rho_hi * rho_hi * math.exp(cfg.sigma_log * cfg.sigma_log)
            if "u_beta" not in given:
                given["u_beta"] = 2.0 * (beta_hi + cfg.delta) ** 2
        except OverflowError:
            name = "u_beta" if "u_rho" in given else "u_rho"
            raise InvalidConfig(
                f"the default {name} overflows at sigma_log={cfg.sigma_log}, rho_max={rho_hi}, "
                f"beta_max={beta_hi} and delta={cfg.delta}; the config may set {name} instead"
            ) from None
        return cls(**given)

    def validate(self, cfg: MarketConfig) -> "EstimatorConfig":
        rho_hi = cfg.rho_bounds[1]
        beta_hi = cfg.beta_bounds[1]
        factors = (self.u_rho * self.alpha, self.u_beta * self.alpha)  # inf * log(1) is NaN
        if not all(map(math.isfinite, (self.u_rho, self.u_beta, self.alpha, *factors))):
            raise InvalidConfig(f"estimator values and each u * alpha must be finite, got {self}")
        if self.alpha < 2:
            raise InvalidConfig(f"alpha must be >= 2, got {self.alpha}")
        if self.u_rho < rho_hi * rho_hi:
            raise InvalidConfig(
                f"u_rho={self.u_rho} is below rho_max**2={rho_hi * rho_hi}; "
                "not a valid second-moment bound"
            )
        min_u_beta = (beta_hi + cfg.delta) * (beta_hi + cfg.delta)  # inf on overflow
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


_RHO, _BETA = 0, 1  # rows of the stacked per-parameter state


class WorkerStats:
    """Learning state of all ``n`` workers as one set of arrays (or lists).

    Each method is one call per job for the whole population.  ``workers``
    lists distinct worker ids in ``[0, n)``, or is a ``range`` of them with
    step 1 (a run of ids), and bad ids raise ValueError before anything is
    recorded; ``tau``, ``fractions`` and ``failed`` hold one entry per listed
    worker.  Indices start at their most pessimistic admissible values (upper
    bound for the completion-time UCB, lower bounds elsewhere), are refreshed
    from the truncated means once samples arrive, and are always clamped to
    the configured parameter bounds.  The caps read only ``rho_hat_plus`` and
    ``beta_hat_minus``, so only those two are refreshed eagerly;
    ``rho_hat_minus`` and ``beta_hat_plus`` are computed when read, from the
    centres and radii of the last refresh, which both forms keep in
    ``_center`` and ``_radius``.  The failure row's radius is kept negated,
    so both eager indices are ``center + radius`` (``c + (-r)`` is the float
    ``c - r``).  Jobs are refreshed in non-decreasing order, up to
    ``horizon``.

    The two parameters share 2 x n arrays, row 0 for completion times and row
    1 for failure surrogates, so a refresh is a handful of array operations
    for both, each on full 2 x n operands (``_scale``, ``_signed4`` (4 and
    -4), ``_lo`` and ``_hi`` are built once), which broadcast no column.
    ``_add`` updates a range's counts and kept sums in place through views,
    an id array's through gathers and scatters, by the same rule.
    ``_kept`` sums the samples still inside the truncation.  A sample that
    drops out before the horizon also waits in a store of three 1-D arrays
    sorted by key: ``_keys``, ``_slots`` (its flat position
    ``row * n + worker`` in the 2 x n state) and ``_values``.  Its drop job
    d satisfies ``d <= t`` exactly when ``key < log t``, so the refresh for
    job t drops the store's prefix of keys below ``log t``, and
    ``_next_key``, the smallest stored key, tells it in one compare whether
    anything is due.  ``_unseen`` is inf (-inf in the failure row) for a
    worker without samples and 0 otherwise, so the refresh needs no masks:
    such a worker gets centre 0 and an infinite radius, which the clamp
    maps to the initialization value.
    ``record_jct_sample`` keeps the bytes of the last fractions it accepted
    and checks them again only when they change, so a repeating plan's
    fractions are checked once; the bytes, not the array object, are the
    key, as a caller may write into an array it handed over.

    For up to ``_LIST_MAX`` workers the same state is held in Python lists,
    and each method is a scalar loop that applies the array operations in the
    same order (``math.sqrt`` for ``np.sqrt``, in-order subtraction for
    ``np.subtract.at``), so both forms hold the same floats; the store is the
    same arrays in both.  ``record_window`` is one loop over the listed
    workers in both forms, ``_eta`` a list in both, and the streaks it
    closes go to ``_add_lists`` in both: at n = 400 a job step passes it
    about one observed window per call, so an array branch would only cost;
    ``_add`` takes only completion samples.  The readers (``eta``, ``N_it``,
    ``rho_hat_plus`` and the rest) return fresh arrays in both forms, which
    later calls leave alone; ``pessimistic_cap`` returns a list in the list
    form.
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
        self.delta = delta
        self.horizon = horizon
        self._u = (est.u_rho, est.u_beta)
        self._alpha = est.alpha
        self._bounds = np.array([rho_bounds, beta_bounds], dtype=float)  # (lo, hi) rows
        # The array refresh's operands at full 2 x n size, one row per
        # parameter: u * alpha, the radius' signed factor and the clamp's
        # lower and upper bounds.
        operands = np.empty((4, 2, n))
        operands[0] = [[u * est.alpha] for u in self._u]
        operands[1] = [[4.0], [-4.0]]  # the failure row's radius is kept negated
        operands[2:] = self._bounds.T[:, :, None]
        self._scale, self._signed4, self._lo, self._hi = operands
        unseen = np.repeat([[math.inf], [-math.inf]], n, axis=1)
        initial = np.array([np.full(n, rho_bounds[1]), np.full(n, beta_bounds[0])])
        self._lists = n <= _LIST_MAX
        state = {
            "_eager": initial,  # rho_hat_plus and beta_hat_minus
            "_count": np.zeros((2, n)),
            "_kept": np.zeros((2, n)),
            "_unseen": unseen,
        }
        for name, value in state.items():
            setattr(self, name, value.tolist() if self._lists else value)
        # The centres and radii of the last refresh, read by the lazy indices;
        # the array refresh writes them into one buffer, with max(count, 1).
        self._buffer = np.array([np.zeros((2, n)), unseen, np.ones((2, n))])
        self._center, self._radius = self._buffer[:2].tolist() if self._lists else self._buffer[:2]
        self._n = n
        self._ids = np.arange(n)  # the array form's view of a range of ids
        self._eta = [0] * n  # each worker's streak of clean windows, a list in both forms
        self._log_horizon = math.log(horizon) if horizon > 1 else 0.0
        self._keys, self._slots, self._values = np.empty(0), np.empty(0, np.intp), np.empty(0)
        self._next_key = math.inf  # the smallest key in the store
        self._checked = None  # the bytes of the last fractions the array form accepted
        self._refreshed = 0  # last refreshed job

    @property
    def eta(self) -> np.ndarray:
        return np.array(self._eta)

    @property
    def N_it(self) -> np.ndarray:
        return np.asarray(self._count[_RHO]).astype(np.int64)

    @property
    def N_beta_it(self) -> np.ndarray:
        return np.asarray(self._count[_BETA]).astype(np.int64)

    @property
    def rho_hat_plus(self) -> np.ndarray:
        return np.array(self._eager[_RHO])

    @property
    def beta_hat_minus(self) -> np.ndarray:
        return np.array(self._eager[_BETA])

    @property
    def rho_hat_minus(self) -> np.ndarray:
        lo, hi = self._bounds[_RHO]
        return np.minimum(np.maximum(np.subtract(self._center[_RHO], self._radius[_RHO]), lo), hi)

    @property
    def beta_hat_plus(self) -> np.ndarray:
        lo, hi = self._bounds[_BETA]
        return np.minimum(np.maximum(np.subtract(self._center[_BETA], self._radius[_BETA]), lo), hi)

    def _add(self, index, ids: np.ndarray, x: np.ndarray) -> None:
        """Record completion sample ``x[k]`` for worker ``ids[k]``; ``index``
        is the listed workers' index into the state, a slice for a run of ids
        (see ``market._worker_index``)."""
        row = _RHO
        counts, kept = self._count[row], self._kept[row]
        count, k = counts[index], kept[index]  # views for a slice
        count += 1.0
        k += x
        if type(index) is not slice:  # an id array's are gathers
            counts[index], kept[index] = count, k
        c_min, x_max = float(count.min()), float(x.max())
        if c_min == 1.0:  # some worker's first sample
            self._unseen[row, ids[count == 1.0]] = 0.0
        # Rounding is monotone, so no key is below the one built from the
        # smallest count and the largest value: most jobs file nothing.
        u, alpha, log_horizon = self._u[row], self._alpha, self._log_horizon
        if x_max * x_max <= 0 or u * c_min / (alpha * x_max * x_max) >= log_horizon:
            return
        # As on Python floats, a key overflows to inf, and so does a sample's
        # whose square is 0 (it is 0, or its square underflows): it never drops.
        with np.errstate(divide="ignore", over="ignore"):
            keys = u * count / (alpha * x * x)
        early = keys < log_horizon
        if np.count_nonzero(early):
            self._file(keys[early], ids[early] + row * self._n, x[early])

    def _add_lists(self, row: int, workers: list, x: list) -> None:
        """``_add`` one sample at a time, for parameter ``row``, on either
        form; ``float`` keeps an array count a Python float, whose key
        overflows to inf silently."""
        counts, kept = self._count[row], self._kept[row]
        unseen, early = self._unseen[row], []
        u, alpha, log_horizon = self._u[row], self._alpha, self._log_horizon
        for w, v in zip(workers, x):
            count = float(counts[w]) + 1.0
            counts[w] = count
            kept[w] += v
            if count == 1.0:  # the worker's first sample
                unseen[w] = 0.0
            if v * v > 0:  # a sample >= 0 whose square is 0 has key inf
                key = u * count / (alpha * v * v)
                if key < log_horizon:
                    early.append((key, row * self._n + w, v))
        if early:
            self._file(*zip(*early))

    def _file(self, keys, slots, values) -> None:
        """Merge samples that drop before the horizon into the key-sorted store.
        The stable sort keeps a worker's tied keys in filing order, which is
        value order: a batch files one sample per worker and row, and a key
        equal to an earlier one of the worker has a larger count and value."""
        keys = np.concatenate((self._keys, keys))
        order = keys.argsort(kind="stable")
        self._keys = keys[order]
        self._slots = np.concatenate((self._slots, slots))[order]
        self._values = np.concatenate((self._values, values))[order]
        self._next_key = float(self._keys[0])

    def _drop(self, log_t: float) -> None:
        """Subtract the stored samples with keys below ``log_t`` from the kept
        sums in store order, each worker's (key, value) order (see ``_file``):
        a per-worker heap's pop order.  A key equal to ``log t`` is kept at t
        and dropped at t + 1."""
        keys, slots, values = self._keys, self._slots, self._values
        cut = keys.searchsorted(log_t)  # the first key >= log_t
        if self._lists:
            n, kept = self._n, self._kept
            for slot, v in zip(slots[:cut].tolist(), values[:cut].tolist()):
                kept[slot // n][slot % n] -= v
        else:
            np.subtract.at(self._kept.reshape(-1), slots[:cut], values[:cut])
        self._keys, self._slots, self._values = keys[cut:], slots[cut:], values[cut:]
        self._next_key = float(keys[cut]) if cut < keys.size else math.inf

    def record_jct_sample(self, workers, tau, fractions) -> "WorkerStats":
        """Record one completion observation per listed worker; the sample
        value is tau/fraction, and every tau and fraction must be positive.
        ``workers`` may be a ``range`` of ids with step 1, whose state the
        array form updates in place through views.  The array form checks
        the fractions only when their bytes differ from the last accepted
        ones, and every tau on every call."""
        if self._lists:
            workers, tau, fractions = _as_list(workers), _as_list(tau), _as_list(fractions)
            _check_lengths(workers, tau, fractions)
            n, last = self._n, -1
            if type(workers) is range:
                _check_ids(workers, n)
            for w, a, b in zip(workers, tau, fractions):
                if not (last < w < n and type(w) is int):
                    _check_ids(workers, n)
                if not a > 0 < b:  # also rejects NaN
                    raise ValueError("tau and fraction must be positive")
                last = w
            self._add_lists(_RHO, workers, [a / b for a, b in zip(tau, fractions)])
            return self
        index, ids = _worker_index(workers, self._ids)
        tau = np.asarray(tau, dtype=float)
        fractions = np.asarray(fractions, dtype=float)
        _check_lengths(ids, tau, fractions)
        if ids.size:
            key = fractions.tobytes()  # a repeating plan's fractions are checked once
            if key != self._checked:
                if not fractions.min() > 0:  # also rejects NaN
                    raise ValueError("tau and fraction must be positive")
                self._checked = key
            if not tau.min() > 0:
                raise ValueError("tau and fraction must be positive")
            self._add(index, ids, tau / fractions)
        return self

    def record_window(self, workers, failed) -> "WorkerStats":
        """Advance the failure-window process of each listed worker by one
        observed window.

        A failure closes the current streak: the sample ``delta * eta`` is
        recorded and the streak resets.  A clean window just extends the
        streak.  Unobserved windows (work shorter than delta) must not be
        reported here at all.  One loop over the listed workers serves both
        forms, handing the closed streaks to ``_add_lists``: a job step
        observes about one window per call, even at n = 400.
        """
        workers, failed = _as_list(workers), _as_list(failed)
        _check_lengths(workers, failed)
        eta, n, last, closed = self._eta, self._n, -1, []
        if type(workers) is range:
            _check_ids(workers, n)
        for w, f in zip(workers, failed):
            if not (last < w < n and type(w) is int):
                _check_ids(workers, n)
            if f:
                closed.append(w)
            last = w
        if closed:
            self._add_lists(_BETA, closed, [self.delta * eta[w] for w in closed])
        for w in workers:
            eta[w] += 1
        for w in closed:
            eta[w] = 0
        return self

    def refresh_indices(self, t: int) -> "WorkerStats":
        """Recompute the indices for job ``t``; a side without samples keeps
        its initialization values."""
        if not self._refreshed <= t <= self.horizon or t < 1:
            raise ValueError(
                f"job index must lie in [max(1, last refreshed {self._refreshed}), "
                f"{self.horizon}], got {t}"
            )
        self._refreshed, log_t = t, math.log(t)
        if self._next_key < log_t:
            self._drop(log_t)
        if self._lists:
            self._refresh_lists(log_t)
            return self
        center, radius, denom = self._buffer
        np.maximum(self._count, 1.0, out=denom)
        np.divide(self._kept, denom, out=center)
        with np.errstate(over="ignore"):  # u * alpha * log t may be inf; the clamp bounds it
            np.multiply(self._scale, log_t, out=radius)
        np.divide(radius, denom, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(self._signed4, radius, out=radius)
        np.add(radius, self._unseen, out=radius)
        eager = self._eager
        np.add(center, radius, out=eager)
        np.maximum(eager, self._lo, out=eager)
        np.minimum(eager, self._hi, out=eager)
        return self

    def _refresh_lists(self, log_t: float) -> None:
        """The array refresh on the list form, one entry at a time, into new
        lists of indices, centres and (signed) radii."""
        sqrt = math.sqrt
        self._eager, self._center, self._radius = [], [], []
        for row, factor, (lo, hi) in zip((_RHO, _BETA), (4.0, -4.0), self._bounds.tolist()):
            scale = self._u[row] * self._alpha * log_t
            eager, centers, radii = [], [], []
            for count, kept, unseen in zip(self._count[row], self._kept[row], self._unseen[row]):
                if unseen:  # centre 0 and an infinite (signed) radius, as in the array refresh
                    center, radius = 0.0, unseen
                else:
                    denom = count if count > 1.0 else 1.0
                    center, radius = kept / denom, factor * sqrt(scale / denom)
                centers.append(center)
                radii.append(radius)
                index = center + radius
                # the array clamp, a NaN index included
                eager.append(lo if index < lo else hi if index > hi else index)
            self._eager.append(eager)
            self._center.append(centers)
            self._radius.append(radii)

    def pessimistic_cap(self, D: float, epsilon: float):
        """Largest job fraction allocatable under the pessimistic indices, per
        worker: a list in the list form, an array otherwise."""
        return true_cap(self._eager[_RHO], self._eager[_BETA], D, epsilon)


def _check_lengths(workers, *values) -> None:
    for v in values:
        if len(v) != len(workers):
            raise ValueError("need one entry per listed worker")


def stats_to_csv(stats: WorkerStats, path: str | Path) -> None:
    """Snapshot estimator state to CSV (one row per worker)."""
    names = "N_it rho_hat_plus rho_hat_minus N_beta_it beta_hat_minus eta"
    columns = {name: getattr(stats, name) for name in names.split()}
    _write_csv(path, {"id": range(len(stats.eta)), **columns})
