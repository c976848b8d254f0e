"""Online simulation loop: learn, allocate, observe, pay, account.

Each job refreshes every worker's confidence indices, allocates greedily
against the pessimistic caps, samples completion times and failure windows for
the active workers, feeds the observations back into the estimators, and
records payments and welfare as one trace row, which :meth:`Simulator.trace`
stacks into the per-job series.  The learning state of all workers is one
:class:`WorkerStats` bank, and each of these layers is one call per job.
With truthful bids a job's caps and plan (allocation, payments and row) are
determined by its eager indices, so while those repeat the job reuses the
previous job's instead of recomputing them.  A known-means mode pins the caps
to the true parameters and solves its one plan at job 1, which reproduces the
omniscient baseline and serves as the zero-regret reference; it learns
nothing, so it draws no outcomes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .allocation import _LIST_MAX, InfeasibleJob, SortedBids, _as_list, sw_greedy, true_cap
from .estimator import EstimatorConfig, WorkerStats
from .market import (
    MarketConfig,
    OutcomeBlocks,
    PopulationRecipe,
    WorkerProfile,
    _write_csv,
    jct_location,
    outcome_streams,
    sample_outcome,
    sample_population,
    validate_config,
)
from .mechanism import job_payments

__all__ = [
    "SimulationTrace",
    "Simulator",
    "run",
    "regret",
    "optimal_set_match",
    "trace_to_csv",
    "trace_summary",
    "summary_to_json",
]

MODES = ("learning", "known-means")


# One trace row per job: the scalar series, then (with ``record_tables``) the
# per-worker rows that SimulationTrace stacks into its tables.
_SERIES = [
    ("infeasible", bool),
    ("cost", float),
    ("payment", float),
    ("active_size", int),
    ("utility_min", float),
    ("match", bool),
]
_TABLES = [
    ("fraction_table", float),
    ("payment_table", float),
    ("utility_table", float),
    ("completion_table", float),
    ("window_table", np.int8),
]


@dataclass
class SimulationTrace:
    """Per-job series plus cumulative accounting for one simulation run.

    The per-worker tables exist only with ``record_tables=True``; row ``t - 1``
    of each holds job ``t`` in worker order.  A completion row holds each
    active worker's completion time and a window row its window code (1 where
    the failure window saw a failure, -1 where the work was shorter than the
    window, so it went unobserved, and 0 otherwise), with NaN completion and
    window code 0 where a worker got no work (all zeros, NaN completion, for
    an infeasible job).  Known-means mode draws no outcomes, so all its
    completion rows are NaN and its window rows 0.
    """

    cfg: MarketConfig
    est: EstimatorConfig
    mode: str
    workers: list[WorkerProfile]
    oracle_cost: float
    oracle_active: frozenset[int]
    infeasible: np.ndarray
    cost: np.ndarray
    payment: np.ndarray
    active_size: np.ndarray
    match: np.ndarray
    utility_min: np.ndarray
    fraction_table: np.ndarray | None = None
    payment_table: np.ndarray | None = None
    utility_table: np.ndarray | None = None
    completion_table: np.ndarray | None = None
    window_table: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.cost.shape[0])

    @property
    def completed(self) -> int:
        return int((~self.infeasible).sum())

    @property
    def job_index(self) -> np.ndarray:
        return np.arange(1, len(self) + 1)

    @property
    def neg_welfare_cum(self) -> np.ndarray:
        return np.where(self.infeasible, 0.0, self.cost).cumsum()

    @property
    def payment_cum(self) -> np.ndarray:
        return np.where(self.infeasible, 0.0, self.payment).cumsum()

    @property
    def oracle_cost_cum(self) -> np.ndarray:
        return np.where(self.infeasible, 0.0, self.oracle_cost).cumsum()

    @property
    def regret_cum(self) -> np.ndarray:
        """Running sum of each job's cost minus the oracle cost (0 for an
        infeasible job): the one regret series of the trace CSV and summary."""
        return np.where(self.infeasible, 0.0, self.cost - self.oracle_cost).cumsum()

    @property
    def regret_avg(self) -> np.ndarray:
        return self.regret_cum / self.job_index


class Simulator:
    """Owns the learning state and outcome blocks of one run.

    A job's plan (its allocation and payments, or its infeasibility) is
    deterministic in (costs, caps, cost_max), and its caps are deterministic
    in its eager indices.  So in learning mode one key, the eager indices,
    guards the caps and the plan in both forms: a job whose indices equal the
    last job's reuses both.  Known-means mode solves its plan at job 1 and keeps it.

    Up to ``_LIST_MAX`` workers the caps (``true_caps`` too), the reused plan
    and the outcomes are Python lists, as the bank's and the outcome blocks'
    state is, and only the allocation and payment records hold arrays; above,
    everything is an array.  Both forms write the same bytes.
    """

    def __init__(
        self,
        cfg: MarketConfig,
        recipe: PopulationRecipe,
        est_cfg: EstimatorConfig | None = None,
        mode: str = "learning",
        record_tables: bool = True,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.cfg = validate_config(cfg)
        self.est = (est_cfg or EstimatorConfig.defaults(cfg)).validate(cfg)
        self.mode = mode
        self.record_tables = record_tables

        self.workers = sample_population(cfg, recipe)
        self.costs = np.array([w.cost for w in self.workers])
        # Every worker bids its cost, so the bids are sorted once per run.
        self.bids = SortedBids.of(self.costs)
        self._lists = cfg.n <= _LIST_MAX
        form = list if self._lists else np.array
        self.true_caps = true_cap(
            form([w.mjct for w in self.workers]),
            form([w.mttf for w in self.workers]),
            cfg.D,
            cfg.epsilon,
        )
        # Oracle feasibility is a precondition of the whole run.
        self.oracle = sw_greedy(self.bids, self.true_caps)
        self.oracle_cost = float(self.costs @ self.oracle.fractions)
        self.oracle_active = self.oracle.active_set

        self.stats = WorkerStats(
            cfg.n, self.est, cfg.rho_bounds, cfg.beta_bounds, cfg.delta, horizon=cfg.T
        )
        self.outcomes = OutcomeBlocks(
            outcome_streams(cfg),
            [jct_location(w.mjct, cfg.sigma_log) for w in self.workers],
            [w.mttf for w in self.workers],
            sigma_log=cfg.sigma_log,
            delta=cfg.delta,
        )
        # The last job's caps, their key (its eager indices) and the plan they
        # determine, None until computed.  Known-means caps never change.
        self._caps, self._key, self._plan = self.true_caps, None, None
        self._infeasible_row = (True, math.nan, math.nan, 0, math.nan, False)
        self._no_outcomes = ()
        if record_tables:  # a scalar fills its whole table row
            self._no_outcomes = (math.nan, 0)
            self._infeasible_row += (0.0, 0.0, 0.0) + self._no_outcomes
        tables = [(name, dtype, (cfg.n,)) for name, dtype in _TABLES] if record_tables else []
        self._row_dtype = np.dtype(_SERIES + tables)
        self._rows: list[tuple] = []

    def current_caps(self, t: int):
        """Caps used for job ``t``, a list up to ``_LIST_MAX`` workers and a
        read-only array above, the same object while the eager indices repeat;
        refreshes the indices in learning mode.  A change of indices clears
        the plan, the one place that does."""
        if self.mode == "learning":
            stats = self.stats.refresh_indices(t)
            # The list refresh rebinds _eager and never writes into the old
            # lists, so the key can hold them and compare them by value.
            key = stats._eager if self._lists else stats._eager.tobytes()
            if key != self._key:
                caps = stats.pessimistic_cap(self.cfg.D, self.cfg.epsilon)
                if not self._lists:
                    caps.flags.writeable = False  # handed out while the indices repeat
                self._caps, self._key, self._plan = caps, key, None
        return self._caps

    def step(self, t: int) -> None:
        """Run job ``t`` (1-based) and append its row to the trace."""
        cfg = self.cfg
        caps = self.current_caps(t)
        if self._plan is None:
            self._plan = self._solve(caps)
        active, fractions, row = self._plan
        if active is None:  # an infeasible job draws and learns nothing
            self._rows.append(row)
            return

        outcomes = self._no_outcomes
        if self.mode == "learning":
            tau, codes = sample_outcome(self.outcomes, active, fractions)
            self.stats.record_jct_sample(active, tau, fractions)
            if self._lists:
                observed = [i for i, code in zip(active, codes) if code >= 0]
                if observed:  # an observed window's code is its failure flag
                    self.stats.record_window(observed, [code for code in codes if code >= 0])
            else:
                observed = codes >= 0
                if np.count_nonzero(observed):  # at n=400 most jobs observe no window
                    self.stats.record_window(active[observed], codes[observed] > 0)
            if self.record_tables:
                completion = np.full(cfg.n, math.nan)
                completion[active] = tau
                window = np.zeros(cfg.n, dtype=np.int8)
                window[active] = codes
                outcomes = (completion, window)
        self._rows.append(row + outcomes)

    def _solve(self, caps):
        """A job's plan: its active workers (None if it is infeasible), their
        fractions and its trace row."""
        try:
            alloc = sw_greedy(self.bids, caps)
        except InfeasibleJob:
            return None, None, self._infeasible_row
        rec = job_payments(alloc, caps, self.bids, self.cfg.cost_bounds[1])  # truthful bids
        x = alloc.fractions
        if self._lists:
            xs = x.tolist()
            active = [i for i, xi in enumerate(xs) if xi]
            fractions = [xs[i] for i in active]
            # Positive caps and truthful bids make every utility a finite
            # float other than -0.0, so Python's min is numpy's.
            utility_min = min(rec.utilities.tolist())
        else:
            active = x.nonzero()[0]
            fractions = x[active]
            utility_min = float(rec.utilities.min())
        oracle = self.oracle_active  # distinct ids: equal sizes and a superset is equality
        row = (
            False,
            float(self.costs @ x),
            float(rec.payments.sum()),
            len(active),
            utility_min,
            len(active) == len(oracle) and oracle.issuperset(_as_list(active)),
        )
        if self.record_tables:
            row += (x, rec.payments, rec.utilities)
        return active, fractions, row

    def trace(self) -> SimulationTrace:
        rows = np.array(self._rows, dtype=self._row_dtype)
        return SimulationTrace(
            cfg=self.cfg,
            est=self.est,
            mode=self.mode,
            workers=self.workers,
            oracle_cost=self.oracle_cost,
            oracle_active=self.oracle_active,
            **{name: np.ascontiguousarray(rows[name]) for name in rows.dtype.names},
        )


def run(
    cfg: MarketConfig,
    recipe: PopulationRecipe,
    est_cfg: EstimatorConfig | None = None,
    mode: str = "learning",
    record_tables: bool = True,
) -> SimulationTrace:
    """Execute all ``cfg.T`` jobs and return the trace."""
    sim = Simulator(cfg, recipe, est_cfg=est_cfg, mode=mode, record_tables=record_tables)
    for t in range(1, cfg.T + 1):
        sim.step(t)
    return sim.trace()


def regret(trace: SimulationTrace):
    """Total regret and the running-average series against the oracle.

    Regret is oriented as incurred cost minus oracle cost, so it is
    non-negative whenever the oracle is optimal for the instance.
    """
    total = float(trace.regret_cum[-1]) if len(trace) else 0.0
    return total, trace.regret_avg


def optimal_set_match(trace: SimulationTrace):
    """Per-job set-match flags and the first job index after which they stay true.

    Returns ``(flags, t_lock)`` with ``t_lock`` 1-based, or ``None`` when the
    final job still mismatches.
    """
    flags = trace.match.copy()
    if len(flags) == 0 or not flags[-1]:
        return flags, None
    false_idx = np.nonzero(~flags)[0]
    t_lock = 1 if false_idx.size == 0 else int(false_idx[-1]) + 2
    return flags, t_lock


def trace_to_csv(trace: SimulationTrace, path: str | Path) -> None:
    """Write the per-job series as CSV: a header row, then one row per job.

    Rows end in CRLF, floats are Python's shortest round-trip ``repr``, ``t``
    and ``active_set_size`` are decimal integers, and ``optimal_set_match``
    is 0 or 1.
    """
    columns = {
        "t": range(1, len(trace) + 1),
        "neg_social_welfare_cum": trace.neg_welfare_cum,
        "payment_cum": trace.payment_cum,
        "oracle_cost_cum": trace.oracle_cost_cum,
        "active_set_size": trace.active_size.astype(np.int64, copy=False),
        "optimal_set_match": trace.match.astype(np.int8),
        "regret_avg": trace.regret_avg,
    }
    _write_csv(path, columns)


def trace_summary(trace: SimulationTrace) -> dict:
    """Final statistics plus a config echo, JSON-serializable."""
    total, avg = regret(trace)
    _, t_lock = optimal_set_match(trace)
    m = len(trace)
    return {
        "config": asdict(trace.cfg),
        "estimator": {**asdict(trace.est), "delta": trace.cfg.delta},
        "mode": trace.mode,
        "jobs_attempted": m,
        "jobs_completed": trace.completed,
        "jobs_infeasible": int(trace.infeasible.sum()),
        "oracle_cost_per_job": trace.oracle_cost,
        "oracle_active_size": len(trace.oracle_active),
        "neg_social_welfare_total": float(trace.neg_welfare_cum[-1]) if m else 0.0,
        "payment_total": float(trace.payment_cum[-1]) if m else 0.0,
        "regret_total": total,
        "regret_avg_final": float(avg[-1]) if m else 0.0,
        "min_utility": float(np.nanmin(trace.utility_min)) if trace.completed else 0.0,
        "first_stable_match": t_lock,
        "final_active_size": int(trace.active_size[-1]) if m else 0,
    }


def summary_to_json(summary: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
