"""Online simulation loop: learn, allocate, observe, pay, account.

Each job refreshes every worker's confidence indices, allocates greedily
against the pessimistic caps, samples completion times and failure windows for
the active workers, feeds the observations back into the estimators, and
records payments and welfare as one trace row, kept once per plan, which
:meth:`Simulator.trace` stacks and gathers into the per-job series.  The
learning state of all workers is one :class:`WorkerStats` bank, and each of
these layers is one call per job.
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
from functools import cached_property
from operator import mul
from pathlib import Path

import numpy as np

from .allocation import _LIST_MAX, InfeasibleJob, SortedBids, sw_greedy, true_cap
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
from .mechanism import _payments_lists, job_payments

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


# One trace row per job, which SimulationTrace stacks into its per-job series.
_SERIES = [
    ("infeasible", bool),
    ("cost", float),
    ("payment", float),
    ("active_size", int),
    ("utility_min", float),
    ("match", bool),
]


@dataclass(frozen=True)
class SimulationTrace:
    """Per-job series plus cumulative accounting for one simulation run.

    Element ``t - 1`` of each series holds job ``t``.  The six series are
    the whole per-job record of a run: no per-worker value of a job is kept.
    The trace is frozen, and each cumulative series is computed on its first
    read and kept, so its readers (``regret`` too) share one array and must
    not write into it.
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

    def __len__(self) -> int:
        return int(self.cost.shape[0])

    @property
    def completed(self) -> int:
        return int((~self.infeasible).sum())

    @property
    def job_index(self) -> np.ndarray:
        return np.arange(1, len(self) + 1)

    @cached_property
    def neg_welfare_cum(self) -> np.ndarray:
        return np.where(self.infeasible, 0.0, self.cost).cumsum()

    @cached_property
    def payment_cum(self) -> np.ndarray:
        return np.where(self.infeasible, 0.0, self.payment).cumsum()

    @cached_property
    def oracle_cost_cum(self) -> np.ndarray:
        return np.where(self.infeasible, 0.0, self.oracle_cost).cumsum()

    @cached_property
    def regret_cum(self) -> np.ndarray:
        """Running sum of each job's cost minus the oracle cost (0 for an
        infeasible job): the one regret series of the trace CSV and summary."""
        return np.where(self.infeasible, 0.0, self.cost - self.oracle_cost).cumsum()

    @cached_property
    def regret_avg(self) -> np.ndarray:
        return self.regret_cum / self.job_index


class Simulator:
    """Owns the learning state and outcome blocks of one run.

    A job's plan (its allocation and payments, or its infeasibility) is
    deterministic in (costs, caps, cost_max), and its caps are deterministic
    in its eager indices.  So in learning mode one key, the eager indices,
    guards the caps and the plan in both forms: a job whose indices equal the
    last job's reuses both.  Known-means mode solves its plan at job 1 and keeps it.

    Up to ``_LIST_MAX`` workers the caps (``true_caps`` too), the plan and
    the completion times are Python lists, as the bank's and the outcome
    blocks' state is: a plan reads the fractions of ``sw_greedy`` as a list,
    hands them to ``_payments_lists``, the list form of ``job_payments``,
    and builds its row from lists.  Above, everything is an array, except
    that a plan whose active workers form one run of ids (checked once per
    plan computed) hands them on as a ``range``: the sampler and the bank
    then read and update their state through slices, with the same bytes
    as the id array.  A greedy's active set is a prefix of the bid order, so
    it is one run when the population lists cheaper groups first and ties
    break by id, as ``reference400.cfg``'s do.  Both forms write the same
    bytes, and the observed windows are lists in both.
    Both call ``sw_greedy`` once per plan computed.  A row's cost (the sum
    of ``c_i * x_i``) and its payment total, like the oracle cost, are the
    ``math.fsum`` of their terms: correctly rounded, so the same in both
    forms and on every BLAS kernel.

    Each plan's row of the six trace series is kept once, in ``_rows``, and
    a step appends the index of its plan's row to ``_jobs``, so a plan
    reused for many jobs stores one row.  The plan of the last job is
    ``_plan``, and the outcomes it draws go only to the learning state.
    """

    def __init__(
        self,
        cfg: MarketConfig,
        recipe: PopulationRecipe,
        est_cfg: EstimatorConfig | None = None,
        mode: str = "learning",
        record_tables: bool = False,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if record_tables is not False:  # no per-worker tables; perfbench passes False
            raise ValueError(f"record_tables must be False, got {record_tables!r}")
        self.cfg = validate_config(cfg)
        self.est = (est_cfg or EstimatorConfig.defaults(cfg)).validate(cfg)
        self.mode = mode

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
        self.oracle_cost = math.fsum(memoryview(self.costs * self.oracle.fractions))
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
        self._rows: list[tuple] = []
        self._jobs: list[int] = []

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
        caps = self.current_caps(t)
        if self._plan is None:
            self._plan = self._solve(caps)
        active, fractions, index = self._plan
        self._jobs.append(index)
        # An infeasible job draws and learns nothing, and neither does known-means mode.
        if active is not None and self.mode == "learning":
            tau, seen, failed = sample_outcome(self.outcomes, active, fractions)
            self.stats.record_jct_sample(active, tau, fractions)
            if seen:  # at n=400 most jobs observe no window
                self.stats.record_window(seen, failed)

    def _solve(self, caps):
        """A job's plan: its active workers (None if it is infeasible; in the
        array form a ``range`` when they form one run of ids), their fractions
        and the index of its trace row, which it appends to ``_rows``.  Both
        forms ``fsum`` all ``n`` terms of the row's cost and payment total."""
        c_bar = float(self.cfg.cost_bounds[1])
        try:
            alloc = sw_greedy(self.bids, caps)
        except InfeasibleJob:
            return None, None, self._keep((True, math.nan, math.nan, 0, math.nan, False))
        x = alloc.fractions
        if self._lists:  # truthful bids: the bids are the costs
            bids, order = self.bids.lists
            x = x.tolist()
            payments, utilities = _payments_lists(x, alloc.k_pos, caps, bids, c_bar, bids, order)
            active = ids = [i for i, xi in enumerate(x) if xi]
            fractions = [x[i] for i in active]
            cost, payment = math.fsum(map(mul, bids, x)), math.fsum(payments)
            # Positive caps and truthful bids make every utility a finite
            # float other than -0.0, so Python's min is numpy's.
            utility_min = min(utilities)
        else:
            rec = job_payments(alloc, caps, self.bids, c_bar)
            active = x.nonzero()[0]
            fractions, ids = x[active], active.tolist()
            if ids[-1] - ids[0] + 1 == len(ids):  # one run of ids: a range
                active = range(ids[0], ids[-1] + 1)
            cost = math.fsum(memoryview(self.costs * x))
            payment = math.fsum(memoryview(rec.payments))
            utility_min = float(rec.utilities.min())
        oracle = self.oracle_active  # distinct ids: equal sizes and a superset is equality
        match = len(ids) == len(oracle) and oracle.issuperset(ids)
        return active, fractions, self._keep((False, cost, payment, len(ids), utility_min, match))

    def _keep(self, row: tuple) -> int:
        self._rows.append(row)
        return len(self._rows) - 1

    def trace(self) -> SimulationTrace:
        """The per-job series: each plan's row stacked once, then gathered by
        each job's row index."""
        rows = np.array(self._rows, dtype=_SERIES)
        jobs = np.array(self._jobs, dtype=np.intp)
        return SimulationTrace(
            cfg=self.cfg,
            est=self.est,
            mode=self.mode,
            workers=self.workers,
            oracle_cost=self.oracle_cost,
            oracle_active=self.oracle_active,
            **{name: rows[name][jobs] for name in rows.dtype.names},
        )


def run(
    cfg: MarketConfig,
    recipe: PopulationRecipe,
    est_cfg: EstimatorConfig | None = None,
    mode: str = "learning",
) -> SimulationTrace:
    """Execute all ``cfg.T`` jobs and return the trace."""
    sim = Simulator(cfg, recipe, est_cfg=est_cfg, mode=mode)
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
