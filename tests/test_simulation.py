"""Simulation loop: modes, determinism, regret accounting, set matching.

Tests marked ``on_both_branches`` run once with the whole job step on Python
floats and once on numpy arrays, whatever the market's size.
"""

import importlib.util
import math
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdmarket
import crowdmarket.simulation
import oracles
from crowdmarket import (
    BLOCK,
    EstimatorConfig,
    FrozenInstance,
    InfeasibleJob,
    InvalidConfig,
    MarketConfig,
    PopulationGroup,
    PopulationRecipe,
    OutcomeBlocks,
    SimulationTrace,
    Simulator,
    WorkerStats,
    job_payments,
    optimal_set_match,
    regret,
    run,
    sample_outcome,
    stats_to_csv,
    summary_to_json,
    sw_greedy,
    trace_summary,
    trace_to_csv,
    true_cap,
)
from crowdmarket.market import _CSV_CHUNK

from conftest import (
    BRANCHES,
    crossover,
    desk48_market,
    desk_config,
    desk_estimator,
    desk_recipe,
    on_both_branches,
    reference_config,
    reference_recipe,
    run_against_literal,
)


def small_market(T: int = 200, seed: int = 11, epsilon: float = 0.18):
    """Six workers, fast/cheap vs slow/expensive, feasible at initialization."""
    cfg = MarketConfig(
        n=6,
        T=T,
        D=50.0,
        epsilon=epsilon,
        delta=0.5,
        cost_bounds=(10.0, 100.0),
        rho_bounds=(5.0, 18.0),
        beta_bounds=(30.0, 35.0),
        sigma_log=0.25,
        seed=seed,
    )
    recipe = PopulationRecipe(
        groups=(
            PopulationGroup(
                count=4, cost_range=(10.0, 50.0), rho_range=(6.5, 8.0),
                beta_range=(30.0, 31.0),
            ),
            PopulationGroup(
                count=2, cost_range=(100.0, 100.0), rho_range=(14.0, 14.0),
                beta_range=(32.0, 32.0),
            ),
        )
    )
    est = EstimatorConfig.defaults(cfg, alpha=2.0)
    return cfg, recipe, est


def planned_fractions(sim) -> np.ndarray:
    """Every worker's fraction in the plan of ``sim``'s last job, zeros for an
    infeasible job: the plan keeps only its active workers' fractions."""
    active, fractions, _ = sim._plan
    x = np.zeros(sim.cfg.n)
    if active is not None:
        x[np.asarray(active, dtype=np.intp)] = fractions
    return x


@on_both_branches
def test_initialization_gives_widest_active_set():
    cfg, recipe, est = small_market(T=300)
    trace = run(cfg, recipe, est_cfg=est)
    assert trace.active_size[0] == trace.active_size.max()


@on_both_branches
def test_known_means_mode_tracks_oracle_exactly():
    cfg, recipe, est = small_market(T=100)
    trace = run(cfg, recipe, est_cfg=est, mode="known-means")
    total, avg = regret(trace)
    assert total == 0.0
    assert np.all(avg == 0.0)
    flags, t_lock = optimal_set_match(trace)
    assert flags.all()
    assert t_lock == 1
    assert np.all(trace.cost == trace.oracle_cost)


@on_both_branches
def test_same_seed_gives_identical_trace_bytes(tmp_path):
    cfg, recipe, est = small_market(T=150)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_to_csv(run(cfg, recipe, est_cfg=est), a)
    trace_to_csv(run(cfg, recipe, est_cfg=est), b)
    assert a.read_bytes() == b.read_bytes()


@on_both_branches
def test_different_seed_changes_trace(tmp_path):
    cfg, recipe, est = small_market(T=150)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_to_csv(run(cfg, recipe, est_cfg=est), a)
    trace_to_csv(run(replace(cfg, seed=cfg.seed + 1), recipe, est_cfg=est), b)
    assert a.read_bytes() != b.read_bytes()


@on_both_branches
def test_learning_updates_only_active_workers():
    cfg, recipe, est = small_market(T=50)
    sim = Simulator(cfg, recipe, est_cfg=est)
    sim.step(1)
    active = planned_fractions(sim) > 0
    assert sim.stats.N_it.tolist() == active.astype(int).tolist()


@on_both_branches
def test_window_updates_only_when_work_covers_delta(monkeypatch):
    """Each job draws one outcome per active worker, and only those: a
    window is observed exactly when the work covers it, and the bank counts
    one failure surrogate per failed observed window."""
    draws = counting(monkeypatch, "sample_outcome")
    cfg, recipe, est = small_market(T=30)
    sim = Simulator(cfg, recipe, est_cfg=est)
    closed = np.zeros(cfg.n, dtype=np.int64)
    for t in range(1, cfg.T + 1):
        sim.step(t)
        (_, active, _), (tau, seen, failed) = draws[-1]
        active = list(active)
        assert np.flatnonzero(planned_fractions(sim)).tolist() == active
        tau = np.array(tau)
        assert tau.shape == (len(active),) and np.isfinite(tau).all()
        assert seen == [i for i, x in zip(active, tau.tolist()) if x >= cfg.delta]
        assert len(failed) == len(seen)
        np.add.at(closed, [i for i, f in zip(seen, failed) if f], 1)
        assert sim.stats.N_beta_it.tolist() == closed.tolist()
    assert len(draws) == cfg.T


@on_both_branches
def test_regret_defining_sum():
    """One job, x = (0.4, 0.6, 0) against x* = (0.5, 0.5, 0), costs (1, 2, 3)."""
    costs = np.array([1.0, 2.0, 3.0])
    x = np.array([0.4, 0.6, 0.0])
    x_star = np.array([0.5, 0.5, 0.0])
    gap = float(costs @ x - costs @ x_star)
    assert gap == pytest.approx(0.1)

    cfg, recipe, est = small_market(T=3)
    trace = run(cfg, recipe, est_cfg=est)
    total, avg = regret(trace)
    expected = float(np.sum(trace.cost) - 3 * trace.oracle_cost)
    assert total == pytest.approx(expected)
    # constant-gap sequence: average at t equals total so far over t
    assert avg[1] == pytest.approx((trace.cost[:2].sum() - 2 * trace.oracle_cost) / 2)


@on_both_branches
def test_regret_is_nonnegative_against_oracle():
    cfg, recipe, est = small_market(T=200)
    trace = run(cfg, recipe, est_cfg=est)
    total, avg = regret(trace)
    assert total >= 0.0
    assert np.all(trace.cost >= trace.oracle_cost - 1e-9)


@on_both_branches
def test_zero_jobs_gives_empty_trace():
    cfg, recipe, est = small_market(T=0)
    trace = run(cfg, recipe, est_cfg=est)
    assert len(trace) == 0
    total, avg = regret(trace)
    assert total == 0.0 and avg.size == 0


@on_both_branches
def test_oracle_infeasibility_raises_upfront():
    # reference-parameter regime at forty workers: caps sum to ~0.2
    cfg = reference_config(n=40, T=10)
    recipe = reference_recipe(n_fast=25, n_slow=15)
    with pytest.raises(InfeasibleJob):
        Simulator(cfg, recipe)


def pessimistic_market(T: int = 5):
    """Oracle-feasible, but so wide a rho bound that the initial pessimistic
    caps cannot cover a job."""
    cfg = MarketConfig(
        n=3,
        T=T,
        D=50.0,
        epsilon=0.5,
        delta=0.5,
        cost_bounds=(1.0, 10.0),
        rho_bounds=(1.0, 500.0),  # huge upper bound keeps initial caps tiny
        beta_bounds=(20.0, 35.0),
        sigma_log=0.25,
        seed=0,
    )
    recipe = PopulationRecipe(
        groups=(
            PopulationGroup(
                count=3, cost_range=(1.0, 10.0), rho_range=(1.0, 2.0),
                beta_range=(30.0, 35.0),
            ),
        )
    )
    return cfg, recipe


@on_both_branches
def test_per_job_infeasibility_is_recorded_not_raised(monkeypatch):
    """Oracle-feasible but pessimistically infeasible at initialization: the
    infeasible jobs land in the trace, draw no outcome, and the run continues."""
    draws = counting(monkeypatch, "sample_outcome")
    cfg, recipe = pessimistic_market()
    trace = run(cfg, recipe)
    assert trace.infeasible.any()
    assert len(trace) == 5
    summary = trace_summary(trace)
    assert summary["jobs_infeasible"] == int(trace.infeasible.sum())
    # an infeasible job records no work: an idle row
    t = int(np.flatnonzero(trace.infeasible)[0])
    assert not trace.match[t] and trace.active_size[t] == 0
    assert np.isnan([trace.cost[t], trace.payment[t], trace.utility_min[t]]).all()
    assert len(draws) == trace.completed


@on_both_branches
def test_feasible_at_init_stays_feasible():
    """Clamped indices make pessimistic caps never fall below their initial
    values, so an initially feasible run never hits an infeasible job."""
    cfg, recipe, est = small_market(T=300)
    trace = run(cfg, recipe, est_cfg=est)
    assert not trace.infeasible.any()


@on_both_branches
def test_allocations_respect_current_caps():
    """On every job the planned fractions sum to exactly 1 under ``fsum`` and
    none exceeds its cap, the plan's fractions and its row's least utility
    are bit-equal to the public ``sw_greedy`` and ``job_payments`` on the
    same caps, and its payment total is the ``fsum`` of their payments.  The
    small market solves one plan; the desk market (``configs/desk6.cfg``, as
    ``test_configs`` checks) moves its caps on most of its jobs, so most of
    them check a plan computed afresh."""
    desk = desk_config(T=2000)
    markets = {
        "small": (small_market(T=40), 1),
        "desk6.cfg": ((desk, desk_recipe(), desk_estimator(desk)), 1456),
    }
    for name, ((cfg, recipe, est), plans) in markets.items():
        sim = Simulator(cfg, recipe, est_cfg=est)
        for t in range(1, cfg.T + 1):
            caps = np.array(sim.current_caps(t))
            sim.step(t)  # step refreshes again with identical state
            alloc = sw_greedy(sim.costs, caps)
            pay = job_payments(alloc, caps, sim.costs, cfg.cost_bounds[1])
            fractions = planned_fractions(sim)
            assert math.fsum(fractions) == 1.0, (name, t)
            assert np.all(fractions <= caps), (name, t)
            assert fractions.tobytes() == alloc.fractions.tobytes(), (name, t)
            _, _, payment, _, utility_min, _ = sim._rows[sim._plan[2]]
            want = np.array([math.fsum(pay.payments), pay.utilities.min()]).tobytes()
            assert np.array([payment, utility_min]).tobytes() == want, (name, t)
        assert len(sim._rows) == plans, name


def counting(monkeypatch, name):
    """Wrap ``crowdmarket.simulation.<name>`` and record the calls the loop
    makes, each as its arguments and result."""
    calls = []
    fn = getattr(crowdmarket.simulation, name)

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(crowdmarket.simulation, name, counted)
    return calls


def plan_calls(monkeypatch, n: int):
    """Record the allocation and payment calls the job step makes to plan a
    job of ``n`` workers: ``sw_greedy`` on both branches, then the list rule
    ``_payments_lists`` up to ``_LIST_MAX`` workers and ``job_payments`` above."""
    lists = n <= crowdmarket.simulation._LIST_MAX
    names = ("sw_greedy", "_payments_lists" if lists else "job_payments")
    return [counting(monkeypatch, name) for name in names]


@on_both_branches
def test_repeated_caps_reuse_the_allocation_and_payments(monkeypatch):
    """A job whose caps repeat the last feasible job's bit for bit computes no
    allocation or payments; every job's planned fractions, and its row's total
    payment (an ``fsum``) and least utility, equal a fresh computation.  The
    desk market's caps hold still for 545 jobs, then move."""
    cfg = desk_config(T=600)
    greedy_calls, payment_calls = plan_calls(monkeypatch, cfg.n)
    sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
    greedy_calls.clear()  # the oracle allocation
    prev_caps, computed, rows = None, 0, []
    for t in range(1, cfg.T + 1):
        caps = np.array(sim.current_caps(t))  # step refreshes again with identical state
        computed += caps.tobytes() != prev_caps
        prev_caps = caps.tobytes()
        sim.step(t)
        assert len(greedy_calls) == len(payment_calls) == computed
        alloc = sw_greedy(sim.costs, caps)
        pay = job_payments(alloc, caps, sim.costs, cfg.cost_bounds[1], true_costs=sim.costs)
        assert planned_fractions(sim).tobytes() == alloc.fractions.tobytes()
        rows.append((math.fsum(pay.payments), float(pay.utilities.min())))
    trace = sim.trace()
    assert not trace.infeasible.any()
    assert list(zip(trace.payment.tolist(), trace.utility_min.tolist())) == rows
    assert 1 < computed < cfg.T


# rho+ indices of the three workers of pessimistic_market: feasible jobs,
# an infeasible one, jobs whose indices repeat it, then the last feasible
# indices and the infeasible ones again.
WIDE, OTHER, TINY = [20.0, 25.0, 30.0], [15.0, 30.0, 40.0], [500.0] * 3
SCRIPT = [WIDE, WIDE, OTHER, TINY, TINY, TINY, OTHER, TINY, WIDE]


def scripted_run(after_step):
    """Run the jobs of ``SCRIPT`` on ``pessimistic_market``, each job's
    indices set by hand after its real refresh, and call ``after_step(sim)``
    after each step; return the simulator."""
    cfg, recipe = pessimistic_market(T=len(SCRIPT))
    beta_minus = [cfg.beta_bounds[0]] * cfg.n
    refresh = WorkerStats.refresh_indices

    def scripted(self, t):
        refresh(self, t)
        indices = [SCRIPT[t - 1], beta_minus]
        self._eager = indices if self._lists else np.array(indices)
        return self

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkerStats, "refresh_indices", scripted)
        sim = Simulator(cfg, recipe)
        for t in range(1, cfg.T + 1):
            sim.step(t)
            after_step(sim)
    return sim


@on_both_branches
def test_infeasible_jobs_under_repeated_indices():
    """Each job of ``SCRIPT``'s row is what ``sw_greedy`` makes of the caps of
    that job's own indices: an infeasible row, or that allocation."""
    plans = []
    sim = scripted_run(lambda sim: plans.append(planned_fractions(sim)))
    cfg, trace = sim.cfg, sim.trace()
    n, beta_minus = cfg.n, [cfg.beta_bounds[0]] * cfg.n
    for t, rho_plus in enumerate(SCRIPT, start=1):
        caps = true_cap(np.array(rho_plus), np.array(beta_minus), cfg.D, cfg.epsilon)
        try:
            fractions, infeasible = sw_greedy(sim.costs, caps).fractions, False
        except InfeasibleJob:
            fractions, infeasible = np.zeros(n), True
        assert trace.infeasible[t - 1] == infeasible, t
        assert plans[t - 1].tobytes() == fractions.tobytes(), t
    assert trace.infeasible.tolist() == [rho_plus is TINY for rho_plus in SCRIPT]


@on_both_branches
def test_trace_equals_the_rows_of_each_job_stacked_one_by_one():
    """``trace()`` stacks each distinct row once and gathers them by job; that
    equals the rows of the jobs stacked in job order, across feasible and
    infeasible rows that each serve several jobs."""
    rows = []
    sim = scripted_run(lambda sim: rows.append(sim._rows[sim._plan[2]]))
    stacked = np.array(rows, dtype=crowdmarket.simulation._SERIES)
    trace = sim.trace()
    for name in stacked.dtype.names:
        series = getattr(trace, name)
        assert series.flags.c_contiguous, name
        assert series.tobytes() == np.ascontiguousarray(stacked[name]).tobytes(), name
    assert len(sim._rows) == 6 < len(SCRIPT)  # wide, other, tiny, other, tiny, wide


@on_both_branches
def test_known_means_keeps_one_distinct_row():
    """A known-means run solves one plan, so it holds one trace row and one
    index per job."""
    sim = Simulator(reference_config(T=2000), reference_recipe(), mode="known-means")
    for t in range(1, sim.cfg.T + 1):
        sim.step(t)
    assert len(sim._rows) == 1 and sim._jobs == [0] * sim.cfg.T
    assert np.all(sim.trace().cost == sim.oracle_cost)


@on_both_branches
def test_caps_handed_out_while_the_indices_repeat_are_read_only(monkeypatch):
    """The reference market's indices stay clamped, and the desk market's
    hold still for its first 545 jobs, so the caps are computed once and the
    same object serves every job; no caller can change a later job's caps
    through an array."""
    pessimistic_cap = WorkerStats.pessimistic_cap
    desk = desk_config(T=20)
    for cfg, recipe, est in (
        (reference_config(T=20), reference_recipe(), None),
        (desk, desk_recipe(), desk_estimator(desk)),
    ):
        calls = []
        monkeypatch.setattr(
            WorkerStats, "pessimistic_cap",
            lambda *args: calls.append(1) or pessimistic_cap(*args),
        )
        sim = Simulator(cfg, recipe, est_cfg=est)
        caps = sim.current_caps(1)
        for t in range(1, cfg.T + 1):
            assert sim.current_caps(t) is caps
            sim.step(t)
        assert len(calls) == 1
        if not sim._lists:
            assert not caps.flags.writeable
            with pytest.raises(ValueError):
                caps[0] = 1.0


@on_both_branches
def test_known_means_shares_the_oracle_allocation_and_never_learns(monkeypatch):
    """Known-means mode plans once, draws no outcomes and learns nothing."""
    cfg, recipe, est = small_market(T=50)
    greedy_calls, payment_calls = plan_calls(monkeypatch, cfg.n)
    sample_calls = counting(monkeypatch, "sample_outcome")
    sim = Simulator(cfg, recipe, est_cfg=est, mode="known-means")
    greedy_calls.clear()  # the oracle allocation
    for t in range(1, cfg.T + 1):
        sim.step(t)
        assert planned_fractions(sim).tobytes() == sim.oracle.fractions.tobytes(), t
    assert len(greedy_calls) == len(payment_calls) == 1  # the first job
    assert not sample_calls
    assert np.all(np.asarray(sim.outcomes.cursor) == BLOCK)
    assert not sim.stats.N_it.any() and not sim.stats.N_beta_it.any()


def test_names_patched_by_the_benchmark_tracer_exist(monkeypatch):
    """perfbench/run.py --trace 1 wraps these names through vars(owner)[name];
    renaming one makes it fail with a KeyError.  Its per-layer split needs
    every job of a list-branch desk run to call each layer below through
    them: once per job, ``pessimistic_cap`` once per job whose eager indices
    changed, and ``record_window`` once per job that observed a window
    (every job at desk6's 0.5 window, about a third at a 3.0 window).  Every
    plan calls ``sw_greedy``, whose fractions the tracer checks; a
    list-branch plan calls ``_payments_lists``, not ``job_payments``."""
    module = vars(crowdmarket.simulation)
    for name in ("sample_outcome", "outcome_streams", "sample_population", "sw_greedy",
                 "job_payments"):
        assert callable(module[name]), name
    for name in ("step", "current_caps"):
        assert callable(vars(Simulator)[name]), name
    layers = ("refresh_indices", "pessimistic_cap", "record_jct_sample", "record_window")
    for name in layers:
        assert callable(vars(WorkerStats)[name]), name

    calls = {}

    def count(owner, name):
        fn = vars(owner)[name]

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in layers:
        count(WorkerStats, name)
    draws = counting(monkeypatch, "sample_outcome")
    for delta in (0.5, 3.0):
        calls.clear()
        draws.clear()
        cfg = replace(desk_config(T=300), delta=delta)
        sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
        assert sim._lists and sim.stats._lists and sim.outcomes._lists
        indices, moved = None, 0
        for t in range(1, cfg.T + 1):
            sim.step(t)
            last = indices
            indices = sim.stats.rho_hat_plus.tobytes() + sim.stats.beta_hat_minus.tobytes()
            moved += indices != last
        observed = sum(bool(seen) for _, (_, seen, _) in draws)
        assert not sim.trace().infeasible.any()
        assert {**calls, "sample_outcome": len(draws)} == {
            "refresh_indices": cfg.T,
            "pessimistic_cap": moved,
            "sample_outcome": cfg.T,
            "record_jct_sample": cfg.T,
            "record_window": observed,
        }, delta


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_on_the_library():
    """perfbench/run.py's ``install`` wraps every patch point of its traced
    run through ``vars(owner)[name]``, so a name the library stops binding
    (``mechanism.sw_greedy``, which no sweep calls, included) fails here
    with a KeyError.  ``restore`` puts every original back.  The benchmark's
    modules are loaded from their files and dropped again afterwards."""
    path, modules = list(sys.path), set(sys.modules)
    owners = (crowdmarket.simulation, crowdmarket.simulation.Simulator,
              crowdmarket.mechanism, WorkerStats)
    before = [dict(vars(owner)) for owner in owners]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = bench  # dataclasses look their module up
        spec.loader.exec_module(bench)
        tracer = bench.Tracer()
        try:
            bench.install(tracer, crowdmarket, bench.Counters())
            assert tracer.records
        finally:
            tracer.restore()
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            where = getattr(sys.modules[name], "__file__", None) or ""
            if name == "perfbench_run" or PERFBENCH in Path(where).parents:
                del sys.modules[name]
    assert [dict(vars(owner)) for owner in owners] == before


def test_optimal_set_match_lock_index_logic():
    cfg, recipe, est = small_market(T=60)
    trace = run(cfg, recipe, est_cfg=est)
    flags, t_lock = optimal_set_match(trace)
    if t_lock is None:
        assert not flags[-1]
    else:
        assert flags[t_lock - 1 :].all()
        if t_lock > 1:
            assert not flags[t_lock - 2]


@on_both_branches
def test_optimal_set_match_against_explicit_oracle():
    cfg, recipe, est = small_market(T=30)
    sim = Simulator(cfg, recipe, est_cfg=est)
    plans = []
    for t in range(1, cfg.T + 1):
        sim.step(t)
        plans.append(planned_fractions(sim))
    trace = sim.trace()
    flags_stored, _ = optimal_set_match(trace)
    oracle = sw_greedy(
        np.array([w.cost for w in trace.workers]),
        [min(1.0, min(cfg.D, w.mttf * -math.log1p(-cfg.epsilon)) / w.mjct) for w in trace.workers],
    )
    target = oracle.fractions > 0
    flags_recomputed = np.array(
        [
            not infeasible and np.array_equal(row > 0, target)
            for infeasible, row in zip(trace.infeasible, plans)
        ]
    )
    assert np.array_equal(flags_stored, flags_recomputed)


@on_both_branches
def test_aggregate_payments_cover_welfare():
    cfg, recipe, est = small_market(T=150)
    trace = run(cfg, recipe, est_cfg=est)
    assert np.all(trace.payment >= trace.cost - 1e-9)
    assert np.all(trace.utility_min >= 0.0)


@on_both_branches
def test_cumulative_cost_dominates_oracle_prefixwise():
    cfg, recipe, est = small_market(T=150)
    trace = run(cfg, recipe, est_cfg=est)
    assert np.all(trace.neg_welfare_cum >= trace.oracle_cost_cum - 1e-9)
    km = run(cfg, recipe, est_cfg=est, mode="known-means")
    assert km.neg_welfare_cum == pytest.approx(km.oracle_cost_cum)


@on_both_branches
def test_trace_csv_columns_and_consistency(tmp_path):
    cfg, recipe, est = small_market(T=25)
    trace = run(cfg, recipe, est_cfg=est)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "t,neg_social_welfare_cum,payment_cum,oracle_cost_cum,"
        "active_set_size,optimal_set_match,regret_avg"
    )
    assert len(lines) == 26
    last = lines[-1].split(",")
    assert int(last[0]) == 25
    assert float(last[1]) == pytest.approx(trace.neg_welfare_cum[-1])
    # regret series consistent with its defining sums
    assert float(last[6]) == pytest.approx(
        (trace.neg_welfare_cum[-1] - trace.oracle_cost_cum[-1]) / 25
    )


def _trace_csv_bytes(trace, tmp_path):
    """The trace CSV of ``trace`` as the library writes it, column by column,
    and as the row-by-row rule in ``oracles`` writes it."""
    columnar, rows = tmp_path / "columnar.csv", tmp_path / "rows.csv"
    trace_to_csv(trace, columnar)
    oracles.trace_to_csv(trace, rows)
    return columnar.read_bytes(), rows.read_bytes()


@pytest.mark.parametrize("jobs", [0, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1])
@on_both_branches
def test_trace_csv_matches_the_row_by_row_rule(tmp_path, jobs):
    """No jobs (the header alone), and runs that end just before, at and
    just after a chunk boundary, so ``t`` runs on across chunks."""
    cfg, recipe, est = small_market(T=jobs)
    got, want = _trace_csv_bytes(run(cfg, recipe, est_cfg=est), tmp_path)
    assert got == want
    lines = got.split(b"\r\n")
    assert len(lines) == jobs + 2 and lines[-1] == b""
    assert lines[-2].startswith(b"%d," % jobs if jobs else b"t,")


@on_both_branches
def test_trace_csv_of_infeasible_jobs_matches_the_row_by_row_rule(tmp_path):
    cfg, recipe = pessimistic_market(T=40)
    trace = run(cfg, recipe)
    assert trace.infeasible.all()
    got, want = _trace_csv_bytes(trace, tmp_path)
    assert got == want


def test_trace_csv_writes_special_floats_as_the_row_by_row_rule(tmp_path):
    """Signed zero, the smallest subnormal, exponent forms, inf and NaN, and
    an infeasible job, in a hand-built trace."""
    cfg, recipe, est = small_market(T=7)
    values = [-0.0, 5e-324, 1e-05, 1e16, math.inf, math.nan, 1.0]
    trace = SimulationTrace(
        cfg=cfg,
        est=est,
        mode="learning",
        workers=[],
        oracle_cost=-0.0,
        oracle_active=frozenset(),
        infeasible=np.array([False] * 6 + [True]),
        cost=np.array(values),
        payment=-np.array(values),
        active_size=np.array([1, 2, 3, 4, 5, 6, 0]),
        match=np.array([True, False, True, True, False, True, False]),
        utility_min=np.zeros(7),
    )
    got, want = _trace_csv_bytes(trace, tmp_path)
    assert got == want
    assert got.split(b"\r\n")[1:] == [
        b"1,-0.0,0.0,-0.0,1,1,0.0",
        b"2,5e-324,-5e-324,-0.0,2,0,0.0",
        b"3,1e-05,-1e-05,-0.0,3,1,3.3333333333333337e-06",
        b"4,1e+16,-1e+16,-0.0,4,1,2500000000000000.0",
        b"5,inf,-inf,-0.0,5,0,inf",
        b"6,nan,nan,-0.0,6,1,nan",
        b"7,nan,nan,0.0,0,0,nan",
        b"",
    ]


@pytest.mark.parametrize("jobs", [200, 2000])
@on_both_branches
def test_trace_csv_and_summary_share_one_regret_series(tmp_path, jobs):
    """The trace CSV's last ``regret_avg`` and the summary's
    ``regret_avg_final`` come from one series, so they agree to the last
    digit (cumulating cost and oracle cost apart would not)."""
    cfg, recipe, est = small_market(T=jobs, seed=1)
    trace = run(cfg, recipe, est_cfg=est)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    last = path.read_text().strip().splitlines()[-1].split(",")
    summary = trace_summary(trace)
    assert last[6] == repr(summary["regret_avg_final"])
    total, avg = regret(trace)
    assert total == summary["regret_total"] == float(trace.regret_cum[-1])
    assert avg.tobytes() == trace.regret_avg.tobytes()


CUMULATIVE = ["neg_welfare_cum", "payment_cum", "oracle_cost_cum", "regret_cum", "regret_avg"]


@on_both_branches
def test_cumulative_series_are_computed_once_per_trace(tmp_path):
    """A replicate's summary and trace CSV read the cumulative series 12
    times between them.  Each is computed on its first read and kept, so a
    later read returns the same array, with the bytes of a first read of an
    equal trace; the run has feasible and infeasible jobs."""
    trace, fresh = (scripted_run(lambda sim: None).trace() for _ in range(2))
    trace_summary(trace)
    trace_to_csv(trace, tmp_path / "trace.csv")
    kept = {name: vars(trace)[name] for name in CUMULATIVE}
    assert trace.infeasible.any() and not trace.infeasible.all()
    for name in CUMULATIVE:
        assert getattr(trace, name) is kept[name], name
        assert kept[name].tobytes() == getattr(fresh, name).tobytes(), name
    assert regret(trace)[1] is kept["regret_avg"]


@on_both_branches
def test_summary_echoes_config():
    cfg, recipe, est = small_market(T=10)
    trace = run(cfg, recipe, est_cfg=est)
    summary = trace_summary(trace)
    assert summary["config"]["n"] == 6
    assert summary["config"]["seed"] == cfg.seed
    assert summary["mode"] == "learning"
    assert summary["jobs_completed"] == 10
    assert summary["min_utility"] >= 0.0


LITERAL_RUNS = {
    **{f"desk6 seed {s}": (desk_config(s, T=3000), desk_recipe(), "learning") for s in (1000, 1, 2)},
    "desk6 known-means": (desk_config(1, T=500), desk_recipe(), "known-means"),
    **{f"desk48 seed {s}": (*desk48_market(s), "learning") for s in (1, 2)},
}


@pytest.mark.parametrize("cfg, recipe, mode", LITERAL_RUNS.values(), ids=LITERAL_RUNS.keys())
def test_runs_match_the_literal_loop_and_keep_the_invariants(cfg, recipe, mode, tmp_path):
    """A whole run gives the six series and the final estimator CSV of the
    paper's loop recomputed every job with no cache (``oracles.run_literal``),
    bit for bit.  On every job of that loop the fractions sum to exactly 1,
    none exceeds its cap, every truthful utility is >= 0 exactly, and a
    worker whose indices cover its true means gets at most its true cap.  On
    every ``IDENTITY_EVERY``-th feasible job each active worker is paid by
    Myerson's identity, ``P_i = b_i * x_i + integral of x_i(z) from b_i to
    c_bar``."""
    _, literal = run_against_literal(cfg, recipe, desk_estimator(cfg), mode, tmp_path)
    jobs = zip(literal["fractions"], literal["caps"], literal["utilities"], literal["covered"])
    checked = 0
    for t, (x, caps, utilities, covered) in enumerate(jobs, start=1):
        assert math.fsum(x) == 1.0, t
        assert all(xi <= cap for xi, cap in zip(x, caps)), t
        assert min(utilities) >= 0.0, t
        for xi, true, cov in zip(x, literal["true_caps"], covered):
            if cov and xi:
                assert xi <= true, t
                checked += 1
    assert checked >= cfg.T  # every job has an active worker with covered indices
    if mode == "learning":  # the caps, and so the indices, move on most jobs
        caps = literal["caps"]
        assert sum(a != b for a, b in zip(caps, caps[1:])) > cfg.T // 2
    # Myerson's payment identity on every IDENTITY_EVERY-th feasible job.
    bids = np.array([w.cost for w in oracles.sample_population(cfg, recipe)])
    feasible = [t for t, infeasible in enumerate(literal["infeasible"]) if not infeasible]
    for t in feasible[::IDENTITY_EVERY]:
        caps = np.array(literal["caps"][t])
        for i, (xi, pay) in enumerate(zip(literal["fractions"][t], literal["payments"][t])):
            if xi:
                expected = bids[i] * xi + fraction_integral(bids, caps, cfg.cost_bounds, i)
                assert pay == pytest.approx(expected, rel=1e-9, abs=1e-12), (t + 1, i)


IDENTITY_EVERY = 25


def fraction_integral(bids, caps, cost_bounds, i):
    """The integral of worker ``i``'s fraction x_i(z) over its bid z from
    ``bids[i]`` to ``cost_bounds[1]``, the others bidding ``bids``: x_i(z) is
    constant between the knots of ``oracles.knot_grid``, so it is a sum over
    their segments, as in ``test_payment_identity_over_the_deviation_grid``."""
    knots = oracles.knot_grid(FrozenInstance(costs=bids, caps=caps, cost_bounds=cost_bounds), i)
    knots = knots[knots >= bids[i]]
    integral = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        z = bids.copy()
        z[i] = 0.5 * (lo + hi)
        integral += sw_greedy(z, caps).fractions[i] * (hi - lo)
    return integral


def exact_sum(terms) -> float:
    """The correctly rounded sum of the floats ``terms``: their exact
    rational sum, rounded once."""
    return float(sum(map(Fraction, terms)))


def products(costs, x) -> list:
    """The rounded products ``c_i * x_i`` of two arrays, as floats."""
    return [c * xi for c, xi in zip(costs.tolist(), x.tolist())]


# Markets whose plans move, each with its estimator: desk6, the array-form
# desk48, and reference400 (seed 7, as configs/reference400.cfg), whose caps
# move from job 2,067 on.
CERTIFIED_RUNS = {
    "desk6": (desk_config(T=2000), desk_recipe(), desk_estimator),
    "desk48": (*desk48_market(1), desk_estimator),
    "reference400": (reference_config(T=2200, seed=7), reference_recipe(), EstimatorConfig.defaults),
}
CERTIFY_EVERY = 5


@pytest.mark.parametrize("cfg, recipe, estimator", CERTIFIED_RUNS.values(), ids=CERTIFIED_RUNS.keys())
@on_both_branches
def test_row_totals_are_correctly_rounded(cfg, recipe, estimator):
    """The oracle cost, and on every ``CERTIFY_EVERY``-th plan computed the
    row's cost and payment total, equal the exact sum of their rounded terms
    (the products ``c_i * x_i`` and the payments of ``job_payments``),
    rounded once.  So they do not depend on the order of addition, the form
    of the job step or the BLAS kernel."""
    sim = Simulator(cfg, recipe, est_cfg=estimator(cfg))
    assert sim.oracle_cost == exact_sum(products(sim.costs, sim.oracle.fractions))
    certified = set()
    for t in range(1, cfg.T + 1):
        sim.step(t)
        index = sim._plan[2]
        if index % CERTIFY_EVERY or index in certified:
            continue
        certified.add(index)
        infeasible, cost, payment, *_ = sim._rows[index]
        assert not infeasible, t
        caps = np.array(sim._caps)  # the caps of job t
        pay = job_payments(sw_greedy(sim.costs, caps), caps, sim.costs, cfg.cost_bounds[1])
        assert cost == exact_sum(products(sim.costs, planned_fractions(sim))), t
        assert payment == exact_sum(pay.payments.tolist()), t
    assert len(certified) == -(-len(sim._rows) // CERTIFY_EVERY) > 20


@on_both_branches
def test_completion_samples_whose_square_underflows_match_the_literal_loop(tmp_path):
    """At sigma_log = 26 about a quarter of the completion samples are so
    small that their square is 0 or subnormal.  They never drop, and the run
    is the literal loop's, with no error or warning."""
    cfg = replace(desk_config(T=200), sigma_log=26.0)
    run_against_literal(cfg, desk_recipe(), desk_estimator(cfg), "learning", tmp_path)


def test_crossover_moves_every_module_that_binds_the_list_max():
    """``on_both_branches`` reaches every module that reads ``_LIST_MAX``,
    found here from the source text rather than by conftest's search; a
    module it missed would keep its own branch in both runs."""
    src = Path(crowdmarket.__file__).parent
    binding = sorted(p.stem for p in src.glob("*.py") if "_LIST_MAX" in p.read_text())
    assert binding == ["allocation", "estimator", "market", "simulation"]
    cfg = desk_config(T=10)
    for name, limit in BRANCHES.items():
        with crossover(limit):
            for stem in binding:
                assert importlib.import_module(f"crowdmarket.{stem}")._LIST_MAX == limit, stem
            sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
            forms = {sim._lists, sim.stats._lists, sim.outcomes._lists}
            assert forms == {name == "lists"}, name


def branch_market(n, cover, rho_range, beta_range, u_scale, alpha, jobs, repeat, seed):
    """A market whose initial pessimistic caps cover ``cover`` jobs in
    total, on rho and beta bounds (1, 2) with a 0.9 window: completion times
    near the window give unobserved, clean and failed windows, and
    ``u_scale`` = 1 (the smallest valid second-moment bounds) drops samples
    early.  Every ``repeat``-th job is refreshed twice (0: none)."""
    c = 2.0 * cover / n  # initial caps min(1, beta_min * c / rho_max) = min(1, cover / n)
    cfg = MarketConfig(
        n=n,
        T=jobs,
        D=100.0,
        epsilon=-math.expm1(-c),
        delta=0.9,
        cost_bounds=(1.0, 10.0),
        rho_bounds=(1.0, 2.0),
        beta_bounds=(1.0, 2.0),
        sigma_log=0.25,
        seed=seed,
    )
    recipe = PopulationRecipe(
        groups=(PopulationGroup(count=n, cost_range=(1.0, 10.0), rho_range=rho_range,
                                beta_range=beta_range),)
    )
    est = EstimatorConfig(u_rho=4.0 * u_scale, u_beta=2.9**2 * u_scale, alpha=alpha)
    return cfg, recipe, est, repeat


@st.composite
def branch_markets(draw):
    return branch_market(
        n=draw(st.sampled_from([1, 2, 5, 8, 31, 32, 33])),
        cover=draw(st.sampled_from([0.5, 1.2, 3.0])),
        rho_range=draw(st.sampled_from([(1.0, 2.0), (1.0, 1.0)])),
        beta_range=draw(st.sampled_from([(1.0, 2.0), (2.0, 2.0)])),
        u_scale=draw(st.sampled_from([1.0, 100.0])),
        alpha=draw(st.sampled_from([2.0, 4.0])),
        jobs=draw(st.sampled_from([1, 30, 300])),
        repeat=draw(st.sampled_from([0, 1, 7])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# Between them: infeasible jobs, unobserved, clean and failed windows,
# samples that drop before the horizon, refilled blocks and repeated refreshes.
BRANCH_EXAMPLES = [
    branch_market(5, 0.5, (1.0, 1.0), (2.0, 2.0), 1.0, 2.0, 30, 0, 1),  # every job infeasible
    branch_market(2, 3.0, (1.0, 1.0), (1.0, 2.0), 1.0, 4.0, 300, 7, 2),
    branch_market(33, 1.2, (1.0, 2.0), (1.0, 2.0), 1.0, 2.0, 300, 1, 3),
    branch_market(32, 3.0, (1.0, 2.0), (1.0, 2.0), 100.0, 4.0, 30, 0, 4),
]


def _run_bytes(cfg, recipe, est, repeat):
    """Every output byte of one run: the trace CSV, the summary JSON, the
    estimator CSV, the six series, each job's planned fractions and each
    draw's completion times and observed windows; or the error it raised.
    Also the list-branch facts the examples must cover."""
    plans = []
    try:
        with pytest.MonkeyPatch.context() as patch:
            draws = counting(patch, "sample_outcome")
            sim = Simulator(cfg, recipe, est_cfg=est)
            filed = []  # the keys of samples filed to drop before the horizon
            file = sim.stats._file
            sim.stats._file = lambda keys, *rest: (filed.extend(keys), file(keys, *rest))
            for t in range(1, cfg.T + 1):
                if repeat and t % repeat == 0:
                    sim.current_caps(t)
                sim.step(t)
                plans.append(planned_fractions(sim).tobytes())
    except (ValueError, InfeasibleJob) as exc:
        return (type(exc), str(exc)), {}
    trace = sim.trace()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("trace.csv", "summary.json", "stats.csv")]
        trace_to_csv(trace, paths[0])
        summary_to_json(trace_summary(trace), paths[1])
        stats_to_csv(sim.stats, paths[2])
        files = [path.read_bytes() for path in paths]
    series = [getattr(trace, name).tobytes() for name in oracles.SERIES]
    outcomes = [(np.array(tau).tobytes(), seen, failed) for _, (tau, seen, failed) in draws]
    windows = {"unobserved" for _, (tau, seen, _) in draws if len(seen) < len(tau)}
    windows.update("failed" if f else "clean" for _, (_, _, failed) in draws for f in failed)
    covered = {
        "infeasible": bool(trace.infeasible.any()),
        "windows": windows,
        "dropped": any(key < math.log(cfg.T) for key in filed),
        "refilled": int(sim.stats.N_it.max()) > BLOCK,
        "repeated": bool(repeat) and cfg.T >= repeat,
    }
    return (*files, *series, *plans, *outcomes), covered


@settings(max_examples=30, deadline=None)
@given(market=branch_markets())
@example(market=BRANCH_EXAMPLES[0])
@example(market=BRANCH_EXAMPLES[1])
@example(market=BRANCH_EXAMPLES[2])
@example(market=BRANCH_EXAMPLES[3])
def test_both_branches_give_the_same_run_bytes(market):
    """A whole run on Python floats and on numpy arrays writes the same trace
    CSV, summary JSON and estimator CSV, gives the same series, plans and
    draws, or raises the same error with the same message."""
    outputs = {}
    for name, limit in BRANCHES.items():
        with crossover(limit):
            outputs[name] = _run_bytes(*market)[0]
    assert outputs["lists"] == outputs["arrays"]


def test_branch_examples_cover_the_job_step():
    covered = [_run_bytes(*market)[1] for market in BRANCH_EXAMPLES]
    for fact in ("infeasible", "dropped", "refilled", "repeated"):
        assert any(c.get(fact) for c in covered), fact
    windows = set().union(*(c.get("windows", set()) for c in covered))
    assert windows == {"unobserved", "clean", "failed"}


def _bank():
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)
    return WorkerStats(3, est, (0.1, 30.0), (1.0, 9.0), 0.5, horizon=50)


def _blocks():
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(5).spawn(3)]
    return OutcomeBlocks(streams, [1.0] * 3, [2.0] * 3, sigma_log=0.25, delta=0.5)


BAD_CALLS = {
    "nan fraction": lambda: sample_outcome(_blocks(), [0, 2], [0.5, math.nan]),
    "zero fraction": lambda: sample_outcome(_blocks(), [0, 2], [0.0, 0.5]),
    "fraction above one": lambda: sample_outcome(_blocks(), [1], [1.5]),
    "fraction per worker": lambda: sample_outcome(_blocks(), [0, 1], [0.5]),
    "zero tau": lambda: _bank().record_jct_sample([0, 1], [1.0, 0.0], [0.5, 0.5]),
    "negative tau": lambda: _bank().record_jct_sample([2], [-1.0], [0.5]),
    "tau per worker": lambda: _bank().record_jct_sample([0, 1], [1.0], [0.5, 0.5]),
    "window per worker": lambda: _bank().record_window([0, 1], [True]),
    "negative worker id": lambda: sample_outcome(_blocks(), [-1], [0.5]),
    "worker id past n": lambda: _bank().record_jct_sample([0, 3], [1.0, 1.0], [0.5, 0.5]),
    "repeated worker id": lambda: _bank().record_jct_sample([1, 1], [1.0, 1.0], [0.5, 0.5]),
    "repeated window": lambda: _bank().record_window([2, 0, 2], [False, True, False]),
    "range with step 2": lambda: sample_outcome(_blocks(), range(0, 3, 2), [0.5, 0.5]),
    "range from below 0": lambda: _bank().record_jct_sample(range(-1, 1), [1.0] * 2, [0.5] * 2),
    "range past n": lambda: sample_outcome(_blocks(), range(1, 4), [0.5] * 3),
    "range per fraction": lambda: sample_outcome(_blocks(), range(0, 2), [0.5] * 3),
    "range per tau": lambda: _bank().record_jct_sample(range(0, 3), [1.0] * 2, [0.5] * 3),
    "refresh out of order": lambda: _bank().refresh_indices(5).refresh_indices(4),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_both_branches_raise_the_same_errors(call):
    raised = {}
    for name, limit in BRANCHES.items():
        with crossover(limit):
            with pytest.raises(ValueError) as exc:
                call()
            raised[name] = (exc.type, str(exc.value))
    assert raised["lists"] == raised["arrays"]


# Calls with a bad id and a value list of another length.
TWO_FAULTS = {
    "id past n, fraction per worker": lambda: sample_outcome(_blocks(), [0, 5], [0.5]),
    "string id, fraction per worker": lambda: sample_outcome(_blocks(), [0, "1"], [0.5]),
    "repeated id, tau per worker": lambda: _bank().record_jct_sample([1, 1], [1.0], [0.5]),
    "id past n, window per worker": lambda: _bank().record_window([0, 3], [True]),
}


@pytest.mark.parametrize("call", TWO_FAULTS.values(), ids=TWO_FAULTS.keys())
@on_both_branches
def test_listed_ids_are_checked_before_the_lengths(call):
    """Both branches raise the id's error: the list form checks the ids
    before the lengths, as the array form's ``_worker_index`` does, and an
    id that is not an int raises ``ValueError``, not a ``TypeError`` from
    comparing it."""
    with pytest.raises(ValueError, match="worker ids must"):
        call()


# Values that fractions accepted once are changed to, in place; above one
# is a fraction only the sampler rejects.
CHANGED_FRACTIONS = {"zero": 0.0, "negative": -0.5, "above one": 1.5, "nan": math.nan}


@pytest.mark.parametrize("value", CHANGED_FRACTIONS.values(), ids=CHANGED_FRACTIONS.keys())
@pytest.mark.parametrize("kind", [range, np.arange], ids=["range", "id array"])
@on_both_branches
def test_fractions_changed_in_place_after_their_check_raise(kind, value):
    """The sampler and the bank check a repeating plan's fractions once,
    keyed by their bytes rather than by the array object.  So fractions
    they accepted, which the caller then makes writeable again and changes
    in place to 0, a negative value or NaN, raise ValueError before any
    cursor or learning state moves.  Above one only the sampler raises: a
    completion sample ``tau / fraction`` takes any positive fraction.  With
    the accepted fractions restored, a tau of 0, -1 or NaN raises too."""
    n = 40
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(5).spawn(n)]
    blocks = OutcomeBlocks(streams, [1.0] * n, [2.0] * n, sigma_log=0.25, delta=0.5)
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)
    bank = WorkerStats(n, est, (0.1, 30.0), (1.0, 9.0), 0.5, horizon=50)
    workers = kind(2, n)
    fractions = np.full(n - 2, 0.5)
    fractions.flags.writeable = False  # as a plan hands them on
    for t in (1, 2):
        bank.refresh_indices(t)
        tau, _, _ = sample_outcome(blocks, workers, fractions)
        bank.record_jct_sample(workers, tau, fractions)
    names = ("_count", "_kept", "_unseen", "_keys", "_slots", "_values", "_eta")

    def state():
        return [np.asarray(blocks.cursor).tobytes()] + [
            np.asarray(getattr(bank, name)).tobytes() for name in names
        ]

    fractions.flags.writeable = True
    fractions[7] = value
    before = state()
    with pytest.raises(ValueError, match="fractions must lie in"):
        sample_outcome(blocks, workers, fractions)
    assert state() == before
    if value > 1:
        bank.record_jct_sample(workers, tau, fractions)
        assert state() != before
    else:
        with pytest.raises(ValueError, match="must be positive"):
            bank.record_jct_sample(workers, tau, fractions)
        assert state() == before
    fractions[7] = 0.5
    sample_outcome(blocks, workers, fractions)
    for bad in (0.0, -1.0, math.nan):
        changed = np.array(tau)
        changed[7] = bad
        before = state()
        with pytest.raises(ValueError, match="must be positive"):
            bank.record_jct_sample(workers, changed, fractions)
        assert state() == before


@settings(max_examples=20, deadline=None)
@given(n=st.integers(33, 80), seed=st.integers(0, 2**32 - 1))
def test_a_range_and_its_id_array_give_the_same_bytes(n, seed):
    """The array form's two index kinds for a run of ids: job steps that
    hand on ``range(a, b)`` and ``np.arange(a, b)`` give bit-identical draws,
    cursors, learning state and store of samples due to drop, over random
    runs and fractions.  A run and its fractions repeat as a plan's do: a
    new run with fresh fractions, then the same fractions object, an equal
    copy, and the same object changed in place, so the steps that skip the
    check of fractions already accepted are compared too.  Job 1's run is
    the middle half of the ids, so every example files first samples after
    job 1; every example also refills blocks past their first draw and
    drops samples before the horizon."""
    jobs = BLOCK + 20
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)

    def job_step_state():
        streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]
        blocks = OutcomeBlocks(streams, [1.5] * n, [2.0] * n, sigma_log=0.5, delta=0.5)
        return blocks, WorkerStats(n, est, (0.1, 30.0), (1.0, 9.0), 0.5, horizon=jobs)

    kinds = {range: job_step_state(), np.arange: job_step_state()}
    rng = np.random.default_rng(seed)
    late_first = dropped = cached = 0
    names = ("_count", "_kept", "_unseen", "_keys", "_slots", "_values")
    a, b = n // 4, 3 * n // 4
    for t in range(1, jobs + 1):
        if t % 4 == 1:  # a new run, with fresh fractions
            if t > 1:
                a, b = int(rng.integers(0, n // 4)), int(rng.integers(3 * n // 4, n + 1))
            fractions = rng.choice([0.05, 0.3, 1.0], b - a)
        elif t % 4 == 3:
            fractions = fractions.copy()
        elif t % 4 == 0:
            fractions[::2] = 0.6  # in place
        got = []
        for kind, (blocks, bank) in kinds.items():
            stored = bank._keys.size
            bank.refresh_indices(t)
            dropped += bank._keys.size < stored
            late_first += t > 1 and not bank.N_it[a:b].all()
            cached += blocks._checked == bank._checked == fractions.tobytes()
            tau, seen, failed = sample_outcome(blocks, kind(a, b), fractions)
            bank.record_jct_sample(kind(a, b), tau, fractions)
            if seen:
                bank.record_window(seen, failed)
            state = [getattr(bank, name).tobytes() for name in names]
            got.append((tau.tobytes(), seen, failed, blocks.cursor.tobytes(), *state))
        assert got[0] == got[1], t
    assert late_first and dropped and cached and int(bank.N_it.max()) > BLOCK


RELABELED_MARKETS = {
    "reference400": (reference_config(T=300, seed=7), reference_recipe(), EstimatorConfig.defaults),
    "desk6": (desk_config(T=2000), desk_recipe(), desk_estimator),
}


@pytest.mark.parametrize("market", RELABELED_MARKETS.values(), ids=RELABELED_MARKETS.keys())
def test_relabeling_the_workers_permutes_their_state_and_keeps_every_series(market, monkeypatch):
    """A metamorphic relation: a run whose workers are renumbered, each
    keeping its profile and its outcome stream, is the same run.  The
    cost-100 workers take the low ids, in their own order, so ties at cost
    100 still break the same way; in reference400 the plan's active workers
    then no longer form one run of ids, so its job steps hand on an id array
    instead of a range.  Every series is bit-identical, and the final four
    indices, the kept sums and the sample counts are the original ones
    permuted."""
    cfg, recipe, estimator = market
    est = estimator(cfg)
    sample, streams = crowdmarket.simulation.sample_population, crowdmarket.simulation.outcome_streams
    workers = sample(cfg, recipe)
    perm = sorted(range(cfg.n), key=lambda i: workers[i].cost != 100.0)  # new id -> old id

    def simulate():
        sim = Simulator(cfg, recipe, est_cfg=est)
        for t in range(1, cfg.T + 1):
            sim.step(t)
        return sim

    original = simulate()

    def relabeled_population(cfg, recipe):
        drawn = sample(cfg, recipe)
        return [replace(drawn[i], id=j) for j, i in enumerate(perm)]

    def relabeled_streams(cfg):
        drawn = streams(cfg)
        return [drawn[i] for i in perm]

    monkeypatch.setattr(crowdmarket.simulation, "sample_population", relabeled_population)
    monkeypatch.setattr(crowdmarket.simulation, "outcome_streams", relabeled_streams)
    relabeled = simulate()
    assert [w.cost for w in relabeled.workers] == [workers[i].cost for i in perm]
    if cfg.n > 32:
        assert type(original._plan[0]) is range and type(relabeled._plan[0]) is np.ndarray
    got, want = relabeled.trace(), original.trace()
    for name, _ in crowdmarket.simulation._SERIES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    indices = ("rho_hat_plus", "rho_hat_minus", "beta_hat_plus", "beta_hat_minus")
    for name in (*indices, "_kept", "N_it", "N_beta_it"):
        permuted = np.asarray(getattr(original.stats, name))[..., perm]
        assert np.asarray(getattr(relabeled.stats, name)).tobytes() == permuted.tobytes(), name
    assert original.stats.N_beta_it.any()


# The markets of the horizon-prefix and cost-scaling relations, each on a
# branch of the job step: desk6 on both, reference400 on its own, arrays.
DESK6 = (desk_config(T=2000), desk_recipe(), desk_estimator)
REFERENCE400 = (reference_config(T=3000, seed=7), reference_recipe(), EstimatorConfig.defaults)
PREFIX_RUNS = {  # market, branch and the length of the shorter run
    "desk6-lists": (DESK6, "lists", 600),
    "desk6-arrays": (DESK6, "arrays", 600),
    "reference400-arrays": (REFERENCE400, "arrays", 2100),  # past the caps' first move, job 2,067
}
LEARNER_STATE = ("_count", "_kept", "_eager", "_unseen", "_eta")


@pytest.mark.parametrize("market, branch, jobs", PREFIX_RUNS.values(), ids=PREFIX_RUNS.keys())
def test_the_first_jobs_of_a_longer_horizon_are_the_shorter_run(market, branch, jobs, tmp_path):
    """A metamorphic relation: the horizon T only decides which samples the
    learner files to drop before T, and a sample drops at job t once its key
    is below log t.  So the first ``jobs`` jobs of a T-job run are a
    ``jobs``-job run: the six series, the learner's counts, kept sums, eager
    indices, unseen marks and streaks, and its estimator CSV are the same
    bytes.  The drop store is left out, as the longer horizon files more
    samples by design.  A drop rule that compared keys with log T instead of
    log t would break the relation."""
    cfg, recipe, estimator = market

    def first_jobs(horizon: int):
        with crossover(BRANCHES[branch]):
            sim = Simulator(replace(cfg, T=horizon), recipe, est_cfg=estimator(cfg))
            for t in range(1, jobs + 1):
                sim.step(t)
        path = tmp_path / f"stats_{horizon}.csv"
        stats_to_csv(sim.stats, path)
        state = [np.asarray(getattr(sim.stats, name)).tobytes() for name in LEARNER_STATE]
        return sim, [*state, path.read_bytes()]

    short, short_state = first_jobs(jobs)
    long, long_state = first_jobs(cfg.T)
    for name, got, want in zip((*LEARNER_STATE, "stats_to_csv"), long_state, short_state):
        assert got == want, name
    got, want = long.trace(), short.trace()
    for name, _ in crowdmarket.simulation._SERIES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert len(short._rows) > 1  # the learner moved the caps
    assert long.stats._keys.size > short.stats._keys.size  # and filed more under T


def scaled_costs(cfg: MarketConfig, recipe: PopulationRecipe, factor: float):
    """``cfg`` and ``recipe`` with the cost bounds and every group's cost
    range multiplied by ``factor``."""
    groups = [replace(g, cost_range=tuple(c * factor for c in g.cost_range)) for g in recipe.groups]
    cost_bounds = tuple(c * factor for c in cfg.cost_bounds)
    return replace(cfg, cost_bounds=cost_bounds), replace(recipe, groups=tuple(groups))


SCALED_RUNS = {  # market, branch and job count
    "desk6-lists": (DESK6, "lists", 2000),
    "desk6-arrays": (DESK6, "arrays", 2000),
    "reference400-arrays": (REFERENCE400, "arrays", 300),
}


@pytest.mark.parametrize("market, branch, jobs", SCALED_RUNS.values(), ids=SCALED_RUNS.keys())
def test_scaling_every_cost_by_a_power_of_two_scales_the_run_exactly(market, branch, jobs):
    """A metamorphic relation: costs only rank the workers and price them, so
    multiplying the cost bounds and every group's cost range by 2**k (k = -3
    and 5), which rounds nothing, multiplies every cost, payment, utility,
    average regret and the oracle cost by 2**k exactly.  Infeasibility, the
    active sets and their match with the optimal set stay as they were."""
    cfg, recipe, estimator = market
    cfg = replace(cfg, T=jobs)
    with crossover(BRANCHES[branch]):
        base = run(cfg, recipe, est_cfg=estimator(cfg))
        for k in (-3, 5):
            factor = 2.0**k
            scaled = run(*scaled_costs(cfg, recipe, factor), est_cfg=estimator(cfg))
            assert [w.cost for w in scaled.workers] == [w.cost * factor for w in base.workers]
            for name in ("infeasible", "active_size", "match"):
                assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), (k, name)
            for name in ("cost", "payment", "utility_min", "regret_avg"):
                want = getattr(base, name) * factor
                assert getattr(scaled, name).tobytes() == want.tobytes(), (k, name)
            assert scaled.oracle_cost == base.oracle_cost * factor


def test_a_radius_factor_that_overflows_is_rejected_before_any_job():
    """Finite estimator values whose ``u * alpha`` overflows to inf gave the
    array form NaN caps at job 1, from ``inf * log(1)``.  reference400, on
    arrays, raises InvalidConfig when the simulator is built, before any
    job."""
    cfg, recipe, estimator = REFERENCE400
    with pytest.raises(InvalidConfig, match=r"u \* alpha must be finite"):
        Simulator(cfg, recipe, est_cfg=replace(estimator(cfg), alpha=1e306))


@pytest.mark.parametrize("market", [DESK6, REFERENCE400], ids=["desk6", "reference400"])
@on_both_branches
def test_a_radius_factor_just_below_overflow_runs_with_caps_at_their_bounds(market):
    """With ``alpha = 2`` and ``u_rho = 8.9e307``, ``u_rho * alpha`` is
    finite and the config valid, but every completion radius from job 2 on
    overflows to inf: the indices stay at their bounds, so the caps stay the
    initial ones, and the run completes without a warning."""
    cfg, recipe, estimator = market
    cfg = replace(cfg, T=50)
    est = replace(estimator(cfg), alpha=2.0, u_rho=8.9e307)
    assert math.isfinite(est.u_rho * est.alpha)
    sim = Simulator(cfg, recipe, est_cfg=est)
    initial = np.asarray(sim.current_caps(1)).tolist()
    for t in range(1, cfg.T + 1):
        sim.step(t)
    assert sim.stats.N_it.any()
    assert (sim.stats.rho_hat_plus == cfg.rho_bounds[1]).all()
    assert (sim.stats.rho_hat_minus == cfg.rho_bounds[0]).all()
    assert np.asarray(sim.current_caps(cfg.T)).tolist() == initial
    assert not sim.trace().infeasible.any()


def test_reference400_plans_hand_on_a_range_and_desk48_plans_an_id_array():
    """The array form hands on a plan's active workers as a range when their
    ids form one run.  reference400 lists its cheap group first, and ties
    at cost 100 break by id, so every plan of its run past the caps' first
    move (job 2,067 at seed 7) is one.  desk48's groups interleave in cost,
    so none of its plans is one, and they keep the id array."""
    runs = (
        (reference_config(T=2200, seed=7), reference_recipe(), EstimatorConfig.defaults, range),
        (*desk48_market(1), desk_estimator, np.ndarray),
    )
    for cfg, recipe, estimator, kind in runs:
        sim = Simulator(cfg, recipe, est_cfg=estimator(cfg))
        kinds, plans = set(), set()
        for t in range(1, cfg.T + 1):
            sim.step(t)
            active, _, index = sim._plan
            if active is not None:
                kinds.add(type(active))
                plans.add(index)
        assert kinds == {kind} and len(plans) > 1, kind
