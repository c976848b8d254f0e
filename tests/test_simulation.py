"""Simulation loop: modes, determinism, regret accounting, set matching.

Tests marked ``on_both_branches`` run once with the whole job step on Python
floats and once on numpy arrays, whatever the market's size.
"""

import importlib
import math
import tempfile
from dataclasses import replace
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
    InfeasibleJob,
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
    desk_config,
    desk_estimator,
    desk_recipe,
    on_both_branches,
    reference_config,
    reference_recipe,
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
    active = sim.trace().fraction_table[0] > 0
    assert sim.stats.N_it.tolist() == active.astype(int).tolist()


@on_both_branches
def test_window_updates_only_when_work_covers_delta():
    cfg, recipe, est = small_market(T=30)
    trace = run(cfg, recipe, est_cfg=est)
    for fractions, completion, window in zip(
        trace.fraction_table, trace.completion_table, trace.window_table
    ):
        active = fractions > 0
        assert not np.isnan(completion[active]).any()
        short = completion[active] < cfg.delta
        assert np.all(window[active][short] == -1)
        assert np.all(window[active][~short] >= 0)
        assert np.isnan(completion[~active]).all() and not window[~active].any()


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
def test_per_job_infeasibility_is_recorded_not_raised():
    """Oracle-feasible but pessimistically infeasible at initialization: the
    infeasible jobs land in the trace and the run continues."""
    cfg, recipe = pessimistic_market()
    trace = run(cfg, recipe)
    assert trace.infeasible.any()
    assert len(trace) == 5
    summary = trace_summary(trace)
    assert summary["jobs_infeasible"] == int(trace.infeasible.sum())
    # an infeasible job records no work: an idle table row
    t = int(np.flatnonzero(trace.infeasible)[0])
    assert not trace.match[t] and trace.active_size[t] == 0
    for table in (trace.fraction_table, trace.payment_table, trace.utility_table):
        assert not table[t].any()
    assert np.isnan(trace.completion_table[t]).all() and not trace.window_table[t].any()


@on_both_branches
def test_feasible_at_init_stays_feasible():
    """Clamped indices make pessimistic caps never fall below their initial
    values, so an initially feasible run never hits an infeasible job."""
    cfg, recipe, est = small_market(T=300)
    trace = run(cfg, recipe, est_cfg=est)
    assert not trace.infeasible.any()


@on_both_branches
def test_allocations_respect_current_caps():
    cfg, recipe, est = small_market(T=40)
    sim = Simulator(cfg, recipe, est_cfg=est)
    for t in range(1, 41):
        caps = np.array(sim.current_caps(t))
        alloc = sw_greedy(sim.costs, caps)
        sim.step(t)  # step refreshes again with identical state
        fractions = sim.trace().fraction_table[-1]
        assert fractions == pytest.approx(alloc.fractions)
        assert np.all(fractions <= caps + 1e-15)
        assert math.fsum(fractions) == 1.0


def counting(monkeypatch, name):
    """Wrap ``crowdmarket.simulation.<name>`` and count the calls the loop makes."""
    calls = []
    fn = getattr(crowdmarket.simulation, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(crowdmarket.simulation, name, counted)
    return calls


@on_both_branches
def test_repeated_caps_reuse_the_allocation_and_payments(monkeypatch):
    """A job whose caps repeat the last feasible job's bit for bit computes no
    allocation or payments; every job's table row equals a fresh computation.
    The desk market's caps hold still for 545 jobs, then move."""
    greedy_calls = counting(monkeypatch, "sw_greedy")
    payment_calls = counting(monkeypatch, "job_payments")
    cfg = desk_config(T=600)
    sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
    greedy_calls.clear()  # the oracle allocation
    prev_caps, computed = None, 0
    for t in range(1, cfg.T + 1):
        caps = np.array(sim.current_caps(t))  # step refreshes again with identical state
        computed += caps.tobytes() != prev_caps
        prev_caps = caps.tobytes()
        sim.step(t)
        assert len(greedy_calls) == len(payment_calls) == computed
        alloc = sw_greedy(sim.costs, caps)
        pay = job_payments(alloc, caps, sim.costs, cfg.cost_bounds[1], true_costs=sim.costs)
        trace = sim.trace()
        assert not trace.infeasible[-1]
        assert trace.fraction_table[-1].tobytes() == alloc.fractions.tobytes()
        assert trace.payment_table[-1].tobytes() == pay.payments.tobytes()
        assert trace.utility_table[-1].tobytes() == pay.utilities.tobytes()
    assert 1 < computed < cfg.T


@on_both_branches
def test_infeasible_jobs_under_repeated_indices():
    """Feasible jobs, an infeasible one, jobs whose indices repeat it, then the
    last feasible indices and the infeasible ones again.  Each job's row is
    what ``sw_greedy`` makes of the caps of that job's own indices: an
    infeasible row, or that allocation.  The indices are set by hand after
    each real refresh."""
    cfg, recipe = pessimistic_market(T=9)
    n, beta_minus = cfg.n, [cfg.beta_bounds[0]] * cfg.n
    wide, other, tiny = [20.0, 25.0, 30.0], [15.0, 30.0, 40.0], [500.0] * n  # rho+
    script = [wide, wide, other, tiny, tiny, tiny, other, tiny, wide]
    refresh = WorkerStats.refresh_indices

    def scripted(self, t):
        refresh(self, t)
        indices = [script[t - 1], beta_minus]
        self._eager = indices if self._lists else np.array(indices)
        return self

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkerStats, "refresh_indices", scripted)
        sim = Simulator(cfg, recipe)
        for t in range(1, cfg.T + 1):
            sim.step(t)
    trace = sim.trace()
    for t, rho_plus in enumerate(script, start=1):
        caps = true_cap(np.array(rho_plus), np.array(beta_minus), cfg.D, cfg.epsilon)
        try:
            fractions, infeasible = sw_greedy(sim.costs, caps).fractions, False
        except InfeasibleJob:
            fractions, infeasible = np.zeros(n), True
        assert trace.infeasible[t - 1] == infeasible, t
        assert trace.fraction_table[t - 1].tobytes() == fractions.tobytes(), t
    assert trace.infeasible.tolist() == [rho_plus is tiny for rho_plus in script]


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
    """Known-means mode allocates once, draws no outcomes and learns nothing."""
    greedy_calls = counting(monkeypatch, "sw_greedy")
    sample_calls = counting(monkeypatch, "sample_outcome")
    cfg, recipe, est = small_market(T=50)
    sim = Simulator(cfg, recipe, est_cfg=est, mode="known-means")
    for t in range(1, cfg.T + 1):
        sim.step(t)
    trace = sim.trace()
    assert len(greedy_calls) == 2  # the oracle, then the first job
    assert not sample_calls
    assert np.all(np.asarray(sim.outcomes.cursor) == BLOCK)
    assert np.all(trace.fraction_table == sim.oracle.fractions)
    assert np.isnan(trace.completion_table).all() and not trace.window_table.any()
    assert not sim.stats.N_it.any() and not sim.stats.N_beta_it.any()


def test_names_patched_by_the_benchmark_tracer_exist(monkeypatch):
    """perfbench/run.py --trace 1 wraps these names through vars(owner)[name];
    renaming one makes it fail with a KeyError.  Its per-layer split needs
    every job of a list-branch desk run to call each layer through them:
    once per job, ``pessimistic_cap`` once per job whose eager indices
    changed, and ``record_window`` once per job that observed a window
    (every job at desk6's 0.5 window, about a third at a 3.0 window)."""
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
    count(crowdmarket.simulation, "sample_outcome")
    for delta in (0.5, 3.0):
        calls.clear()
        cfg = replace(desk_config(T=300), delta=delta)
        sim = Simulator(cfg, desk_recipe(), est_cfg=desk_estimator(cfg))
        assert sim._lists and sim.stats._lists and sim.outcomes._lists
        indices, moved = None, 0
        for t in range(1, cfg.T + 1):
            sim.step(t)
            last = indices
            indices = sim.stats.rho_hat_plus.tobytes() + sim.stats.beta_hat_minus.tobytes()
            moved += indices != last
        trace = sim.trace()
        observed = ((trace.fraction_table > 0) & (trace.window_table >= 0)).any(axis=1)
        assert not trace.infeasible.any()
        assert calls == {
            "refresh_indices": cfg.T,
            "pessimistic_cap": moved,
            "sample_outcome": cfg.T,
            "record_jct_sample": cfg.T,
            "record_window": int(observed.sum()),
        }, delta


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
    trace = run(cfg, recipe, est_cfg=est)
    flags_stored, _ = optimal_set_match(trace)
    oracle = sw_greedy(
        np.array([w.cost for w in trace.workers]),
        [min(1.0, min(cfg.D, w.mttf * -math.log1p(-cfg.epsilon)) / w.mjct) for w in trace.workers],
    )
    target = oracle.fractions > 0
    flags_recomputed = np.array(
        [
            not infeasible and np.array_equal(row > 0, target)
            for infeasible, row in zip(trace.infeasible, trace.fraction_table)
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
    got, want = _trace_csv_bytes(run(cfg, recipe, est_cfg=est, record_tables=False), tmp_path)
    assert got == want
    lines = got.split(b"\r\n")
    assert len(lines) == jobs + 2 and lines[-1] == b""
    assert lines[-2].startswith(b"%d," % jobs if jobs else b"t,")


@on_both_branches
def test_trace_csv_of_infeasible_jobs_matches_the_row_by_row_rule(tmp_path):
    cfg, recipe = pessimistic_market(T=40)
    trace = run(cfg, recipe, record_tables=False)
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
    trace = run(cfg, recipe, est_cfg=est, record_tables=False)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    last = path.read_text().strip().splitlines()[-1].split(",")
    summary = trace_summary(trace)
    assert last[6] == repr(summary["regret_avg_final"])
    total, avg = regret(trace)
    assert total == summary["regret_total"] == float(trace.regret_cum[-1])
    assert avg.tobytes() == trace.regret_avg.tobytes()


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


def test_crossover_moves_every_module_that_binds_the_list_max():
    """``on_both_branches`` reaches every module that reads ``_LIST_MAX``,
    found here from the source text rather than by conftest's search; a
    module it missed would keep its own branch in both runs."""
    src = Path(crowdmarket.__file__).parent
    binding = sorted(p.stem for p in src.glob("*.py") if "_LIST_MAX" in p.read_text())
    assert binding == ["allocation", "estimator", "market", "mechanism", "simulation"]
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
    near the window give all three window codes, and ``u_scale`` = 1 (the
    smallest valid second-moment bounds) drops samples early.  Every
    ``repeat``-th job is refreshed twice (0: none)."""
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


# Between them: infeasible jobs, all three window codes, samples that drop
# before the horizon, refilled blocks and repeated refreshes.
BRANCH_EXAMPLES = [
    branch_market(5, 0.5, (1.0, 1.0), (2.0, 2.0), 1.0, 2.0, 30, 0, 1),  # every job infeasible
    branch_market(2, 3.0, (1.0, 1.0), (1.0, 2.0), 1.0, 4.0, 300, 7, 2),
    branch_market(33, 1.2, (1.0, 2.0), (1.0, 2.0), 1.0, 2.0, 300, 1, 3),
    branch_market(32, 3.0, (1.0, 2.0), (1.0, 2.0), 100.0, 4.0, 30, 0, 4),
]


def _run_bytes(cfg, recipe, est, repeat):
    """Every output byte of one run: the trace CSV, the summary JSON, the
    estimator CSV and the per-worker tables; or the error it raised.  Also
    the list-branch facts the examples must cover."""
    try:
        sim = Simulator(cfg, recipe, est_cfg=est, record_tables=True)
        filed = []  # the keys of samples filed to drop before the horizon
        file = sim.stats._file
        sim.stats._file = lambda keys, *rest: (filed.extend(keys), file(keys, *rest))
        for t in range(1, cfg.T + 1):
            if repeat and t % repeat == 0:
                sim.current_caps(t)
            sim.step(t)
    except (ValueError, InfeasibleJob) as exc:
        return (type(exc), str(exc)), {}
    trace = sim.trace()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("trace.csv", "summary.json", "stats.csv")]
        trace_to_csv(trace, paths[0])
        summary_to_json(trace_summary(trace), paths[1])
        stats_to_csv(sim.stats, paths[2])
        files = [path.read_bytes() for path in paths]
    tables = [getattr(trace, name).tobytes() for name in (
        "infeasible", "cost", "payment", "active_size", "utility_min", "match",
        "fraction_table", "payment_table", "utility_table", "completion_table", "window_table",
    )]
    covered = {
        "infeasible": bool(trace.infeasible.any()),
        "codes": set(trace.window_table[trace.fraction_table > 0].tolist()),
        "dropped": any(key < math.log(cfg.T) for key in filed),
        "refilled": int(sim.stats.N_it.max()) > BLOCK,
        "repeated": bool(repeat) and cfg.T >= repeat,
    }
    return (*files, *tables), covered


@settings(max_examples=30, deadline=None)
@given(market=branch_markets())
@example(market=BRANCH_EXAMPLES[0])
@example(market=BRANCH_EXAMPLES[1])
@example(market=BRANCH_EXAMPLES[2])
@example(market=BRANCH_EXAMPLES[3])
def test_both_branches_give_the_same_run_bytes(market):
    """A whole run on Python floats and on numpy arrays writes the same trace
    CSV, summary JSON, estimator CSV and per-worker tables, or raises the
    same error with the same message."""
    outputs = {}
    for name, limit in BRANCHES.items():
        with crossover(limit):
            outputs[name] = _run_bytes(*market)[0]
    assert outputs["lists"] == outputs["arrays"]


def test_branch_examples_cover_the_job_step():
    covered = [_run_bytes(*market)[1] for market in BRANCH_EXAMPLES]
    for fact in ("infeasible", "dropped", "refilled", "repeated"):
        assert any(c.get(fact) for c in covered), fact
    assert set().union(*(c.get("codes", set()) for c in covered)) == {-1, 0, 1}


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
