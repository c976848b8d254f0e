"""Estimator state: recording, truncation, confidence indices, surrogate process.

``WorkerStats`` is the struct-of-arrays bank for a whole population; most
tests here drive a bank of one worker.  ``oracles.WorkerStats`` is the scalar
per-worker reference that the bank must match bit for bit.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmarket import (
    EstimatorConfig,
    InvalidConfig,
    WorkerStats,
    load_config,
    stats_to_csv,
    surrogate_expectation,
)

from crowdmarket.allocation import _LIST_MAX

import oracles
from oracles import truncated_mean
from conftest import on_both_branches, reference_config

RHO_BOUNDS = (50.0, 100.0)
BETA_BOUNDS = (25.0, 35.0)
DELTA = 0.5
HORIZON = 100_000
ONE = np.array([0])


def make_stats(
    alpha: float = 4.0, u_rho: float = 11000.0, u_beta: float = 2600.0, n: int = 1,
    delta: float = DELTA,
):
    est = EstimatorConfig(u_rho=u_rho, u_beta=u_beta, alpha=alpha)
    return WorkerStats(n, est, RHO_BOUNDS, BETA_BOUNDS, delta, horizon=HORIZON), est


def record_jct(stats: WorkerStats, tau: float, fraction: float) -> None:
    stats.record_jct_sample(ONE, [tau], [fraction])


def record_window(stats: WorkerStats, failed: bool) -> None:
    stats.record_window(ONE, [failed])


def test_defaults_are_valid_bounds():
    cfg = reference_config()
    est = EstimatorConfig.defaults(cfg)
    assert est.validate(cfg) is est
    assert est.u_rho == pytest.approx(100.0**2 * math.exp(0.25**2))
    assert est.u_beta == pytest.approx(2 * (35.0 + 0.5) ** 2)


def test_estimator_validation_rejects_bad_values():
    cfg = reference_config()
    with pytest.raises(InvalidConfig):
        EstimatorConfig(u_rho=100.0, u_beta=2600.0, alpha=4.0).validate(cfg)
    with pytest.raises(InvalidConfig):
        EstimatorConfig(u_rho=11000.0, u_beta=1.0, alpha=4.0).validate(cfg)
    with pytest.raises(InvalidConfig):
        EstimatorConfig(u_rho=11000.0, u_beta=2600.0, alpha=1.5).validate(cfg)
    for bad in ({"u_rho": math.inf}, {"u_beta": math.nan}, {"alpha": math.inf}):
        params = {"u_rho": 11000.0, "u_beta": 2600.0, "alpha": 4.0, **bad}
        with pytest.raises(InvalidConfig):
            EstimatorConfig(**params).validate(cfg)


def test_initialization_values():
    stats, _ = make_stats(n=3)
    assert (stats.rho_hat == 100.0).all()
    assert (stats.rho_hat_plus == 100.0).all()
    assert (stats.rho_hat_minus == 50.0).all()
    assert (stats.beta_hat == 25.0).all()
    assert (stats.beta_hat_plus == 35.0).all()
    assert (stats.beta_hat_minus == 25.0).all()
    assert (stats.eta == 0).all()
    assert (stats.N_it == 0).all() and (stats.N_beta_it == 0).all()


def test_record_jct_single_and_double_sample():
    stats, _ = make_stats()
    record_jct(stats, 25.0, 0.5)
    assert stats.N_it[0] == 1
    assert stats.rho_hat[0] == 50.0
    record_jct(stats, 60.0, 1.0)
    assert stats.N_it[0] == 2
    assert stats.rho_hat[0] == pytest.approx(55.0)
    with pytest.raises(ValueError):
        record_jct(stats, 0.0, 1.0)
    with pytest.raises(ValueError):
        record_jct(stats, 1.0, math.nan)


def test_record_jct_running_mean_matches_monte_carlo():
    stats, _ = make_stats()
    rng = np.random.default_rng(12)
    mean = 75.0
    sigma = 0.25
    draws = rng.lognormal(math.log(mean) - sigma**2 / 2, sigma, size=10_000)
    for d in draws:
        record_jct(stats, float(d), 1.0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(stats.rho_hat[0] - mean) < 3 * se
    assert stats.rho_hat[0] == pytest.approx(draws.mean())


def test_record_window_update_rules():
    stats, _ = make_stats()
    for _ in range(3):
        record_window(stats, failed=False)
    assert stats.eta[0] == 3 and stats.N_beta_it[0] == 0
    record_window(stats, failed=True)
    assert stats.beta_hat[0] == 1.5  # the one sample, delta * 3
    assert stats.eta[0] == 0
    assert stats.N_beta_it[0] == 1

    record_window(stats, failed=True)  # immediate failure records a zero
    assert stats.beta_hat[0] == 0.75
    assert stats.N_beta_it[0] == 2
    assert stats.eta[0] == 0

    for _ in range(4):
        record_window(stats, failed=False)
    assert stats.eta[0] == 4
    assert stats.N_beta_it[0] == 2


def test_truncated_mean_no_truncation():
    assert truncated_mean([1.0, 2.0, 3.0], u=1e6, t=10, alpha=4.0) == pytest.approx(2.0)


def test_truncated_mean_drops_outlier():
    # thresholds 10, 10*sqrt(2), 10*sqrt(3) drop the 100 but keep 1 and 2
    u = 100.0 * 4.0 * math.log(10.0)
    assert truncated_mean([1.0, 2.0, 100.0], u=u, t=10, alpha=4.0) == pytest.approx(1.0)


def test_truncated_mean_empty_returns_prior():
    assert truncated_mean([], u=100.0, t=5, alpha=4.0, prior=77.0) == 77.0


def test_truncated_mean_at_t_one_keeps_everything():
    assert truncated_mean([1e9], u=1.0, t=1, alpha=4.0) == pytest.approx(1e9)


@given(
    samples=st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=30),
    t=st.integers(min_value=1, max_value=10_000),
)
def test_truncated_mean_never_exceeds_plain_mean(samples, t):
    tm = truncated_mean(samples, u=3000.0, t=t, alpha=4.0)
    assert tm <= sum(samples) / len(samples) + 1e-12


@given(
    samples=st.lists(st.floats(min_value=0.01, max_value=500.0), min_size=1, max_size=40),
    t_seq=st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_incremental_tracker_matches_direct_formula(samples, t_seq):
    """The heap-based incremental mean of the scalar oracle agrees with the
    direct truncation rule (the bank matches the oracle bit for bit, below)."""
    tracker = oracles.TruncatedMeanTracker(u=11000.0, alpha=4.0)
    for x in samples:
        tracker.add(x)
    for t in sorted(t_seq):  # inclusion is monotone in t, queries must be ordered
        direct = truncated_mean(samples, u=11000.0, t=t, alpha=4.0)
        assert tracker.mean(t) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_refresh_keeps_initialization_without_samples():
    stats, _ = make_stats(n=2)
    record_jct(stats, 60.0, 1.0)  # worker 0 only
    stats.refresh_indices(100)
    assert stats.rho_hat_plus[1] == 100.0
    assert stats.rho_hat_minus[1] == 50.0
    assert (stats.beta_hat_plus == 35.0).all()
    assert (stats.beta_hat_minus == 25.0).all()


def test_refresh_rejects_jobs_out_of_range_or_order():
    stats, _ = make_stats()
    for bad in (0, HORIZON + 1):
        with pytest.raises(ValueError):
            stats.refresh_indices(bad)
    stats.refresh_indices(10)
    stats.refresh_indices(10)  # a repeat is fine
    with pytest.raises(ValueError):
        stats.refresh_indices(9)


def test_refresh_radius_formula():
    """radius = 4*sqrt(u*alpha*log(t)/N); at u=1e4, alpha=4, N=t=1e4 it is ~24.28."""
    n, t, u, alpha = 10_000, 10_000, 1e4, 4.0
    stats, _ = make_stats(alpha=alpha, u_rho=u)
    for _ in range(n):
        record_jct(stats, 60.0, 1.0)
    stats.refresh_indices(t)
    radius = 4.0 * math.sqrt(u * alpha * math.log(t) / n)
    assert radius == pytest.approx(24.2788, abs=1e-3)
    # early samples sit above their (index-dependent) truncation thresholds
    kept = sum(1 for k in range(1, n + 1) if 60.0 <= math.sqrt(u * k / (alpha * math.log(t))))
    center = 60.0 * kept / n
    assert stats.rho_hat_plus[0] == pytest.approx(center + radius)
    assert stats.rho_hat_minus[0] == 50.0  # clamped at the lower bound


def test_refresh_clamps_to_bounds():
    stats, _ = make_stats()
    record_jct(stats, 60.0, 1.0)  # one sample leaves a huge radius
    stats.refresh_indices(10)
    assert stats.rho_hat_plus[0] == 100.0
    assert stats.rho_hat_minus[0] == 50.0


def test_pessimistic_cap_values():
    """The caps of the initial indices, rho+ = rho_max and beta- = beta_min."""
    stats, est = make_stats()
    # reference regime: rho+ = 100, beta- = 25, D = 50, eps = 0.01
    assert stats.pessimistic_cap(50.0, 0.01)[0] == pytest.approx(0.0025126, abs=1e-7)

    def initial(rho_plus, beta_minus):
        bounds = (rho_plus / 2, rho_plus), (beta_minus, 2 * beta_minus)
        return WorkerStats(1, est, *bounds, 0.1, horizon=HORIZON)

    # failure budget above D: deadline binds
    assert initial(50.0, 5000.0).pessimistic_cap(50.0, 0.5)[0] == pytest.approx(1.0)
    assert initial(2.0, 2.0).pessimistic_cap(1.0, 0.5)[0] == pytest.approx(0.5)


def test_surrogate_expectation_closed_forms():
    assert surrogate_expectation(1.0, 0.1) == pytest.approx(1.05083, abs=1e-5)
    assert surrogate_expectation(1.0, 1e-6) == pytest.approx(1.0000005, abs=1e-7)
    beta = 2.0
    assert surrogate_expectation(beta, beta) == pytest.approx(beta / (1 - math.exp(-1)))
    with pytest.raises(ValueError):
        surrogate_expectation(0.0, 0.1)


def test_surrogate_expectation_against_geometric_oracle():
    """delta times the mean geometric trial count reproduces the closed form."""
    beta, delta = 1.0, 0.1
    p = 1.0 - math.exp(-delta / beta)
    rng = np.random.default_rng(31)
    trials = rng.geometric(p, size=200_000)  # includes the failing window
    mc = delta * trials.mean()
    se = delta * trials.std(ddof=1) / math.sqrt(trials.size)
    assert abs(mc - surrogate_expectation(beta, delta)) < 3 * se


def test_recorded_surrogate_mean_converges_to_shifted_expectation():
    """The recorded delta*eta samples average to surrogate_expectation - delta,
    because the failing window itself is excluded from the streak.  A bank of
    50 workers runs the window process side by side, each long enough that
    the unfinished last streak biases nothing; the samples are rebuilt from
    the flags to check the bank's counts and running means."""
    beta, delta, n, windows = 30.0, 0.5, 50, 25_000
    stats, _ = make_stats(n=n, delta=delta)
    p = 1.0 - math.exp(-delta / beta)
    rng = np.random.default_rng(17)
    fails = rng.random((windows, n)) < p
    everyone = np.arange(n)
    for row in fails:
        stats.record_window(everyone, row)
    per_worker = []
    for flags in fails.T:
        streaks = np.diff(np.flatnonzero(np.concatenate(([True], flags)))) - 1
        per_worker.append(delta * streaks)
    samples = np.concatenate(per_worker)
    assert stats.N_beta_it.tolist() == [s.size for s in per_worker]
    recorded = stats.N_beta_it > 0
    means = np.array([s.mean() for s in per_worker if s.size])
    assert stats.beta_hat[recorded] == pytest.approx(means, rel=1e-12)
    expected = surrogate_expectation(beta, delta) - delta
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert samples.size >= 20_000
    assert abs(samples.mean() - expected) < 3 * se


@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["jct", "window"]),
            st.floats(min_value=0.1, max_value=500.0),
            st.booleans(),
        ),
        max_size=60,
    ),
    t=st.integers(min_value=1, max_value=100_000),
)
@settings(max_examples=150)
def test_indices_stay_ordered_and_clamped(data, t):
    stats, _ = make_stats()
    for kind, value, failed in data:
        if kind == "jct":
            record_jct(stats, value, 1.0)
        else:
            record_window(stats, failed)
    stats.refresh_indices(t)
    assert RHO_BOUNDS[0] <= stats.rho_hat_minus[0] <= stats.rho_hat_plus[0] <= RHO_BOUNDS[1]
    assert BETA_BOUNDS[0] <= stats.beta_hat_minus[0] <= stats.beta_hat_plus[0] <= BETA_BOUNDS[1]
    assert stats.eta[0] >= 0
    assert stats.N_it[0] == sum(kind == "jct" for kind, _, _ in data)
    assert stats.N_beta_it[0] == sum(kind == "window" and failed for kind, _, failed in data)


def test_index_coverage_smoke():
    """True mean inside [LCB, UCB] on a short trajectory batch, one bank
    worker per trajectory; the full-size coverage check lives in the
    acceptance suite."""
    cfg = reference_config()
    est = EstimatorConfig.defaults(cfg)
    rng = np.random.default_rng(5)
    rho, sigma = 62.5, cfg.sigma_log
    trajectories, horizon = 200, 25
    draws = rng.lognormal(math.log(rho) - sigma**2 / 2, sigma, size=(trajectories, horizon))
    stats = WorkerStats(trajectories, est, cfg.rho_bounds, cfg.beta_bounds, cfg.delta, horizon)
    everyone, whole = np.arange(trajectories), np.ones(trajectories)
    misses = checks = 0
    for t in range(1, horizon + 1):
        stats.record_jct_sample(everyone, draws[:, t - 1], whole)
        stats.refresh_indices(t)
        if t >= 10:
            checks += trajectories
            misses += int((~((stats.rho_hat_minus <= rho) & (rho <= stats.rho_hat_plus))).sum())
    assert misses / checks <= 0.001


def test_stats_csv_snapshot(tmp_path):
    stats, _ = make_stats()
    record_jct(stats, 50.0, 1.0)
    stats.refresh_indices(2)
    path = tmp_path / "stats.csv"
    stats_to_csv(stats, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "id,N_it,rho_hat,rho_hat_plus,rho_hat_minus,N_beta_it,beta_hat,beta_hat_minus,eta"
    )
    row = lines[1].split(",")
    assert row[1] == "1"


def _assert_bank_matches(bank: WorkerStats, scalars: list, D: float, eps: float) -> None:
    """Bitwise equality of counts, kept sums, the four indices and the caps."""
    caps = np.asarray(bank.pessimistic_cap(D, eps)).tolist()
    kept_rho, kept_beta = np.asarray(bank._kept).tolist()  # the running truncated sums
    for i, s in enumerate(scalars):
        assert (int(bank.N_it[i]), int(bank.N_beta_it[i]), int(bank.eta[i])) == (
            s.N_it, s.N_beta_it, s.eta
        )
        assert (kept_rho[i], kept_beta[i]) == (s._jct._kept_sum, s._beta._kept_sum)
        got = [float(a[i]) for a in (
            bank.rho_hat, bank.rho_hat_plus, bank.rho_hat_minus,
            bank.beta_hat, bank.beta_hat_plus, bank.beta_hat_minus,
        )]
        assert got == [s.rho_hat, s.rho_hat_plus, s.rho_hat_minus,
                       s.beta_hat, s.beta_hat_plus, s.beta_hat_minus]
        assert caps[i] == s.pessimistic_cap(D, eps)


# A few repeated values, small enough that early samples drop out within the
# horizon and large enough that some never do.  0.3 and 0.6 are a doubling
# pair: a worker's k-th sample 0.3 and its 4k-th sample 0.6 have bit-equal keys.
_VALUES = st.sampled_from([0.1, 0.3, 0.6, 0.7, 1.1, 1.1, 3.3, 7.7, 20.0])


@given(
    n=st.integers(min_value=1, max_value=4),
    jobs=st.lists(
        st.tuples(
            st.booleans(),  # refresh before this job (else the job's refresh is skipped)
            # per worker: a completion sample?, its tau, a window observed?, did it fail?
            st.lists(st.tuples(st.booleans(), _VALUES, st.booleans(), st.booleans()),
                     min_size=4, max_size=4),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
@on_both_branches
def test_bank_matches_scalar_oracle(n, jobs):
    """The bank reproduces n scalar heap-based estimators bit for bit, through
    skipped refreshes, zero-valued surrogate samples (key inf, from back-to-back
    failures) and repeated sample values."""
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)
    rho_bounds, beta_bounds, delta, D, eps = (0.1, 30.0), (1.0, 9.0), 0.5, 5.0, 0.2
    bank = WorkerStats(n, est, rho_bounds, beta_bounds, delta, horizon=len(jobs))
    scalars = [oracles.WorkerStats(est, rho_bounds, beta_bounds, delta) for _ in range(n)]
    for t, (refresh, per_worker) in enumerate(jobs, start=1):
        if refresh:
            bank.refresh_indices(t)
            for s in scalars:
                s.refresh_indices(t, est)
        _assert_bank_matches(bank, scalars, D, eps)
        moves = per_worker[:n]
        sampled = [i for i, (jct, _, _, _) in enumerate(moves) if jct]
        for i in sampled:
            scalars[i].record_jct_sample(moves[i][1], 0.5)
        bank.record_jct_sample(sampled, [moves[i][1] for i in sampled], [0.5] * len(sampled))
        observed = [i for i, (_, _, seen, _) in enumerate(moves) if seen]
        for i in observed:
            scalars[i].record_window(moves[i][3])
        bank.record_window(observed, [moves[i][3] for i in observed])
    _assert_bank_matches(bank, scalars, D, eps)


@on_both_branches
def test_a_surrogate_whose_key_overflows_is_kept_without_a_warning():
    """A failure surrogate ``delta * eta`` whose square is subnormal gives a
    key that overflows to inf, so it never drops out; both forms record it
    without a warning (which the test run would raise)."""
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)
    bank = WorkerStats(2, est, (0.1, 30.0), (1.0, 9.0), 1e-160, horizon=50)
    bank.record_window([0, 1], [False, False]).record_window([1, 0], [False, True])
    assert bank.N_beta_it.tolist() == [1, 0] and bank.beta_hat.tolist() == [1e-160, 1.0]
    assert bank._keys.size == 0 and bank._next_key == math.inf


ROOT = Path(__file__).resolve().parent.parent


def _benchmark_sides() -> dict[str, str]:
    """The side of the one crossover ``_LIST_MAX`` that each benchmark
    workload runs on, from the worker count of its config (``n``) or of its
    largest instance (``n_max``)."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    sides = {}
    for name, w in workloads.WORKLOADS.items():
        n = getattr(w, "n_max", None) or load_config(ROOT / w.config)[0].n
        sides[name] = "lists" if n <= _LIST_MAX else "arrays"
    return sides


@pytest.mark.parametrize("n", [6, 400])
@on_both_branches
def test_bank_matches_scalar_oracle_on_both_sides_of_the_list_threshold(n):
    """The bank holds Python lists up to ``_LIST_MAX`` workers and numpy
    arrays above, and each size runs here in both forms; every run gives the
    oracle's counts, kept sums and indices bit for bit over 50 jobs.  The
    last job is refreshed again after its samples arrive, which must drop
    those already due by then, as the oracle's heap does.  The same
    crossover decides the form of the whole job step, and it puts each
    benchmark workload on its intended side: desk6 (n = 6) and the deviation
    sweeps (n <= 8) on lists, reference400 on arrays."""
    assert _benchmark_sides() == {
        "desk6-learning": "lists",
        "dsic-sweep": "lists",
        "ref400-learning": "arrays",
        "ref400-known-means": "arrays",
    }
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)
    rho_bounds, beta_bounds, delta, D, eps = (0.1, 30.0), (1.0, 9.0), 0.5, 5.0, 0.2
    jobs = 50
    bank = WorkerStats(n, est, rho_bounds, beta_bounds, delta, horizon=jobs)
    scalars = [oracles.WorkerStats(est, rho_bounds, beta_bounds, delta) for _ in range(n)]
    values = np.array([0.1, 0.3, 0.7, 1.1, 3.3, 7.7, 20.0])
    rng = np.random.default_rng(n)
    for t in range(1, jobs + 1):
        if t % 7:  # some jobs skip their refresh
            bank.refresh_indices(t)
            for s in scalars:
                s.refresh_indices(t, est)
        sampled = np.flatnonzero(rng.random(n) < 0.9)
        tau = rng.choice(values, sampled.size)
        bank.record_jct_sample(sampled, tau, np.full(sampled.size, 0.5))
        for i, x in zip(sampled.tolist(), tau.tolist()):
            scalars[i].record_jct_sample(x, 0.5)
        observed = np.flatnonzero(rng.random(n) < 0.8)
        failed = rng.random(observed.size) < 0.4
        bank.record_window(observed, failed)
        for i, f in zip(observed.tolist(), failed.tolist()):
            scalars[i].record_window(f)
        if t % 10 == 0:
            _assert_bank_matches(bank, scalars, D, eps)
    bank.refresh_indices(jobs)  # job 50 again
    for s in scalars:
        s.refresh_indices(jobs, est)
    _assert_bank_matches(bank, scalars, D, eps)


@on_both_branches
def test_drop_boundary_key_equal_to_log_t():
    """A sample whose drop key equals log t exactly is still in at job t and
    out at t + 1, in the bank and in the scalar oracle alike."""
    t0 = 10
    # key = u * 1 / (alpha * 1 * 1) = u / 4 = log(t0) exactly
    est = EstimatorConfig(u_rho=4.0 * math.log(t0), u_beta=2600.0, alpha=4.0)
    bank = WorkerStats(1, est, RHO_BOUNDS, BETA_BOUNDS, DELTA, horizon=t0 + 1)
    scalar = oracles.WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, DELTA)
    bank.record_jct_sample(ONE, [1.0], [1.0])
    scalar.record_jct_sample(1.0, 1.0)
    for t, kept in ((t0, 1.0), (t0 + 1, 0.0)):
        bank.refresh_indices(t)
        scalar.refresh_indices(t, est)
        assert bank._kept[0][0] == scalar._jct._kept_sum == kept
        assert bank.rho_hat_plus[0] == scalar.rho_hat_plus


@on_both_branches
def test_samples_whose_square_underflows_never_drop():
    """A positive sample whose square is 0 or subnormal has drop key inf, or
    one too large to reach, and is kept for good, as a sample of 0 is; in a
    batch with samples that do drop, and with huge ones whose square
    overflows (key 0), alike in the bank and the scalar oracle."""
    est = EstimatorConfig(u_rho=40.0, u_beta=3.0, alpha=2.0)
    rho_bounds, beta_bounds, delta, D, eps = (0.1, 30.0), (1.0, 9.0), 0.5, 5.0, 0.2
    batches = ([1e-170, 1e-160, 20.0], [20.0, 1e-170, 1e-160], [1e-320, 1e160, 1e-160])
    bank = WorkerStats(3, est, rho_bounds, beta_bounds, delta, horizon=50)
    scalars = [oracles.WorkerStats(est, rho_bounds, beta_bounds, delta) for _ in range(3)]
    for t, tau in enumerate(batches, start=1):
        bank.refresh_indices(t)
        bank.record_jct_sample([0, 1, 2], tau, [1.0] * 3)
        for s, x in zip(scalars, tau):
            s.refresh_indices(t, est)
            s.record_jct_sample(x, 1.0)
    for t in (10, 50):
        bank.refresh_indices(t)
        for s in scalars:
            s.refresh_indices(t, est)
        _assert_bank_matches(bank, scalars, D, eps)
    # Only the samples 20.0 and 1e160 drop; worker 2 keeps both of its
    # 1e-160, and the drops leave workers 0 and 1 what rounding kept of the rest.
    assert np.asarray(bank._kept)[0].tolist() == [1e-320, 0.0, 2e-160]


@pytest.mark.parametrize("n", [1, 40])
@on_both_branches
def test_equal_keys_drop_in_value_order(n):
    """Each worker's sample x (its c-th) and sample 2x (its 4c-th) have
    bit-equal keys and drop in the same refresh, and the two subtraction
    orders leave different kept sums.  The bank subtracts x first, as the
    oracle's heap pops (key, value), on both sides of the list threshold."""
    est = EstimatorConfig(u_rho=0.1, u_beta=3.0, alpha=2.0)
    rho_bounds, beta_bounds, delta, D, eps = (0.1, 30.0), (1.0, 9.0), 0.5, 5.0, 0.2
    x, c, filler = 0.3, 2, 0.01  # a filler's key is at least 500, so it never drops
    key = est.u_rho * c / (est.alpha * x * x)
    assert key == est.u_rho * (4 * c) / (est.alpha * (2 * x) * (2 * x))
    assert math.log(3) < key < math.log(4)
    bank = WorkerStats(n, est, rho_bounds, beta_bounds, delta, horizon=10)
    scalars = [oracles.WorkerStats(est, rho_bounds, beta_bounds, delta) for _ in range(n)]
    for k in range(1, 4 * c + 1):
        v = x if k == c else 2 * x if k == 4 * c else filler
        bank.record_jct_sample(list(range(n)), [v] * n, [1.0] * n)
        for s in scalars:
            s.record_jct_sample(v, 1.0)
    for t in (3, 4):  # both samples are kept at job 3 and dropped at job 4
        kept = np.array(bank._kept)[0].tolist()
        bank.refresh_indices(t)
        for s in scalars:
            s.refresh_indices(t, est)
        _assert_bank_matches(bank, scalars, D, eps)
    assert all(b - x - 2 * x != b - 2 * x - x for b in kept)
    assert np.array(bank._kept)[0].tolist() == [b - x - 2 * x for b in kept]


@on_both_branches
def test_readers_return_arrays_that_later_refreshes_leave_alone():
    """The array form records samples and refreshes the indices in place, in
    arrays it keeps; arrays the readers handed out before stay as they were,
    in both forms."""
    stats, _ = make_stats(n=2, u_rho=110.0)
    record_jct(stats, 60.0, 1.0)
    record_window(stats, False)
    stats.refresh_indices(10)
    names = (
        "rho_hat_plus", "beta_hat_minus", "rho_hat_minus", "beta_hat_plus",
        "eta", "rho_hat", "beta_hat", "N_it", "N_beta_it",
    )
    read = {name: getattr(stats, name) for name in names}
    saved = {name: a.copy() for name, a in read.items()}
    for k in range(50):
        record_jct(stats, 40.0 + k, 1.0)
        record_window(stats, k % 3 == 1)
    stats.refresh_indices(1000)
    for name in names:
        assert read[name].tobytes() == saved[name].tobytes(), name
    assert stats.rho_hat_plus[0] < saved["rho_hat_plus"][0]  # the refresh moved it
    assert stats.eta[0] != saved["eta"][0] and stats.N_beta_it[0] > saved["N_beta_it"][0]


@on_both_branches
def test_stats_csv_bytes_match_scalar_states(tmp_path):
    """The bank's CSV is byte-identical to the per-worker CSV of the same
    states kept by scalar estimators."""
    est = EstimatorConfig(u_rho=11000.0, u_beta=2600.0, alpha=4.0)
    n = 3
    bank = WorkerStats(n, est, RHO_BOUNDS, BETA_BOUNDS, DELTA, horizon=50)
    scalars = [oracles.WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, DELTA) for _ in range(n)]
    rng = np.random.default_rng(4)
    for t in range(1, 51):
        bank.refresh_indices(t)
        for s in scalars:
            s.refresh_indices(t, est)
        tau = rng.uniform(20.0, 90.0, size=n)
        failed = rng.random(n) < 0.3
        bank.record_jct_sample([0, 2], tau[[0, 2]], [0.5, 0.5])
        bank.record_window([0, 1, 2], failed)
        for i in (0, 2):
            scalars[i].record_jct_sample(float(tau[i]), 0.5)
        for i in range(n):
            scalars[i].record_window(bool(failed[i]))
    stats_to_csv(bank, tmp_path / "bank.csv")
    oracles.stats_to_csv(scalars, tmp_path / "scalar.csv")
    assert (tmp_path / "bank.csv").read_bytes() == (tmp_path / "scalar.csv").read_bytes()
