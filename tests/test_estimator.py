"""Estimator state: recording, truncation, confidence indices, surrogate process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmarket import (
    EstimatorConfig,
    InvalidConfig,
    WorkerStats,
    stats_to_csv,
    surrogate_expectation,
    truncated_mean,
)

from conftest import reference_config

RHO_BOUNDS = (50.0, 100.0)
BETA_BOUNDS = (25.0, 35.0)
DELTA = 0.5


def make_stats(alpha: float = 4.0, u_rho: float = 11000.0, u_beta: float = 2600.0):
    est = EstimatorConfig(u_rho=u_rho, u_beta=u_beta, alpha=alpha)
    return WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, DELTA), est


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
    stats, _ = make_stats()
    assert stats.rho_hat == 100.0
    assert stats.rho_hat_plus == 100.0
    assert stats.rho_hat_minus == 50.0
    assert stats.beta_hat == 25.0
    assert stats.beta_hat_plus == 35.0
    assert stats.beta_hat_minus == 25.0
    assert stats.eta == 0
    assert stats.N_it == 0 and stats.N_beta_it == 0


def test_record_jct_single_and_double_sample():
    stats, _ = make_stats()
    stats.record_jct_sample(25.0, 0.5)
    assert stats.jct_samples == [50.0]
    assert stats.N_it == 1
    assert stats.rho_hat == 50.0
    stats.record_jct_sample(60.0, 1.0)
    assert stats.rho_hat == pytest.approx(55.0)


def test_record_jct_running_mean_matches_monte_carlo():
    stats, _ = make_stats()
    rng = np.random.default_rng(12)
    mean = 75.0
    sigma = 0.25
    draws = rng.lognormal(math.log(mean) - sigma**2 / 2, sigma, size=10_000)
    for d in draws:
        stats.record_jct_sample(float(d), 1.0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(stats.rho_hat - mean) < 3 * se
    assert stats.rho_hat == pytest.approx(draws.mean())


def test_record_window_update_rules():
    stats, _ = make_stats()
    stats.eta = 3
    stats.record_window(failed=True)
    assert stats.beta_samples == [1.5]
    assert stats.eta == 0
    assert stats.N_beta_it == 1

    stats.record_window(failed=True)  # immediate failure records a zero
    assert stats.beta_samples == [1.5, 0.0]
    assert stats.eta == 0

    stats.eta = 3
    stats.record_window(failed=False)
    assert stats.eta == 4
    assert stats.N_beta_it == 2


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
    """The heap-based incremental mean agrees with the direct truncation rule."""
    est = EstimatorConfig(u_rho=11000.0, u_beta=2600.0, alpha=4.0)
    stats = WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, DELTA)
    for x in samples:
        stats.record_jct_sample(x, 1.0)
    for t in sorted(t_seq):  # inclusion is monotone in t, queries must be ordered
        direct = truncated_mean(samples, u=est.u_rho, t=t, alpha=est.alpha)
        incremental = stats._jct.mean(t)
        assert incremental == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_refresh_keeps_initialization_without_samples():
    stats, est = make_stats()
    stats.refresh_indices(100, est)
    assert stats.rho_hat_plus == 100.0
    assert stats.rho_hat_minus == 50.0
    assert stats.beta_hat_plus == 35.0
    assert stats.beta_hat_minus == 25.0


def test_refresh_radius_formula():
    """radius = 4*sqrt(u*alpha*log(t)/N); at u=1e4, alpha=4, N=t=1e4 it is ~24.28."""
    n, t, u, alpha = 10_000, 10_000, 1e4, 4.0
    est = EstimatorConfig(u_rho=u, u_beta=2600.0, alpha=alpha)
    stats = WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, DELTA)
    for _ in range(n):
        stats.record_jct_sample(60.0, 1.0)
    stats.refresh_indices(t, est)
    radius = 4.0 * math.sqrt(u * alpha * math.log(t) / n)
    assert radius == pytest.approx(24.2788, abs=1e-3)
    # early samples sit above their (index-dependent) truncation thresholds
    kept = sum(1 for k in range(1, n + 1) if 60.0 <= math.sqrt(u * k / (alpha * math.log(t))))
    center = 60.0 * kept / n
    assert stats.rho_hat_plus == pytest.approx(center + radius)
    assert stats.rho_hat_minus == 50.0  # clamped at the lower bound


def test_refresh_clamps_to_bounds():
    stats, est = make_stats()
    stats.record_jct_sample(60.0, 1.0)  # one sample leaves a huge radius
    stats.refresh_indices(10, est)
    assert stats.rho_hat_plus == 100.0
    assert stats.rho_hat_minus == 50.0


def test_pessimistic_cap_values():
    stats, est = make_stats()
    # reference regime: rho+ = 100, beta- = 25, D = 50, eps = 0.01
    assert stats.pessimistic_cap(50.0, 0.01) == pytest.approx(0.0025126, abs=1e-7)

    stats.rho_hat_plus = 50.0
    stats.beta_hat_minus = 5000.0  # failure budget above D: deadline binds
    assert stats.pessimistic_cap(50.0, 0.5) == pytest.approx(1.0)

    stats.rho_hat_plus = 2.0
    stats.beta_hat_minus = 2.0
    assert stats.pessimistic_cap(1.0, 0.5) == pytest.approx(0.5)


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
    because the failing window itself is excluded from the streak."""
    beta, delta = 30.0, 0.5
    est = EstimatorConfig(u_rho=11000.0, u_beta=2600.0, alpha=4.0)
    stats = WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, delta)
    p = 1.0 - math.exp(-delta / beta)
    rng = np.random.default_rng(17)
    fails = rng.random(2_000_000) < p
    for f in fails:
        stats.record_window(bool(f))
        if stats.N_beta_it >= 20_000:
            break
    samples = np.array(stats.beta_samples)
    expected = surrogate_expectation(beta, delta) - delta
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert samples.size >= 20_000
    assert abs(samples.mean() - expected) < 3 * se
    assert stats.beta_hat == pytest.approx(samples.mean())


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
    est = EstimatorConfig(u_rho=11000.0, u_beta=2600.0, alpha=4.0)
    stats = WorkerStats(est, RHO_BOUNDS, BETA_BOUNDS, DELTA)
    for kind, value, failed in data:
        if kind == "jct":
            stats.record_jct_sample(value, 1.0)
        else:
            stats.record_window(failed)
    stats.refresh_indices(t, est)
    assert RHO_BOUNDS[0] <= stats.rho_hat_minus <= stats.rho_hat_plus <= RHO_BOUNDS[1]
    assert BETA_BOUNDS[0] <= stats.beta_hat_minus <= stats.beta_hat_plus <= BETA_BOUNDS[1]
    assert stats.eta >= 0
    assert stats.N_it == len(stats.jct_samples)
    assert stats.N_beta_it == len(stats.beta_samples)


def test_index_coverage_smoke():
    """True mean inside [LCB, UCB] on a short trajectory batch; the full-size
    coverage check lives in the acceptance suite."""
    cfg = reference_config()
    est = EstimatorConfig.defaults(cfg)
    rng = np.random.default_rng(5)
    rho, sigma = 62.5, cfg.sigma_log
    misses = checks = 0
    for _ in range(200):
        stats = WorkerStats(est, cfg.rho_bounds, cfg.beta_bounds, cfg.delta)
        for t in range(1, 26):
            stats.record_jct_sample(
                float(rng.lognormal(math.log(rho) - sigma**2 / 2, sigma)), 1.0
            )
            stats.refresh_indices(t, est)
            if t >= 10:
                checks += 1
                if not stats.rho_hat_minus <= rho <= stats.rho_hat_plus:
                    misses += 1
    assert misses / checks <= 0.001


def test_stats_csv_snapshot(tmp_path):
    stats, est = make_stats()
    stats.record_jct_sample(50.0, 1.0)
    stats.refresh_indices(2, est)
    path = tmp_path / "stats.csv"
    stats_to_csv([stats], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "id,N_it,rho_hat,rho_hat_plus,rho_hat_minus,N_beta_it,beta_hat,beta_hat_minus,eta"
    )
    row = lines[1].split(",")
    assert row[1] == "1"
