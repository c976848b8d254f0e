"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

Criteria 5 and 6 name a forty-worker variant of the reference market at
epsilon = 0.01.  That instance cannot run: its per-worker caps are at most
min(50, 35 * ln(1/0.99)) / 50 ~ 0.007, so all forty caps sum to ~0.21 < 1 and
every job is infeasible (the four-hundred-worker original is feasible only
because four hundred such caps sum to ~1.7).  Those two tests are therefore
strict expected failures documenting the defect, and the convergence claims
they were meant to check run against the rescaled desk market from conftest
(feasible from job one, same two-tier structure), at the original thresholds.
"""

import math
import time

import numpy as np
import pytest

from crowdmarket import (
    EstimatorConfig,
    InfeasibleJob,
    WorkerStats,
    deviation_sweep,
    optimal_set_match,
    random_frozen_instance,
    regret,
    run,
    surrogate_expectation,
    sw_greedy,
)
from crowdmarket.cli import main as cli_main

import oracles
from conftest import (
    desk_config,
    desk_estimator,
    desk_recipe,
    enumeration_optimum,
    reference_config,
    reference_recipe,
    run_against_literal,
)

DESK_SEEDS = range(1000, 1020)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def desk_runs():
    """Twenty seeded learning runs plus their known-means baselines."""
    pairs = []
    for seed in DESK_SEEDS:
        cfg = desk_config(seed=seed)
        est = desk_estimator(cfg)
        learning = run(cfg, desk_recipe(), est_cfg=est)
        baseline = run(cfg, desk_recipe(), est_cfg=est, mode="known-means")
        pairs.append((learning, baseline))
    return pairs


def test_criterion_1_dsic_deviation_sweeps():
    """No profitable unilateral deviation on 200 random frozen instances."""
    rng = np.random.default_rng(20240)
    t0 = time.time()
    max_gain = -math.inf
    sweeps = 0
    for _ in range(200):
        inst = random_frozen_instance(rng, n_max=8)
        for i in range(len(inst.costs)):
            max_gain = max(max_gain, deviation_sweep(inst, i))
            sweeps += 1
    elapsed = time.time() - t0
    ok = max_gain <= 1e-9 and elapsed < 60.0
    _report("1 dsic", ok, f"max gain {max_gain:.2e} over {sweeps} sweeps, {elapsed:.1f}s")
    assert max_gain <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_individual_rationality(desk_runs, tmp_path):
    """Truthful utilities non-negative in every job of every acceptance run,
    exactly (no tolerance)."""
    worst = math.inf
    jobs = 0
    for learning, baseline in desk_runs:
        for tr in (learning, baseline):
            feasible = ~tr.infeasible
            worst = min(worst, float(tr.utility_min[feasible].min()))
            jobs += int(feasible.sum())
    # add a reference-scale run, checked worker by worker through the
    # utilities of the literal loop, whose series equal that run's own
    cfg = reference_config(T=50, seed=123)
    est = EstimatorConfig.defaults(cfg)
    tr, literal = run_against_literal(cfg, reference_recipe(), est, "learning", tmp_path)
    worst = min(worst, min(map(min, literal["utilities"])))
    jobs += len(tr)
    ok = worst >= 0.0
    _report("2 ir", ok, f"min utility {worst:.3e} across {jobs} jobs")
    assert worst >= 0.0


def test_criterion_3_failure_surrogate_bias():
    """Recorded surrogate samples average to the closed form
    delta*e^(-delta/beta)/(1 - e^(-delta/beta)); shrinking the window walks
    the mean monotonically toward the true failure mean."""
    beta = 1.0
    est = EstimatorConfig(u_rho=10.0, u_beta=10.0, alpha=4.0)

    def surrogate_mc(delta: float, n_samples: int, seed: int) -> tuple[float, float]:
        stats = oracles.WorkerStats(est, (1.0, 2.0), (beta, beta + 1.0), delta)
        p = 1.0 - math.exp(-delta / beta)
        rng = np.random.default_rng(seed)
        flags = rng.random(int(n_samples / p * 1.3) + 1000) < p
        for f in flags:
            stats.record_window(bool(f))
            if stats.N_beta_it >= n_samples:
                break
        samples = np.array(stats.beta_samples)
        return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))

    expected = surrogate_expectation(beta, 0.1) - 0.1
    assert expected == pytest.approx(0.95083, abs=1e-5)
    mean, se = surrogate_mc(0.1, 100_000, seed=42)
    bias_ok = abs(mean - expected) < 3 * se

    sweep_means = {d: surrogate_mc(d, 100_000, seed=1_000 + int(d * 1e3))[0]
                   for d in (0.2, 0.1, 0.05)}
    monotone_ok = sweep_means[0.2] < sweep_means[0.1] < sweep_means[0.05] < beta
    ok = bias_ok and monotone_ok
    _report(
        "3 surrogate", ok,
        f"mean {mean:.5f} vs {expected:.5f} (3se={3 * se:.5f}); "
        f"sweep {sweep_means[0.2]:.4f} < {sweep_means[0.1]:.4f} < {sweep_means[0.05]:.4f}",
    )
    assert bias_ok
    assert monotone_ok


def test_criterion_4_greedy_is_optimal():
    """Greedy cost equals exhaustive vertex enumeration on 500 random instances."""
    rng = np.random.default_rng(77)
    t0 = time.time()
    checked = 0
    worst = 0.0
    while checked < 500:
        n = int(rng.integers(2, 7))
        caps = np.round(rng.uniform(0.05, 1.0, size=n), 4)
        if caps.sum() < 1.0:
            continue
        bids = rng.uniform(1.0, 10.0, size=n)
        alloc = sw_greedy(bids, caps)
        gap = abs(float(bids @ alloc.fractions) - enumeration_optimum(bids, caps))
        worst = max(worst, gap)
        checked += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    _report("4 greedy-optimal", ok, f"max |gap| {worst:.2e} over 500 instances, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="stated instance is infeasible: forty caps of at most ~0.007 sum to ~0.21 < 1",
)
def test_criterion_5_literal_forty_worker_instance():
    """As stated: n=40 two-tier market, epsilon=0.01, T=1e4, lock-in in >=95%
    of 20 replicates.  The instance cannot allocate a single job."""
    locked = 0
    for seed in DESK_SEEDS:
        cfg = reference_config(n=40, T=10_000, seed=seed)
        trace = run(cfg, reference_recipe(n_fast=25, n_slow=15))
        _, t_lock = optimal_set_match(trace)
        locked += t_lock is not None and t_lock < cfg.T
    _report("5 optimal-set (literal)", locked >= 19, f"{locked}/20 replicates locked")
    assert locked >= 19


def test_criterion_5_literal_instance_is_infeasible():
    """The forty-worker epsilon=0.01 variant cannot cover one job."""
    cfg = reference_config(n=40, T=10)
    with pytest.raises(InfeasibleJob) as exc:
        run(cfg, reference_recipe(n_fast=25, n_slow=15))
    ok = exc.value.total_cap < 0.25
    _report("5 literal-infeasibility", ok, f"cap sum {exc.value.total_cap:.4f} < 1")
    assert ok


def test_criterion_5_optimal_set_lock_in(desk_runs):
    """Rescaled desk market: >=95% of 20 replicates reach a job t' < T after
    which the active set equals the oracle set for every remaining job."""
    locks = []
    for learning, _ in desk_runs:
        flags, t_lock = optimal_set_match(learning)
        assert not flags[0]  # pessimistic initialization starts with a superset
        locks.append(t_lock)
    locked = [t for t in locks if t is not None and t < 10_000]
    ok = len(locked) >= 0.95 * len(locks)
    _report(
        "5 optimal-set (rescaled)", ok,
        f"{len(locked)}/{len(locks)} locked, t' in [{min(locked)}, {max(locked)}]",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="same infeasible instance as criterion 5; convergence cannot be measured",
)
def test_criterion_6_literal_forty_worker_instance():
    cfg = reference_config(n=40, T=10_000, seed=1000)
    trace = run(cfg, reference_recipe(n_fast=25, n_slow=15))
    _, avg = regret(trace)
    _report("6 convergence (literal)", False, "instance infeasible")
    assert avg[-1] <= 0.2 * avg[99]


def test_criterion_6_average_regret_and_payment_convergence(desk_runs):
    """Rescaled desk market: R_avg(1e4) <= 0.2 * R_avg(1e2) in replicate
    median, and the per-job payment gap to the known-means baseline shrinks
    across decade windows in every replicate."""
    ratios = []
    decades_monotone = 0
    for learning, baseline in desk_runs:
        _, avg = regret(learning)
        ratios.append(avg[-1] / avg[99])
        gap = learning.payment - baseline.payment
        d1 = float(gap[:100].mean())
        d2 = float(gap[100:1000].mean())
        d3 = float(gap[1000:].mean())
        decades_monotone += d1 > d2 > d3
    median_ratio = float(np.median(ratios))
    ratio_ok = median_ratio <= 0.2
    decades_ok = decades_monotone == len(desk_runs)
    _report(
        "6 convergence (rescaled)", ratio_ok and decades_ok,
        f"median R_avg ratio {median_ratio:.3f} (max {max(ratios):.3f}); "
        f"payment decades monotone in {decades_monotone}/{len(desk_runs)}",
    )
    assert ratio_ok
    assert decades_ok


def test_criterion_7_byte_identical_outputs(tmp_path):
    """Same seed, same bytes, via the command-line pipeline."""
    config = tmp_path / "desk.cfg"
    config.write_text(
        "n = 6\njobs = 400\ndeadline = 50\nepsilon = 0.185\ndelta = 0.5\n"
        "sigma_log = 0.25\nseed = 1000\ncost_min = 10\ncost_max = 100\n"
        "rho_min = 5\nrho_max = 18\nbeta_min = 30\nbeta_max = 35\nalpha = 2\n"
        "group.1.count = 2\ngroup.1.cost = 10 11\ngroup.1.rho = 6.5 7\ngroup.1.beta = 30 31\n"
        "group.2.count = 2\ngroup.2.cost = 48 50\ngroup.2.rho = 6.5 7\ngroup.2.beta = 30 31\n"
        "group.3.count = 2\ngroup.3.cost = 100\ngroup.3.rho = 14\ngroup.3.beta = 32\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(
            ["simulate", "--config", str(config), "--out", str(out), "--replicates", "2"]
        ) == 0
        outs.append(out)
    same = all(
        (outs[0] / f"replicate_{r:03d}.csv").read_bytes()
        == (outs[1] / f"replicate_{r:03d}.csv").read_bytes()
        for r in range(2)
    )
    _report("7 determinism", same, "2 replicates x 400 jobs, byte-compared")
    assert same


def test_criterion_8_index_coverage():
    """True means inside [LCB, UCB] in >=99.9% of job-steps with t >= 10,
    pooled over 1e4 trajectories.  The clamped radii make this conservative."""
    cfg = reference_config()
    est = EstimatorConfig.defaults(cfg)
    rho, beta, sigma = 62.5, 32.5, cfg.sigma_log
    location = math.log(rho) - sigma * sigma / 2
    p_fail = 1.0 - math.exp(-cfg.delta / beta)
    rng = np.random.default_rng(2025)
    horizon = 25
    trajectories = 10_000
    checks = misses = 0
    jct_draws = rng.lognormal(location, sigma, size=(trajectories, horizon))
    fail_draws = rng.random(size=(trajectories, horizon)) < p_fail
    # one bank worker per trajectory, all trajectories stepped together
    stats = WorkerStats(trajectories, est, cfg.rho_bounds, cfg.beta_bounds, cfg.delta, horizon)
    everyone, whole = np.arange(trajectories), np.ones(trajectories)
    for t in range(1, horizon + 1):
        stats.record_jct_sample(everyone, jct_draws[:, t - 1], whole)
        stats.record_window(everyone, fail_draws[:, t - 1])
        stats.refresh_indices(t)
        if t >= 10:
            checks += 2 * trajectories
            misses += int((~((stats.rho_hat_minus <= rho) & (rho <= stats.rho_hat_plus))).sum())
            misses += int((~((stats.beta_hat_minus <= beta) & (beta <= stats.beta_hat_plus))).sum())
    coverage = 1.0 - misses / checks
    ok = coverage >= 0.999
    _report("8 coverage", ok, f"coverage {coverage:.6f} over {checks} index checks")
    assert ok
