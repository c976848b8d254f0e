"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import functools
import importlib
import pkgutil
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

import crowdmarket
import oracles
from crowdmarket import (
    EstimatorConfig,
    MarketConfig,
    PopulationGroup,
    PopulationRecipe,
    Simulator,
    stats_to_csv,
)

# CI runs pass --hypothesis-profile=ci: every run draws the same examples, so
# a failure there reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, database=None)

# Crossovers that send every worker count to one branch of the job step:
# numpy arrays, or Python floats.
BRANCHES = {"arrays": 0, "lists": 10**9}


def crossover_modules() -> list:
    """Every ``crowdmarket`` module that binds the crossover ``_LIST_MAX``,
    its own or imported."""
    modules = [
        importlib.import_module(f"crowdmarket.{info.name}")
        for info in pkgutil.iter_modules(crowdmarket.__path__)
    ]
    return [module for module in modules if hasattr(module, "_LIST_MAX")]


@contextmanager
def crossover(limit: int):
    """Move the list/array crossover ``_LIST_MAX`` to ``limit`` in every
    module that binds it, for the body of the block.  A bank, outcome blocks
    or simulator picks its form when it is built, so build them inside."""
    with pytest.MonkeyPatch.context() as patch:
        for module in crossover_modules():
            patch.setattr(module, "_LIST_MAX", limit)
        yield


def on_both_branches(test):
    """Run ``test`` (or each hypothesis example of it) once on each branch of
    the job step; a failure names its branch."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for name, limit in BRANCHES.items():
            with crossover(limit):
                try:
                    test(*args, **kwargs)
                except AssertionError as exc:
                    raise AssertionError(f"on the {name} branch: {exc}") from exc

    return run


def run_against_literal(cfg, recipe, est, mode, tmp_path):
    """Run ``cfg`` once through ``Simulator`` and once through the literal
    loop ``oracles.run_literal``; assert that the six series and the final
    estimator CSVs are equal bit for bit, and return the trace and the
    literal run."""
    sim = Simulator(cfg, recipe, est_cfg=est, mode=mode)
    for t in range(1, cfg.T + 1):
        sim.step(t)
    trace = sim.trace()
    literal = oracles.run_literal(cfg, recipe, est, mode)
    for name in oracles.SERIES:
        series = getattr(trace, name)
        assert np.array(literal[name], dtype=series.dtype).tobytes() == series.tobytes(), name
    got, want = tmp_path / "stats.csv", tmp_path / "literal_stats.csv"
    stats_to_csv(sim.stats, got)
    oracles.stats_to_csv(literal["stats"], want)
    assert got.read_bytes() == want.read_bytes()
    return trace, literal


def reference_config(**overrides) -> MarketConfig:
    """The 400-worker reference market: two-tier population, tight failure budget."""
    params = dict(
        n=400,
        T=100,
        D=50.0,
        epsilon=0.01,
        delta=0.5,
        cost_bounds=(10.0, 100.0),
        rho_bounds=(50.0, 100.0),
        beta_bounds=(25.0, 35.0),
        sigma_log=0.25,
        seed=0,
    )
    params.update(overrides)
    return MarketConfig(**params)


def reference_recipe(n_fast: int = 250, n_slow: int = 150) -> PopulationRecipe:
    """250 capable workers with spread-out parameters plus 150 slow, expensive ones."""
    return PopulationRecipe(
        groups=(
            PopulationGroup(
                count=n_fast,
                cost_range=(10.0, 50.0),
                rho_range=(50.0, 75.0),
                beta_range=(30.0, 35.0),
            ),
            PopulationGroup(
                count=n_slow,
                cost_range=(100.0, 100.0),
                rho_range=(100.0, 100.0),
                beta_range=(25.0, 25.0),
            ),
        )
    )


def desk_config(seed: int = 1000, T: int = 10_000, epsilon: float = 0.185) -> MarketConfig:
    """Small feasible market whose optimal-set lock-in is observable within T=1e4.

    Six workers: two cheap fast ones (the optimal set), two fast but pricier
    ones that pessimistic initialization drags in, and two slow decoys at the
    cost ceiling.  The failure budget (epsilon) is sized so per-worker caps sit
    near 0.9, keeping the instance feasible from the very first job.  Mirrors
    configs/desk6.cfg.
    """
    return MarketConfig(
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


def desk_recipe() -> PopulationRecipe:
    return PopulationRecipe(
        groups=(
            PopulationGroup(
                count=2, cost_range=(10.0, 11.0), rho_range=(6.5, 7.0),
                beta_range=(30.0, 31.0),
            ),
            PopulationGroup(
                count=2, cost_range=(48.0, 50.0), rho_range=(6.5, 7.0),
                beta_range=(30.0, 31.0),
            ),
            PopulationGroup(
                count=2, cost_range=(100.0, 100.0), rho_range=(14.0, 14.0),
                beta_range=(32.0, 32.0),
            ),
        )
    )


def desk48_market(seed: int) -> tuple[MarketConfig, PopulationRecipe]:
    """desk6's three groups at 16 workers each: an array-form market whose
    indices move on most jobs, as desk6's do."""
    cfg = replace(desk_config(seed, T=1500), n=48)
    return cfg, PopulationRecipe(groups=tuple(replace(g, count=16) for g in desk_recipe().groups))


def desk_estimator(cfg: MarketConfig) -> EstimatorConfig:
    return EstimatorConfig.defaults(cfg, alpha=2.0)


def enumeration_optimum(costs, caps) -> float:
    """Exhaustive vertex enumeration of {sum x = 1, 0 <= x <= cap}.

    Every vertex has at most one coordinate strictly between its bounds, so
    enumerating (fractional index, subset at cap) covers the whole polytope.
    Independent of the greedy code path by construction.
    """
    costs = list(map(float, costs))
    caps = list(map(float, caps))
    n = len(costs)
    best = None
    for fi in range(n):
        others = [j for j in range(n) if j != fi]
        for mask in range(1 << len(others)):
            filled = [others[b] for b in range(len(others)) if (mask >> b) & 1]
            s = sum(caps[j] for j in filled)
            xf = 1.0 - s
            if -1e-12 <= xf <= caps[fi] + 1e-12:
                cost = sum(costs[j] * caps[j] for j in filled) + costs[fi] * max(0.0, xf)
                if best is None or cost < best:
                    best = cost
    if best is None:
        raise AssertionError("no feasible vertex found")
    return best


@pytest.fixture
def worked_instance():
    """Three workers, bids (1,2,3), caps (0.5, 0.6931, 1.0): the hand-checked case."""
    return np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.6931, 1.0])
