"""Market model: config validation, population sampling, outcome distributions."""

import math
import tempfile
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from crowdmarket import (
    BLOCK,
    InvalidConfig,
    InvalidRecipe,
    MarketConfig,
    OutcomeBlocks,
    PopulationGroup,
    PopulationRecipe,
    jct_location,
    load_config,
    market,
    outcome_streams,
    sample_outcome,
    sample_population,
    validate_config,
)
from crowdmarket.market import _CSV_CHUNK, _write_csv, population_streams

import oracles
from conftest import on_both_branches, reference_config, reference_recipe
from oracles import BlockSampler


def one_outcome(w, fraction, rng, *, sigma_log, delta):
    """One worker's (tau, flag) through the batch sampler; the flag is None
    when the window went unobserved."""
    blocks = OutcomeBlocks(
        [rng], [jct_location(w.mjct, sigma_log)], [w.mttf], sigma_log=sigma_log, delta=delta
    )
    tau, seen, failed = sample_outcome(blocks, [0], [fraction])
    assert len(seen) == len(failed) and seen in ([], [0])
    return float(tau[0]), failed[0] if seen else None


def test_reference_config_is_valid():
    cfg = reference_config()
    assert validate_config(cfg) is cfg


@pytest.mark.parametrize(
    "overrides",
    [
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"delta": 25.0},  # must be strictly below the beta lower bound
        {"delta": 0.0},
        {"D": 0.0},
        {"cost_bounds": (0.0, 100.0)},
        {"cost_bounds": (50.0, 10.0)},
        {"rho_bounds": (100.0, 50.0)},
        {"beta_bounds": (0.0, 35.0)},
        {"n": 0},
        {"cost_bounds": (10.0, math.inf)},
        {"rho_bounds": (50.0, math.inf)},
        {"beta_bounds": (25.0, math.nan)},
        {"D": math.inf},
        {"sigma_log": math.inf},
        {"seed": -1},
    ],
)
def test_invalid_configs_are_rejected(overrides):
    with pytest.raises(InvalidConfig):
        validate_config(reference_config(**overrides))


def test_reference_population_has_expected_shape():
    cfg = reference_config()
    workers = sample_population(cfg, reference_recipe())
    assert len(workers) == 400
    fast = workers[:250]
    slow = workers[250:]
    assert all(50.0 <= w.mjct <= 75.0 and 30.0 <= w.mttf <= 35.0 for w in fast)
    assert all(10.0 <= w.cost <= 50.0 for w in fast)
    assert all(w.mjct == 100.0 and w.mttf == 25.0 and w.cost == 100.0 for w in slow)
    assert [w.id for w in workers] == list(range(400))


def test_population_is_deterministic_per_seed():
    cfg = reference_config(seed=42)
    a = sample_population(cfg, reference_recipe())
    b = sample_population(cfg, reference_recipe())
    assert a == b
    c = sample_population(replace(cfg, seed=43), reference_recipe())
    assert a != c


def test_degenerate_ranges_give_identical_workers():
    cfg = reference_config(n=5)
    recipe = PopulationRecipe(
        groups=(
            PopulationGroup(
                count=5,
                cost_range=(20.0, 20.0),
                rho_range=(100.0, 100.0),
                beta_range=(30.0, 30.0),
            ),
        )
    )
    workers = sample_population(cfg, recipe)
    assert {(w.cost, w.mjct, w.mttf) for w in workers} == {(20.0, 100.0, 30.0)}


def test_recipe_outside_bounds_is_rejected():
    cfg = reference_config(n=5)
    bad = PopulationRecipe(
        groups=(
            PopulationGroup(
                count=5,
                cost_range=(10.0, 50.0),
                rho_range=(40.0, 75.0),  # below rho lower bound
                beta_range=(30.0, 35.0),
            ),
        )
    )
    with pytest.raises(InvalidRecipe):
        sample_population(cfg, bad)


def test_recipe_count_mismatch_is_rejected():
    cfg = reference_config(n=10)
    with pytest.raises(InvalidRecipe):
        sample_population(cfg, reference_recipe(n_fast=5, n_slow=4))


_POINT = st.one_of(st.integers(1, 1000), st.floats(1.0, 1000.0))
_RANGE = st.one_of(
    _POINT.map(lambda v: (v, v)), st.tuples(_POINT, _POINT).map(lambda r: tuple(sorted(r)))
)


@settings(max_examples=200, deadline=None)
@given(
    groups=st.lists(
        st.builds(
            PopulationGroup,
            count=st.integers(1, 60),
            cost_range=_RANGE,
            rho_range=_RANGE,
            beta_range=_RANGE,
        ),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_population_matches_the_per_worker_draws(groups, seed):
    """Random recipes (1-6 groups of 1-60 workers; degenerate or wide ranges
    with integer or real ends): the population scaled from one draw of
    standard uniforms equals the oracle's three scalar ``uniform`` draws per
    worker bit for bit, and both leave the population stream at the same
    place."""
    recipe = PopulationRecipe(tuple(groups))
    wide = (1.0, 1000.0)
    cfg = reference_config(
        n=recipe.total, seed=seed, cost_bounds=wide, rho_bounds=wide, beta_bounds=wide
    )
    streams = []

    def kept(cfg):
        streams.append(population_streams(cfg))
        return streams[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "population_streams", kept)
        got = sample_population(cfg, recipe)
        expected = oracles.sample_population(cfg, recipe)

    def exact(workers):
        return [(w.id, float.hex(w.cost), float.hex(w.mjct), float.hex(w.mttf)) for w in workers]

    assert exact(got) == exact(expected)
    assert {type(v) for w in got for v in (w.cost, w.mjct, w.mttf)} == {float}
    library, oracle = streams
    assert library.random() == oracle.random()


def test_outcome_zero_shape_is_exact():
    cfg = reference_config(sigma_log=0.0)
    workers = sample_population(cfg, reference_recipe())
    rng = np.random.default_rng(0)
    w = workers[0]
    tau, _ = one_outcome(w, 0.5, rng, sigma_log=0.0, delta=cfg.delta)
    assert tau / 0.5 == pytest.approx(w.mjct, abs=1e-12)


def test_outcome_rejects_bad_fraction():
    cfg = reference_config()
    w = sample_population(cfg, reference_recipe())[0]
    rng = np.random.default_rng(0)
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            one_outcome(w, bad, rng, sigma_log=0.25, delta=0.5)


def test_window_unobserved_when_work_shorter_than_delta():
    # mjct tiny relative to delta forces tau < delta, so the flag must be None
    from crowdmarket import WorkerProfile

    w = WorkerProfile(id=0, cost=10.0, mjct=1.0, mttf=30.0)
    rng = np.random.default_rng(1)
    tau, flag = one_outcome(w, 0.01, rng, sigma_log=0.1, delta=0.5)
    assert tau < 0.5
    assert flag is None


def test_failure_probability_closed_form_vs_monte_carlo():
    """Failure-within-window probability: 1 - exp(-delta/beta), checked by a
    direct exponential-draw oracle at a million samples."""
    beta, delta = 25.0, 0.5
    p_exact = 1.0 - math.exp(-delta / beta)
    assert p_exact == pytest.approx(0.0198013, abs=1e-6)
    rng = np.random.default_rng(2024)
    draws = rng.exponential(beta, size=1_000_000)
    assert abs((draws < delta).mean() - p_exact) < 1e-3


def _identical_workers_outcomes(mjct, mttf, fraction, delta, seed, workers=100, jobs=1000):
    """``jobs`` batch draws over ``workers`` copies of one profile, each copy on
    its own stream: the completion times, stacked, and the failure flags of
    the observed windows, chained."""
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(workers)]
    ids = list(range(workers))
    blocks = OutcomeBlocks(
        streams, [jct_location(mjct, 0.25)] * workers, [mttf] * workers,
        sigma_log=0.25, delta=delta,
    )
    draws = [sample_outcome(blocks, ids, [fraction] * workers) for _ in range(jobs)]
    return np.concatenate([d[0] for d in draws]), [f for d in draws for f in d[2]]


def test_sample_outcome_failure_frequency_matches_closed_form():
    beta, delta = 25.0, 0.5
    tau, failed = _identical_workers_outcomes(50.0, beta, 1.0, delta, seed=7)
    n = tau.size
    observed = len(failed)
    fails = sum(failed)
    p = 1.0 - math.exp(-delta / beta)
    se = math.sqrt(p * (1 - p) / observed)
    assert observed > 0.99 * n  # mjct=50 makes tau < delta vanishingly rare
    assert abs(fails / observed - p) < 3 * se


def test_sample_outcome_mean_matches_mjct():
    tau, _ = _identical_workers_outcomes(50.0, 30.0, 0.5, 0.5, seed=9)
    vals = tau / 0.5
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.size == 100_000
    assert abs(vals.mean() - 50.0) < 3 * se


def test_outcome_streams_are_bitwise_reproducible():
    cfg = reference_config(n=3, seed=5)
    workers = sample_population(
        cfg,
        PopulationRecipe(
            groups=(
                PopulationGroup(
                    count=3,
                    cost_range=(10.0, 50.0),
                    rho_range=(50.0, 75.0),
                    beta_range=(30.0, 35.0),
                ),
            )
        ),
    )
    location = [jct_location(w.mjct, 0.25) for w in workers]
    mttf = [w.mttf for w in workers]

    def outcomes():
        blocks = OutcomeBlocks(outcome_streams(cfg), location, mttf, sigma_log=0.25, delta=0.5)
        jobs = [sample_outcome(blocks, [0, 1, 2], [0.5] * 3) for _ in range(BLOCK + 1)]
        return b"".join(np.asarray(part).tobytes() for job in jobs for part in job)

    assert outcomes() == outcomes()


def test_per_worker_streams_are_independent_of_allocation_order():
    cfg = reference_config(n=2, seed=5)
    recipe = PopulationRecipe(
        groups=(
            PopulationGroup(
                count=2, cost_range=(10.0, 50.0), rho_range=(50.0, 75.0),
                beta_range=(30.0, 35.0),
            ),
        )
    )
    workers = sample_population(cfg, recipe)
    location = [jct_location(w.mjct, 0.25) for w in workers]
    mttf = [w.mttf for w in workers]

    def blocks():
        return OutcomeBlocks(outcome_streams(cfg), location, mttf, sigma_log=0.25, delta=0.5)

    # worker 1's draw must be identical whether or not worker 0 drew first;
    # half of a mean completion time of 50 or more always covers the window
    tau_with, seen_with, failed_with = sample_outcome(blocks(), [0, 1], [0.5, 0.5])
    tau_without, seen_without, failed_without = sample_outcome(blocks(), [1], [0.5])
    assert (seen_with, seen_without) == ([0, 1], [1])
    assert tau_with[1] == tau_without[0]
    assert failed_with[1] == failed_without[0]


def test_batch_outcome_matches_per_worker_draws():
    """The batch sampler fills each listed worker's block from its own stream,
    ``BLOCK`` log-normals and then ``BLOCK`` exponentials, and the worker's
    j-th job reads element j of that block."""
    cfg = reference_config(n=5, seed=3)
    workers = sample_population(cfg, reference_recipe(n_fast=3, n_slow=2))
    location = [jct_location(w.mjct, cfg.sigma_log) for w in workers]
    mttf = [w.mttf for w in workers]
    blocks = OutcomeBlocks(
        outcome_streams(cfg), location, mttf, sigma_log=cfg.sigma_log, delta=cfg.delta
    )
    listed, fractions = [0, 2, 3], [0.4, 0.001, 0.599]
    jobs = [sample_outcome(blocks, listed, fractions) for _ in range(2)]
    streams = outcome_streams(cfg)
    expected = [([], [], []) for _ in jobs]  # per job: tau, seen, failed
    for i, f in zip(listed, fractions):
        rng = streams[i]
        jct = rng.lognormal(mean=location[i], sigma=cfg.sigma_log, size=BLOCK)
        ttf = rng.exponential(workers[i].mttf, size=BLOCK)
        for j, (tau, seen, failed) in enumerate(expected):
            tau.append(f * jct[j])
            if tau[-1] >= cfg.delta:
                seen.append(i)
                failed.append(bool(ttf[j] < cfg.delta))
    for (tau, seen, failed), want in zip(jobs, expected):
        assert (np.asarray(tau).tolist(), seen, failed) == want
    assert jobs[0][1] == [0, 3]  # a 0.001 share finishes inside the window


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    jobs=st.integers(2 * BLOCK + 1, 3 * BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
@on_both_branches
def test_block_sampler_matches_scalar_oracle(n, jobs, seed):
    """Random activation patterns over more than two blocks: every job's
    completion times and observed windows equal the scalar k-th-activation
    oracle's bit for bit, a window seen where the oracle's code is 0 or 1
    and failed where it is 1.  Tiny fractions give unobserved windows (code
    -1) and short mean times to failure give both 1 and 0."""
    rng = np.random.default_rng(seed)
    location = list(rng.uniform(2.0, 4.0, n))
    mttf = list(rng.uniform(0.3, 2.0, n))
    active = rng.random((jobs, n)) < rng.uniform(0.2, 1.0, n)
    fractions = rng.choice([0.001, 0.5, 1.0], size=(jobs, n))

    def streams():
        return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]

    blocks = OutcomeBlocks(streams(), location, mttf, sigma_log=0.25, delta=0.5)
    oracle = BlockSampler(streams(), location, mttf, sigma_log=0.25, delta=0.5)
    codes = set()
    for t in range(jobs):
        workers = active[t].nonzero()[0]
        tau, seen, failed = sample_outcome(blocks, workers, fractions[t, workers])
        expected = [(i, *oracle.outcome(i, fractions[t, i])) for i in workers.tolist()]
        assert np.asarray(tau).tolist() == [x for _, x, _ in expected]
        assert seen == [i for i, _, code in expected if code >= 0]
        assert failed == [code == 1 for _, _, code in expected if code >= 0]
        codes.update(code for _, _, code in expected)
    assert codes == {-1, 0, 1}


@on_both_branches
def test_observed_windows_are_lists_of_the_workers_whose_work_reaches_delta():
    """``seen`` and ``failed`` are lists of Python ints and bools in both
    forms, and a listed worker is in ``seen`` exactly when its completion
    time reaches the window; its flag in ``failed`` sits at its place there.
    The workers are listed out of id order (3, 1, 0), and the fractions mix
    work shorter and longer than the window, over a refill of every block."""
    n, delta = 4, 0.5
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(11).spawn(n)]
    blocks = OutcomeBlocks(streams, [0.0] * n, [0.4] * n, sigma_log=0.5, delta=delta)
    listed = np.array([3, 1, 0])
    fractions = np.array([0.3, 0.6, 1.0])
    sizes, flags = set(), set()
    for _ in range(BLOCK + 2):
        tau, seen, failed = sample_outcome(blocks, listed, fractions)
        assert type(seen) is list and type(failed) is list
        assert all(type(i) is int for i in seen) and all(type(f) is bool for f in failed)
        assert seen == [i for i, x in zip(listed.tolist(), np.asarray(tau).tolist()) if x >= delta]
        assert len(failed) == len(seen)
        sizes.add(len(seen))
        flags.update(failed)
    assert sizes - {0, len(listed)} and flags == {False, True}


def _four_blocks():
    """Outcome blocks of four workers, every block drawn once and read twice."""
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(4)]
    blocks = OutcomeBlocks(streams, [1.0] * 4, [2.0] * 4, sigma_log=0.25, delta=0.5)
    for _ in range(2):
        sample_outcome(blocks, [0, 1, 2, 3], [0.5] * 4)
    return blocks


BAD_IDS = {
    "negative": ([-1], "lie in"),
    "past n": ([1, 4], "lie in"),
    "repeated": ([2, 2], "distinct"),
    "repeated out of order": ([3, 0, 3], "distinct"),
    "range with step 2": (range(0, 4, 2), "step 1"),
    "range from below 0": (range(-1, 2), "lie in"),
    "range past n": (range(2, 5), "lie in"),
    "a float": ([0.5], "integers"),
    "a float above an id": ([1.7], "integers"),
    "a bool": ([True], "integers"),
    "a float after an int": ([0, 1.5], "integers"),
    "a float array": (np.array([1.0, 2.0]), "integers"),
}


@pytest.mark.parametrize("workers, message", BAD_IDS.values(), ids=BAD_IDS.keys())
@on_both_branches
def test_bad_worker_ids_raise_before_any_cursor_moves(workers, message):
    """A negative id no longer wraps round to the last workers, an id past n
    raises ValueError rather than IndexError, a repeated id no longer loses
    a draw in the array form, and a range that is not a run of ids inside
    ``[0, n)`` does not clip as a slice would.  An id that is not an integer
    no longer samples the worker it truncates to in the array form (0.5
    sampled worker 0, 1.7 and True worker 1), and no longer raises
    ``TypeError`` in the list form after the ids before it have drawn.  No
    cursor moves."""
    blocks = _four_blocks()
    before = list(blocks.cursor)
    with pytest.raises(ValueError, match=message):
        sample_outcome(blocks, workers, [0.5] * len(workers))
    assert list(blocks.cursor) == before


@on_both_branches
def test_numpy_integer_ids_are_their_ids():
    """A list of numpy ints, or an array of 32-bit ones, samples what the
    same Python ints sample."""
    by_numpy, by_int32, by_list = _four_blocks(), _four_blocks(), _four_blocks()
    got = sample_outcome(by_numpy, [np.int64(1), np.intp(3)], [0.2, 0.5])
    got32 = sample_outcome(by_int32, np.array([1, 3], dtype=np.int32), [0.2, 0.5])
    want = sample_outcome(by_list, [1, 3], [0.2, 0.5])
    for tau, seen, failed in (got, got32):
        assert (np.asarray(tau).tobytes(), seen, failed) == (np.asarray(want[0]).tobytes(), *want[1:])
    assert list(by_numpy.cursor) == list(by_int32.cursor) == list(by_list.cursor)


@on_both_branches
def test_a_range_of_workers_is_its_run_of_ids():
    """A range gives the draws of its ids listed one by one, and one of
    another length than the fractions raises ValueError."""
    by_range, by_list = _four_blocks(), _four_blocks()
    for _ in range(3):
        tau, seen, failed = sample_outcome(by_range, range(1, 4), [0.2, 0.5, 1.0])
        want = sample_outcome(by_list, [1, 2, 3], [0.2, 0.5, 1.0])
        assert (np.asarray(tau).tobytes(), seen, failed) == (np.asarray(want[0]).tobytes(), *want[1:])
    assert list(by_range.cursor) == list(by_list.cursor)
    with pytest.raises(ValueError, match="one entry per listed worker"):
        sample_outcome(by_range, range(1, 4), [0.5, 0.5])


def test_worker_draws_are_paired_across_refills():
    """Worker 1's k-th draw is the same whatever worker 0 does, over 600 jobs
    (two refills of worker 1's block)."""
    cfg = reference_config(n=2, seed=8)
    workers = sample_population(cfg, reference_recipe(n_fast=1, n_slow=1))
    location = [jct_location(w.mjct, cfg.sigma_log) for w in workers]
    mttf = [w.mttf for w in workers]
    patterns = {
        "never": np.zeros(600, dtype=bool),
        "always": np.ones(600, dtype=bool),
        "random": np.random.default_rng(1).random(600) < 0.4,
    }
    seen = set()
    for worker0 in patterns.values():
        blocks = OutcomeBlocks(
            outcome_streams(cfg), location, mttf, sigma_log=cfg.sigma_log, delta=cfg.delta
        )
        draws = []
        for on in worker0:
            tau, observed, failed = sample_outcome(
                blocks, [0, 1] if on else [1], [0.5, 0.5] if on else [0.5]
            )
            window = failed[-1] if observed[-1:] == [1] else None  # worker 1 is listed last
            draws.append((tau[-1].hex(), window))
        seen.add(tuple(draws))
    assert len(seen) == 1


def csv_column(length: int):
    """A float, int or bool array, a list of floats and ints, or a range."""
    return st.one_of(
        hnp.arrays(np.float64, length, elements=st.floats(width=64)),
        hnp.arrays(st.sampled_from([np.int64, np.int8, np.bool_]), length),
        st.lists(st.floats() | st.integers(-(2**53), 2**53), min_size=length, max_size=length),
        st.integers(-3, 3).map(lambda start: range(start, start + length)),
    )


# How a column's twin differs from it: not at all (the same object or a
# copy), in the dtype or type, or in one entry of a float column.
TWINS = ["same", "copy", "dtype", "list", "zero", "nan", "inf", "ulp"]


@st.composite
def csv_columns(draw) -> dict:
    """Columns of one length, up to 3 chunks and a row, some with twins."""
    length = draw(st.integers(0, 3 * _CSV_CHUNK + 1) | st.sampled_from([0, 3 * _CSV_CHUNK + 1]))
    columns = draw(st.lists(csv_column(length), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.sampled_from(columns))
        kind = draw(st.sampled_from(TWINS))
        floats = isinstance(c, list) or (isinstance(c, np.ndarray) and c.dtype == np.float64)
        if kind in ("zero", "nan", "inf", "ulp") and not (floats and length):
            kind = "copy"
        if kind == "same":
            twin = c
        elif kind == "dtype" and isinstance(c, np.ndarray) and c.dtype != np.float64:
            twin = c.astype(np.int8 if c.dtype == np.bool_ else np.float64)
        elif kind == "list":
            twin = c.tolist() if isinstance(c, np.ndarray) else list(c)
        else:
            twin = c.copy() if not isinstance(c, range) else c
        if kind in ("zero", "nan", "inf", "ulp"):
            k = draw(st.integers(0, length - 1))
            if kind == "zero":
                c[k], twin[k] = 0.0, -0.0
            elif kind == "ulp":
                twin[k] = math.nextafter(c[k], math.inf)
            else:
                twin[k] = math.nan if kind == "nan" else math.inf
        columns.insert(draw(st.integers(0, len(columns))), twin)
    return {f"c{i}": c for i, c in enumerate(columns)}


@settings(max_examples=60, deadline=None)
@given(columns=csv_columns())
@example(columns={"a": np.array([0.0, 1.0]), "b": np.array([-0.0, 1.0])})
@example(columns={"a": np.array([1, 2]), "b": np.array([1.0, 2.0])})
@example(columns={"a": np.array([True]), "b": np.array([1], dtype=np.int8)})
@example(columns={"a": [0.0], "b": [-0.0], "c": np.array([-0.0])})
def test_csv_writer_matches_csv_writer_row_by_row(columns):
    """Columns of every kind and length up to three chunks and a row, with
    exact and near twins: a column shares an earlier one's strings only when
    both are arrays of one dtype and the same bytes, so the bytes equal the
    row-by-row oracle's whatever repeats."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        _write_csv(got, columns)
        oracles.write_csv(columns, want)
        assert got.read_bytes() == want.read_bytes()


CONFIG_TEXT = """
# market
n = 4
jobs = 10
deadline = 50
epsilon = 0.01
delta = 0.5
sigma_log = 0.25
seed = 3
cost_min = 10
cost_max = 100
rho_min = 50
rho_max = 100
beta_min = 25
beta_max = 35
alpha = 4
group.1.count = 3
group.1.cost = 10 50
group.1.rho = 50 75
group.1.beta = 30 35
group.2.count = 1
group.2.cost = 100
group.2.rho = 100
group.2.beta = 25
"""


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "market.cfg"
    path.write_text(CONFIG_TEXT)
    cfg, recipe, est = load_config(path)
    assert cfg.n == 4 and cfg.T == 10 and cfg.D == 50.0
    assert cfg.seed == 3
    assert recipe.groups[0].count == 3
    assert recipe.groups[1].cost_range == (100.0, 100.0)
    assert est == {"alpha": 4.0}


def test_load_config_takes_omitted_defaults_from_market_config(tmp_path):
    """A file that sets neither sigma_log nor seed loads equal to
    MarketConfig's own defaults for both."""
    full, bare = tmp_path / "full.cfg", tmp_path / "bare.cfg"
    full.write_text(CONFIG_TEXT)
    bare.write_text(CONFIG_TEXT.replace("sigma_log = 0.25\n", "").replace("seed = 3\n", ""))
    defaults = {f.name: f.default for f in fields(MarketConfig) if f.default is not MISSING}
    assert set(defaults) == {"sigma_log", "seed"}
    cfg, recipe, est = load_config(bare)
    full_cfg, full_recipe, full_est = load_config(full)
    assert cfg == replace(full_cfg, **defaults)
    assert (recipe, est) == (full_recipe, full_est)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InvalidConfig, match="not found"):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize(
    "mutation",
    [
        ("n = 4", "n = four"),
        ("epsilon = 0.01", "epsilon 0.01"),
        ("group.1.count = 3", "group.1.size = 3"),
        ("jobs = 10", "bogus_key = 10"),
    ],
)
def test_load_config_rejects_malformed_lines(tmp_path, mutation):
    old, new = mutation
    path = tmp_path / "market.cfg"
    path.write_text(CONFIG_TEXT.replace(old, new))
    with pytest.raises(InvalidConfig):
        load_config(path)


@pytest.mark.parametrize(
    "repeat, key, first",
    [
        ("jobs = 5", "jobs", 4),
        ("alpha = 2", "alpha", 16),
        ("group.2.cost = 50", "group.2.cost", 22),
        ("group.02.cost = 50", "group.2.cost", 22),
    ],
)
def test_load_config_rejects_repeated_keys(tmp_path, repeat, key, first):
    path = tmp_path / "market.cfg"
    path.write_text(CONFIG_TEXT + repeat + "\n")
    last = len(CONFIG_TEXT.splitlines()) + 1
    with pytest.raises(InvalidConfig, match=f"'{key}' is set on lines {first} and {last}"):
        load_config(path)
