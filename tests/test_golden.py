"""Pinned output bytes: sha256 of traces, summaries and per-worker tables.

The hashes were recorded before the job record, payment record and trace
bookkeeping were reshaped, and every later refactor must reproduce them bit
for bit.  A change that is meant to alter outputs (new sampling, new payment
arithmetic) updates them deliberately and says so.  The per-worker tables
(fractions, payments, utilities, completion times and window codes, one row
per job) were pinned from the simulator, which once recorded them; it now
records only its per-job series, so the tables are hashed from the literal
job loop in ``oracles.run_literal`` and tied to the simulator by its six
series and its estimator CSV, which must equal the loop's on the same run.
The pins passed unedited when the tables moved.  The DSIC report and the
deviation gains were pinned before the deviation grid was cut down to its
knots and midpoints.  The 2000-job reference400 learning run was pinned
before the per-worker estimators became one struct-of-arrays bank.

Drawing each worker's outcomes in blocks changed the realized draws, and
with them the desk6 learning trace and summary and its completion and
window tables; those were pinned again, deliberately, when the blocks came
in.  The other pins did not move: the desk6 caps stay at their bounds for
the first 545 jobs, known-means mode draws no outcomes (it learns nothing,
so none were ever read outside its tables), and the reference400 caps never
move within the horizon.  So the reference400
completion and window tables are pinned as well, at 300 jobs, which crosses
a refill of every active worker's block.

The trace CSV's ``regret_avg`` column once cumulated cost and oracle cost
apart and differed from the summary's ``regret_avg_final`` in the last
digits.  Both now read one series, the running sum of per-job differences
that the summary always used, so the learning trace CSV pins were recorded
again: every other column kept its bytes, and the new ``regret_avg`` column
equals the old ``regret()`` series digit for digit.  No summary pin moved.

The reference400 caps stay clamped through job 2,066 at seed 7, so the
2000-job pin never reads the learner.  The 3000-job pin does: its caps move
from job 2,067 on.  It pins the trace CSV, the summary JSON and the
estimator state (``stats_to_csv``); the last two were recorded before the
payments moved to prefix sums and passed unedited after.

A job's cost, the oracle cost and a job's payment total were once summed
three ways: the costs by BLAS ``ddot``, whose rounding depends on the CPU's
kernel (the desk6 learning trace changed under ``OPENBLAS_CORETYPE=Prescott``),
and the payments in numpy's pairwise order.  All three are now the
``math.fsum`` of their rounded terms, the correctly rounded sum, which
``test_row_totals_are_correctly_rounded`` checks against exact rational sums.
So the desk6 learning trace and summary, the reference400 100- and 2000-job
traces of both modes and the 3000-job learner trace were pinned again: only
the last digits of ``neg_social_welfare_cum``, ``payment_cum`` and
``regret_avg`` moved, and among the summaries only desk6's totals.  Every pin
now holds under the default, ``Prescott`` and ``Nehalem`` kernels alike.

2026-10-20: the learner stopped keeping a plain running mean per worker,
which no index read, and ``stats_to_csv`` lost its ``rho_hat`` and
``beta_hat`` columns with it.  So the 3000-job estimator CSV was pinned
again.  Its new bytes equal the old pin's file with those two columns cut
out of every row: the other seven columns are the same strings, because
the counts, streaks and kept sums that the indices are built from never
read the running mean.  The trace and summary pins did not move.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crowdmarket import (
    EstimatorConfig,
    Simulator,
    deviation_sweep,
    load_config,
    random_frozen_instance,
    run,
    stats_to_csv,
    summary_to_json,
    trace_summary,
    trace_to_csv,
)
from crowdmarket.cli import main

from conftest import run_against_literal

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

OUTPUT_HASHES = {
    ("desk6.cfg", 2000, "learning"): (
        "b0c443f26f2f20b571778779734ce887430082ffcbab85027edc7ada7952b97d",
        "c06d9cb031633486918a4a6d72fe51caec1faf99ebdec4b1426ee5e12de50ffb",
    ),
    ("desk6.cfg", 2000, "known-means"): (
        "e25f4e06083acca76d381e24f147e0538da442ddd4cbf4dc62b5e286d4f4ec11",
        "038e625cd1a54506500129d1ed9823fb455468983a86becc148d153cd06fb782",
    ),
    ("reference400.cfg", 100, "learning"): (
        "69b44d0c164898fc4e2560e1e321f67e90d46d8d7617b8c900b08dc257cfcf21",
        "ee7037629a5a85b586c8455f181cdc44534773020f2e31d9815538303c0332b2",
    ),
    # 2000 jobs: drop-job evictions run through the 15th sample (t ~ 1800).
    ("reference400.cfg", 2000, "learning"): (
        "c5852ed9643dea1b047818e0ec9521c929c0d1f5999bc138b340cc2918176713",
        "7aafe112699a83ec178f47b2f21b10f69b5ebf6595ca62000ab3e6945e3072c6",
    ),
    ("reference400.cfg", 100, "known-means"): (
        "1e3bb65b4cf5aa6474d0c0d95f8e5fa4432fd488b9b918b4f203cf67192f8b2a",
        "6b8dca7625c44bfa727ef0d6e4d82a54c43e64cb4b688262e8f8df0d9010d95c",
    ),
    # The replicate of the benchmark's known-means workload, pinned before the
    # trace kept each distinct row once and the CSV writer shared the strings
    # of bit-equal columns.
    ("reference400.cfg", 2000, "known-means"): (
        "67a61dd8e3d392db613e3458c1d96c385e3cd63545bf67655312d6d675f185a5",
        "a892d29ef133043b86143c6c1c90b20a1b729dc90ad8ef74d27fd973d88ea6b7",
    ),
}

# reference400.cfg, 3000 jobs, learning mode: trace CSV, summary JSON, stats_to_csv.
LEARNER_HASHES = (
    "f740d0da2103b484ea7ebb81b4bf8db388fe3ee53788a0f567c0eef0e5c287b9",
    "c3e2a966c60a6c1b2fd242f0a1a525f47498734f37e0725c575b819213a8bf6e",
    "a98ea21264b4a6ea1e6033b0337f23ea4b890b5cc90f5cbb33cad41ee3dcc5ec",
)

# desk6.cfg, 500 jobs, learning mode, the tables of oracles.run_literal.
TABLE_HASHES = {
    "fraction_table": "839259fea5e575eff7ee5e477f23e8445f15efb1fcc4c309638549911f9fbd2c",
    "payment_table": "1e7768441560ea00f6de7c7aa0face0c306264aa7a94095ed8ad7b365d277d03",
    "utility_table": "50f0f44022b1e4d959f8b8a2dd0edb575a3b4935015d3870aeb60e5452a7fa03",
    "completion_table": "c25be5e35baab47de8c249a4ab00567536b5105a67749fe3396510935ca6929a",
    "window_table": "5e8bfb885f6f4f743976381d1f4bf25f573a3de6ee46f55702bbddd20d314b9c",
}

# reference400.cfg, 300 jobs, learning mode, the tables of oracles.run_literal.
REFERENCE_DRAW_HASHES = {
    "completion_table": "47059a10095e4d8d596f66304eb7efa7632e04b19c8a1c421755c54e6c1da813",
    "window_table": "bde59a546b7b327e7757fcbe987d547c80fec6a12f6121642a405811b9e2de1b",
}

# dsic_report.json of `crowdmarket dsic-test --instances 100 --seed 0`.
DSIC_REPORT_HASH = "916595a66cbda658dcf6c91bedf16bbd6f010ed83a8ef13ba5c591fbc7ee0b55"
# repr of every sweep's gain, one per line: 100 random_frozen_instance draws
# from default_rng(20240), every worker of each in order.
GAINS_HASH = "35341b2e2f3ebb850799ea2116c5e40385d1327966f2a2b563381691942f7b4e"


def _setup(config: str, jobs: int):
    cfg, recipe, overrides = load_config(CONFIGS / config)
    cfg = replace(cfg, T=jobs)
    est = replace(EstimatorConfig.defaults(cfg), **overrides).validate(cfg)
    return cfg, recipe, est


def _run(config: str, jobs: int, mode: str):
    cfg, recipe, est = _setup(config, jobs)
    return run(cfg, recipe, est_cfg=est, mode=mode)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Each pinned table and the run_literal entry it is hashed from.
TABLES = {
    "fraction_table": ("fractions", np.float64),
    "payment_table": ("payments", np.float64),
    "utility_table": ("utilities", np.float64),
    "completion_table": ("completion", np.float64),
    "window_table": ("window", np.int8),
}


def _table_hashes(config: str, jobs: int, names, tmp_path) -> dict:
    """Hashes of the named tables of the literal learning loop, after
    checking that a ``Simulator`` run gives that loop's six series and final
    estimator CSV bit for bit."""
    _, literal = run_against_literal(*_setup(config, jobs), "learning", tmp_path)
    return {
        name: _sha(np.array(literal[TABLES[name][0]], dtype=TABLES[name][1]).tobytes())
        for name in names
    }


@pytest.mark.parametrize("key", sorted(OUTPUT_HASHES), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_trace_and_summary_bytes(key, tmp_path):
    trace = _run(*key)
    csv_path, json_path = tmp_path / "trace.csv", tmp_path / "summary.json"
    trace_to_csv(trace, csv_path)
    summary_to_json(trace_summary(trace), json_path)
    got = (_sha(csv_path.read_bytes()), _sha(json_path.read_bytes()))
    assert got == OUTPUT_HASHES[key]


def test_reference_learner_bytes(tmp_path):
    cfg, recipe, est = _setup("reference400.cfg", 3000)
    sim = Simulator(cfg, recipe, est_cfg=est)
    for t in range(1, cfg.T + 1):
        sim.step(t)
    trace = sim.trace()
    paths = [tmp_path / name for name in ("trace.csv", "summary.json", "stats.csv")]
    trace_to_csv(trace, paths[0])
    summary_to_json(trace_summary(trace), paths[1])
    stats_to_csv(sim.stats, paths[2])
    assert tuple(_sha(path.read_bytes()) for path in paths) == LEARNER_HASHES


def test_per_worker_table_bytes(tmp_path):
    assert _table_hashes("desk6.cfg", 500, TABLE_HASHES, tmp_path) == TABLE_HASHES


def test_reference_outcome_draw_bytes(tmp_path):
    got = _table_hashes("reference400.cfg", 300, REFERENCE_DRAW_HASHES, tmp_path)
    assert got == REFERENCE_DRAW_HASHES


def test_dsic_report_bytes(tmp_path):
    assert main(["dsic-test", "--out", str(tmp_path), "--instances", "100", "--seed", "0"]) == 0
    assert _sha((tmp_path / "dsic_report.json").read_bytes()) == DSIC_REPORT_HASH


def test_deviation_gain_bytes():
    rng = np.random.default_rng(20240)
    lines = []
    for _ in range(100):
        inst = random_frozen_instance(rng)
        lines += [f"{deviation_sweep(inst, i)!r}\n" for i in range(len(inst.costs))]
    assert _sha("".join(lines).encode()) == GAINS_HASH
