"""Command-line interface: outputs, exit codes, determinism, aggregation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crowdmarket import EstimatorConfig, cli, load_config
from crowdmarket.cli import main

SMALL_CONFIG = """
n = 6
jobs = 60
deadline = 50
epsilon = 0.18
delta = 0.5
sigma_log = 0.25
seed = 11
cost_min = 10
cost_max = 100
rho_min = 5
rho_max = 18
beta_min = 30
beta_max = 35
alpha = 2
group.1.count = 4
group.1.cost = 10 50
group.1.rho = 6.5 8
group.1.beta = 30 31
group.2.count = 2
group.2.cost = 100
group.2.rho = 14
group.2.beta = 32
"""

INFEASIBLE_CONFIG = """
n = 4
jobs = 10
deadline = 50
epsilon = 0.01
delta = 0.5
seed = 0
cost_min = 10
cost_max = 100
rho_min = 50
rho_max = 100
beta_min = 25
beta_max = 35
group.1.count = 4
group.1.cost = 10 50
group.1.rho = 50 75
group.1.beta = 30 35
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "market.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def test_simulate_happy_path(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(config_file), "--out", str(out), "--replicates", "2"]
    )
    assert code == 0
    assert (out / "replicate_000.csv").is_file()
    assert (out / "replicate_001.csv").is_file()
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["succeeded"] == 2
    assert "2/2 replicates" in capsys.readouterr().out


def test_aggregate_totals_equal_csv_column_sums(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(config_file), "--out", str(out), "--replicates", "3"]
    ) == 0
    aggregate = json.loads((out / "aggregate.json").read_text())
    welfare = payment = 0.0
    for r in range(3):
        last = (out / f"replicate_{r:03d}.csv").read_text().strip().splitlines()[-1]
        cols = last.split(",")
        welfare += float(cols[1])
        payment += float(cols[2])
    assert aggregate["totals"]["neg_social_welfare_total"] == pytest.approx(welfare)
    assert aggregate["totals"]["payment_total"] == pytest.approx(payment)


def test_simulate_is_byte_deterministic(config_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(
            ["simulate", "--config", str(config_file), "--out", str(out), "--replicates", "2"]
        ) == 0
    for r in range(2):
        name = f"replicate_{r:03d}.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_parallel_matches_serial(config_file, tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(
        ["simulate", "--config", str(config_file), "--out", str(serial), "--replicates", "2"]
    ) == 0
    assert main(
        [
            "simulate", "--config", str(config_file), "--out", str(parallel),
            "--replicates", "2", "--parallelism", "2",
        ]
    ) == 0
    for r in range(2):
        name = f"replicate_{r:03d}.csv"
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "command, replicates, parallelism, cpus, pool_sizes",
    [
        ("simulate", 2, 100_000, 4, [2]),
        ("simulate", 3, 8, 2, [2]),
        ("simulate", 3, 8, None, []),
        ("sweep", 2, 100_000, 4, [2, 2]),
    ],
)
def test_parallelism_is_clamped(
    command, replicates, parallelism, cpus, pool_sizes, config_file, tmp_path, monkeypatch
):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = [
        command, "--config", str(config_file), "--out", str(tmp_path / "out"),
        "--replicates", str(replicates), "--parallelism", str(parallelism),
    ]
    if command == "sweep":
        argv += ["--param", "alpha", "--values", "2,3"]
    assert main(argv) == 0
    assert RecordingPool.sizes == pool_sizes


def test_seed_override_changes_outputs(config_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(
        ["simulate", "--config", str(config_file), "--out", str(out2), "--seed", "99"]
    ) == 0
    assert (out1 / "replicate_000.csv").read_bytes() != (
        out2 / "replicate_000.csv"
    ).read_bytes()


def test_missing_config_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code = main(["simulate", "--config", str(missing), "--out", str(tmp_path / "out")])
    assert code == 3
    assert str(missing) in capsys.readouterr().err


def test_invalid_arguments_exit_2(config_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config_file)])  # --out missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--replicates", "-3"],
        ["simulate", "--parallelism", "0"],
        ["dsic-test", "--instances", "-2"],
        ["dsic-test", "--max-workers", "1"],
        ["sweep", "--param", "epsilon", "--values", "0.2", "--replicates", "0"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_bad_counts_exit_2(argv, config_file, tmp_path, capsys):
    command, flags = argv[0], argv[1:]
    if command != "dsic-test":
        flags = ["--config", str(config_file), *flags]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[-2] in err
    assert not out.exists()


def test_non_finite_config_exits_3(tmp_path, capsys):
    path = tmp_path / "inf.cfg"
    path.write_text(SMALL_CONFIG.replace("cost_max = 100", "cost_max = inf"))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / "out").exists()


def test_repeated_config_key_exits_3(tmp_path, capsys):
    path = tmp_path / "repeat.cfg"
    path.write_text(SMALL_CONFIG + "jobs = 5\n")
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'jobs' is set on lines 3 and 24" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config_edit, argv, code",
    [
        (("group.1.count = 4", "group.1.count = 2.5"), ["simulate"], 3),
        (("group.1.cost = 10 50", "group.1.cost = abc"), ["simulate"], 3),
        (None, ["simulate", "--seed", "-1"], 3),
        (("seed = 11", "seed = -3"), ["simulate"], 3),
        (("sigma_log = 0.25", "sigma_log = 30"), ["simulate"], 3),
        # a bound u_rho keeps the defaults from overflowing, but draws underflow
        (("sigma_log = 0.25", "sigma_log = 40\nu_rho = 1e300"), ["simulate"], 3),
        (("beta_max = 35", "beta_max = 1e308"), ["simulate"], 3),
        # costs up to DBL_MAX, or at 1e307 over 60 jobs: the totals could overflow
        (("cost_max = 100", "cost_max = 1.7976931348623157e+308"), ["simulate"], 3),
        (("cost_max = 100", "cost_max = 1e307"), ["simulate"], 3),
        # finite estimator values whose u * alpha overflows
        (("alpha = 2", "alpha = 1e306"), ["simulate"], 3),
        (("alpha = 2", "alpha = 2\nu_rho = 1e308"), ["simulate"], 3),
        (None, ["dsic-test", "--seed", "-1"], 2),
        (None, ["dsic-test", "--max-workers", str(2**63)], 2),
        (None, ["dsic-test", "--max-workers", str(2**64)], 2),
        (None, ["sweep", "--param", "seed", "--values", "1.5"], 2),
        (None, ["sweep", "--param", "epsilon", "--values", "abc"], 2),
        (None, ["sweep", "--param", "delta", "--values", "nan,0.4"], 2),
        (None, ["sweep", "--param", "delta", "--values", "0.4,-inf"], 2),
    ],
    ids=[
        "group count 2.5", "group cost abc", "simulate seed -1", "config seed -3",
        "sigma_log 30", "sigma_log 40", "beta_max 1e308", "cost_max DBL_MAX",
        "cost_max 1e307 x 60 jobs",
        "alpha 1e306", "u_rho 1e308",
        "dsic-test seed -1", "dsic-test max-workers 2**63", "dsic-test max-workers 2**64",
        "sweep seed 1.5", "sweep epsilon abc", "sweep delta nan",
        "sweep delta -inf",
    ],
)
def test_malformed_input_exits_without_traceback(config_edit, argv, code, tmp_path, capsys):
    """Bad values in a config file or on the command line end in a message
    and the documented exit code, never in a traceback or in outputs."""
    text = SMALL_CONFIG if config_edit is None else SMALL_CONFIG.replace(*config_edit)
    assert text != SMALL_CONFIG or config_edit is None
    path = tmp_path / "market.cfg"
    path.write_text(text)
    command, flags = argv[0], argv[1:]
    if command != "dsic-test":
        flags = ["--config", str(path), *flags]
    out = tmp_path / "out"
    try:
        got = main([command, "--out", str(out), *flags])
    except SystemExit as exc:  # argparse rejects the argument
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()
    assert code != 3 or err.count("\n") == 1
    assert not out.exists()


# Costs near the top of the float range, over one job.
HUGE_COST_CONFIG = (
    SMALL_CONFIG.replace("jobs = 60", "jobs = 1")
    .replace("cost_min = 10", "cost_min = 1e306")
    .replace("cost_max = 100", "cost_max = 8e307")
    .replace("group.1.cost = 10 50", "group.1.cost = 1e307 5e307")
    .replace("group.2.cost = 100", "group.2.cost = 8e307")
)


def test_replicates_whose_totals_would_overflow_exit_3(tmp_path, capsys):
    """Six replicates of one job at costs up to 8e307 could sum to more than
    the largest float: ``simulate`` exits 3 and writes nothing, and ``sweep``
    lists the value as invalid.  One replicate runs and writes finite totals."""
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_COST_CONFIG)
    simulate = ["simulate", "--config", str(path)]
    assert main([*simulate, "--out", str(tmp_path / "six"), "--replicates", "6"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "replicates" in err and "Traceback" not in err
    assert not (tmp_path / "six").exists()

    sweep = ["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"), "--replicates", "6"]
    assert main([*sweep, "--param", "seed", "--values", "11"]) == 3
    (result,) = _strict_json(tmp_path / "sweep" / "sweep.json")["results"]
    assert result["value"] == 11 and "replicates" in result["error"]

    assert main([*simulate, "--out", str(tmp_path / "one"), "--replicates", "1"]) == 0
    totals = _strict_json(tmp_path / "one" / "aggregate.json")["totals"]
    assert totals["jobs_completed"] == 1 and totals["payment_total"] > 1e306


def test_non_utf8_config_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(SMALL_CONFIG.replace("group.1", "# caf\u00e9\ngroup.1", 1).encode("latin-1"))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below a file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["sweep", "--param", "epsilon", "--values", "0.2"],
        ["dsic-test", "--instances", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_blocked_by_a_file_exits_2(argv, below, config_file, tmp_path, capsys):
    """An --out that is, or lies below, an existing regular file ends in one
    line of message and exit code 2, and nothing is written."""
    command, flags = argv[0], argv[1:]
    if command != "dsic-test":
        flags = ["--config", str(config_file), *flags]
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    out = blocker / "sub" if below else blocker
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and str(blocker) in err
    assert blocker.read_text() == "keep me\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_infeasible_instance_exits_4(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(INFEASIBLE_CONFIG)
    code = main(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--replicates", "2"]
    )
    assert code == 4
    assert "infeasible" in capsys.readouterr().err.lower()


def test_dsic_test_reports_tiny_max_gain(tmp_path, capsys):
    out = tmp_path / "dsic"
    code = main(
        ["dsic-test", "--out", str(out), "--instances", "25", "--seed", "3"]
    )
    assert code == 0
    report = json.loads((out / "dsic_report.json").read_text())
    assert report["max_gain"] <= 1e-9
    assert report["dsic_holds"] is True
    assert "max utility gain" in capsys.readouterr().out


def _strict_json(path):
    """Parse ``path`` as standard JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_sweep_over_epsilon(config_file, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--config", str(config_file), "--out", str(out),
            "--param", "epsilon", "--values", "0.15,0.2",
        ]
    )
    assert code == 0
    summary = _strict_json(out / "sweep.json")
    assert {r["value"] for r in summary["results"]} == {0.15, 0.2}
    assert (out / "epsilon_0.15" / "replicate_000.csv").is_file()
    assert (out / "epsilon_0.2" / "aggregate.json").is_file()


@pytest.mark.parametrize(
    "param, values, bad",
    [
        ("epsilon", "0.2,1.5", 1.5),
        ("seed", "11,-1", -1),
        ("alpha", "2,1", 1.0),
        ("sigma_log", "0.25,30", 30.0),
        ("alpha", "4,1e306", 1e306),
    ],
)
def test_sweep_records_an_invalid_value_and_goes_on(config_file, tmp_path, param, values, bad):
    """An invalid value, of the market config or of the estimator, becomes an
    ``error`` entry of ``sweep.json``: the other values still run, and no
    directory is made for it."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config_file), "--out", str(out), "--param", param]
    assert main(argv + ["--values", values]) == 0
    good, failed = json.loads((out / "sweep.json").read_text())["results"]
    assert good["exit"] == 0 and "error" not in good
    assert failed["value"] == bad and failed["error"]
    assert sorted(p.name for p in out.iterdir()) == [f"{param}_{good['value']}", "sweep.json"]


def test_sweep_with_no_valid_value_exits_3(config_file, tmp_path, capsys):
    """A sweep whose every value is invalid still writes ``sweep.json``,
    with one error entry per value, and exits 3 without a traceback."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config_file), "--out", str(out), "--param", "epsilon"]
    assert main(argv + ["--values", "2,1.5"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1 and "epsilon" in err
    results = _strict_json(out / "sweep.json")["results"]
    assert [r["value"] for r in results] == [2.0, 1.5] and all(r["error"] for r in results)
    assert [p.name for p in out.iterdir()] == ["sweep.json"]


@pytest.mark.parametrize(
    "param, values, repeated",
    [("deadline", "50,50.0,40", "deadline_50.0"), ("seed", "1,01", "seed_1")],
)
def test_sweep_rejects_values_that_share_a_directory(
    config_file, tmp_path, capsys, param, values, repeated
):
    """Two values that cast equal would run into one directory, the second
    overwriting the first: the sweep names the directory and exits 2 before
    any run."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config_file), "--out", str(out), "--param", param]
    assert main(argv + ["--values", values]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repeated in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_rejects_unknown_param(config_file, tmp_path, capsys):
    code = main(
        [
            "sweep", "--config", str(config_file), "--out", str(tmp_path / "s"),
            "--param", "bogus", "--values", "1,2",
        ]
    )
    assert code == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_known_means_mode_flag(config_file, tmp_path):
    out = tmp_path / "km"
    assert main(
        [
            "simulate", "--config", str(config_file), "--out", str(out),
            "--mode", "known-means",
        ]
    ) == 0
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["runs"][0]["regret_total"] == 0.0


DESK6 = Path(__file__).resolve().parent.parent / "configs" / "desk6.cfg"
DESK6_LINES = DESK6.read_text().splitlines()
DESK6_KEYS = [line.partition("=")[0].strip() for line in DESK6_LINES
              if "=" in line and not line.startswith("#")]
FUZZ_VALUES = ["0", "-1", "1e-300", "1e300", "1e308", "nan", "inf", "-inf",
               "26", "30", "1", "2", "1e6", "5e-324"]


@pytest.mark.parametrize("key", DESK6_KEYS)
def test_every_desk6_value_mutation_exits_with_a_documented_code(key, tmp_path, capsys):
    """Each key of desk6.cfg, set alone to each of a set of edge values (40
    jobs unless the key is ``jobs``), ends in success or a documented exit
    code: no exception escapes and no warning is raised."""
    for k, value in enumerate(FUZZ_VALUES):
        lines = [f"{key} = {value}" if line.startswith(f"{key} =")
                 else "jobs = 40" if line.startswith("jobs =") else line
                 for line in DESK6_LINES]
        path = tmp_path / f"{k}.cfg"
        path.write_text("\n".join(lines) + "\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / f"out{k}")])
        assert code in (0, 2, 3, 4), (key, value)
        assert "Traceback" not in capsys.readouterr().err, (key, value)


def _desk6_at_sigma_log_30(tmp_path, bounds: str) -> Path:
    """desk6.cfg with ``sigma_log = 30`` and the estimator lines ``bounds``."""
    text = DESK6.read_text()
    assert "sigma_log = 0.25\n" in text
    path = tmp_path / "desk6_sigma_log_30.cfg"
    path.write_text(text.replace("sigma_log = 0.25\n", "sigma_log = 30\n") + bounds)
    return path


def test_config_bounds_replace_defaults_that_would_overflow(tmp_path):
    """With ``sigma_log = 30`` the default ``u_rho`` overflows, but a config
    that sets both bounds never computes the defaults: all 10^4 desk6 jobs run,
    none infeasible, under the warnings-as-errors setting."""
    path = _desk6_at_sigma_log_30(tmp_path, "u_rho = 1000\nu_beta = 5000\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    (summary,) = json.loads((out / "aggregate.json").read_text())["runs"]
    assert summary["estimator"]["u_rho"] == 1000.0 and summary["estimator"]["u_beta"] == 5000.0
    assert summary["jobs_completed"] == 10_000 and summary["jobs_infeasible"] == 0


def test_an_overflowing_default_is_named(tmp_path, capsys):
    """With only ``u_beta`` set, the default ``u_rho`` still overflows at
    ``sigma_log = 30``: exit 3 with one line of message naming ``u_rho``."""
    path = _desk6_at_sigma_log_30(tmp_path, "u_beta = 5000\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "default u_rho overflows" in err and "Traceback" not in err
    assert not out.exists()


def test_costs_just_inside_the_limit_keep_every_total_finite(tmp_path):
    """desk6 with every cost scaled by 1e303 over 300 jobs: cost_max times
    the job count, 3e307, stays below half of DBL_MAX.  The run completes
    and aggregate.json is strict JSON with finite totals."""
    text = DESK6.read_text()
    for old, new in [("jobs = 10000", "jobs = 300"), ("cost_min = 10", "cost_min = 1e304"),
                     ("cost_max = 100", "cost_max = 1e305"),
                     ("group.1.cost = 10 11", "group.1.cost = 1e304 1.1e304"),
                     ("group.2.cost = 48 50", "group.2.cost = 4.8e304 5e304"),
                     ("group.3.cost = 100", "group.3.cost = 1e305")]:
        assert text.count(f"\n{old}\n") == 1, old
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / "desk6_1e303.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} in aggregate.json")

    totals = json.loads((out / "aggregate.json").read_text(), parse_constant=reject)["totals"]
    assert totals["jobs_completed"] == 300
    assert 300 * 1e304 <= totals["neg_social_welfare_total"] <= totals["payment_total"] <= 300 * 1e305


# Each sweepable key of a 30-job desk6 copy, at the value the config already
# has: as written in the file, or as ``repr`` of the estimator default.
DESK6_30 = ["jobs = 30" if line.startswith("jobs =") else line for line in DESK6_LINES]
DESK6_30_VALUES = {key.strip(): value.strip() for key, _, value in
                   (line.partition("=") for line in DESK6_30 if not line.startswith("#"))}


@pytest.mark.parametrize("key", cli._SWEEPABLE)
def test_sweep_to_the_config_value_runs_the_simulated_config(key, tmp_path):
    """A sweep of any key to the value the config holds writes the trace
    ``simulate`` writes for that config, byte for byte: a key sent to the
    wrong config field or to the wrong type changes the run or fails it."""
    path = tmp_path / "desk6_30.cfg"
    path.write_text("\n".join(DESK6_30) + "\n")
    value = DESK6_30_VALUES.get(key)
    if value is None:
        cfg, _, overrides = load_config(path)
        value = repr(getattr(EstimatorConfig.defaults(cfg, **overrides), key))
    config = ["--config", str(path)]
    assert main(["simulate", *config, "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "sweep"
    assert main(["sweep", *config, "--out", str(out), "--param", key, "--values", value]) == 0
    (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
    trace = (tmp_path / "sim" / "replicate_000.csv").read_bytes()
    assert (run_dir / "replicate_000.csv").read_bytes() == trace


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv, code, last_err_line",
    [
        (["dsic-test", "--instances", "2"], 0, None),
        (["dsic-test", "--instances", "0"], 2, "argument --instances: must be at least 1, got 0"),
        (["simulate", "--config", "missing.cfg"], 3, "error: config file not found: missing.cfg"),
    ],
    ids=["ok", "count below its minimum", "missing config"],
)
def test_module_entry_point_exit_codes(argv, code, last_err_line, tmp_path):
    """``python -m crowdmarket.cli`` in a fresh process exits with ``main``'s
    code; a bad count gets argparse's usage and error, a bad config one line,
    and no traceback reaches stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crowdmarket.cli", *argv, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if last_err_line is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr.splitlines()[-1].endswith(last_err_line)
    if code == 3:
        assert proc.stderr.count("\n") == 1
