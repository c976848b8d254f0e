"""Command-line interface: outputs, exit codes, determinism, aggregation."""

import json

import pytest

from crowdmarket import cli
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
        (None, ["dsic-test", "--seed", "-1"], 2),
        (None, ["sweep", "--param", "seed", "--values", "1.5"], 2),
        (None, ["sweep", "--param", "epsilon", "--values", "abc"], 2),
        (None, ["sweep", "--param", "delta", "--values", "nan,0.4"], 2),
        (None, ["sweep", "--param", "delta", "--values", "0.4,-inf"], 2),
    ],
    ids=[
        "group count 2.5", "group cost abc", "simulate seed -1", "config seed -3",
        "dsic-test seed -1", "sweep seed 1.5", "sweep epsilon abc", "sweep delta nan",
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
    assert not out.exists()


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
    "param, values, bad", [("epsilon", "0.2,1.5", 1.5), ("seed", "11,-1", -1), ("alpha", "2,1", 1.0)]
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
