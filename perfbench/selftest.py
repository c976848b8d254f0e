"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit on
every workload, that the simulation workloads write the same bytes as
``crowdmarket simulate``, that a planted bad result trips each output check
(positive sweep gain, hash mismatch within a run and against an earlier run,
negative utility, a greedy allocation over its caps), and that the benchmark
refuses to run without the library.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

OUT = ".perfbench_out/selftest"
SEED = 11
TOY_SIZE = {"desk6-learning": 40, "ref400-learning": 4, "ref400-known-means": 4, "dsic-sweep": 2}

passed = []


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    passed.append(what)


def cli_run(workload: str, trace: int, out: str = OUT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.3", "--trace", str(trace), "--size", str(TOY_SIZE[workload]), "--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout.splitlines()


def inprocess_run(workload: str, case: str, trace: int = 0) -> tuple[int, dict, str]:
    """Run the benchmark in this process, so a planted fault in the library applies.

    Returns the exit code, the result object and the reasons of failed checks.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
                         "--trace", str(trace), "--size", str(TOY_SIZE[workload]),
                         "--out", f"{OUT}/{case}"])
    lines = buf.getvalue().splitlines()
    reasons = "\n".join(line for line in lines if line.startswith("CHECK FAILED"))
    return code, json.loads(lines[-1]), reasons


def tripped(outcome: tuple[int, dict, str], reason: str) -> bool:
    code, result, reasons = outcome
    return code == 1 and not result["correct"] and reason in reasons


@contextlib.contextmanager
def planted(module, attr: str, replacement):
    original = vars(module)[attr]
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def check_metrics_printed(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for workload in run.WORKLOADS:
            code, lines = cli_run(workload, trace)
            result = json.loads(lines[-1])
            check(code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace} runs clean")
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            check(got == wanted, f"{workload} trace={trace} prints every {key} metric with its unit")
            if trace == 0:
                op = run.WORKLOADS[workload].op
                printed = {line.split()[0]: line.split()[1:3] for line in lines[:-1] if line.startswith("  ")}
                for alias, _, unit in run.OP_ALIASES[op].values():
                    value, printed_unit = printed.get(alias, ["nan", None])
                    check(float(value) > 0 and printed_unit == unit, f"{workload} prints {alias} in {unit}")


def check_same_bytes_as_cli() -> None:
    run.load_library()
    import crowdmarket.cli

    work = ROOT / OUT / "cli"
    work.mkdir(parents=True, exist_ok=True)
    jobs = TOY_SIZE["desk6-learning"]
    text = (ROOT / "configs/desk6.cfg").read_text(encoding="utf-8")
    toy_cfg = work / "desk6-toy.cfg"
    toy_cfg.write_text(text.replace("jobs = 10000", f"jobs = {jobs}"), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = crowdmarket.cli.main(["simulate", "--config", str(toy_cfg), "--out", str(work),
                                     "--seed", str(SEED)])
    harness_csv = ROOT / OUT / "desk6-learning" / f"seed{SEED}" / "trace.csv"
    check(code == 0 and (work / "replicate_000.csv").read_bytes() == harness_csv.read_bytes(),
          "desk6 trace CSV is byte-identical to `crowdmarket simulate`")


def check_planted_faults() -> None:
    cm = run.load_library()
    sim, mech = cm.simulation, cm.mechanism

    def gain_for_liar(orig):
        return lambda inst, i, grid=None: orig(inst, i, grid) + (1e-6 if i == 0 else 0.0)

    with planted(mech, "deviation_sweep", gain_for_liar):
        outcome = inprocess_run("dsic-sweep", "gain")
    check(tripped(outcome, "failed sweeps") and outcome[1]["failed"] >= 1, "a positive sweep gain is caught")

    calls = [0]

    def csv_drifting(orig):
        def write(trace, path):
            orig(trace, path)
            calls[0] += 1
            with open(path, "a", encoding="utf-8") as f:
                f.write("#" * calls[0])
        return write

    with planted(sim, "trace_to_csv", csv_drifting):
        outcome = inprocess_run("desk6-learning", "drift")
    check(tripped(outcome, "differ between repeats of one seed: trace_csv"),
          "a hash mismatch between repeats in one run is caught")

    code, result, _ = inprocess_run("desk6-learning", "registry")
    check(code == 0 and result["correct"], "a clean run records its hashes")
    registry = ROOT / OUT / "registry" / "hashes.json"
    known = json.loads(registry.read_text())
    for hashes in known.values():
        hashes["trace_csv"] = "0" * 64
    registry.write_text(json.dumps(known))
    check(tripped(inprocess_run("desk6-learning", "registry"), "differ from an earlier run of this seed: trace_csv"),
          "a hash mismatch against an earlier run is caught")

    def negative_utility(orig):
        return lambda trace: {**orig(trace), "min_utility": -1e-12}

    with planted(sim, "trace_summary", negative_utility):
        outcome = inprocess_run("desk6-learning", "utility")
    check(tripped(outcome, "negative truthful utility"), "a negative truthful utility is caught")

    def over_cap(orig):
        def greedy(bids, caps):
            alloc = orig(bids, caps)
            return replace(alloc, fractions=alloc.fractions * (1 + 1e-9))
        return greedy

    with planted(sim, "sw_greedy", over_cap):
        outcome = inprocess_run("desk6-learning", "greedy", trace=1)
    check(tripped(outcome, "sw_greedy fractions"), "a greedy allocation that breaks sum-to-one is caught")


def check_refuses_without_library() -> None:
    bare = ROOT / OUT / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "desk6-learning", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "without the library the benchmark exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(ROOT / OUT, ignore_errors=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics_printed(bench)
    check_same_bytes_as_cli()
    check_planted_faults()
    check_refuses_without_library()
    shutil.rmtree(ROOT / OUT, ignore_errors=True)
    for what in passed:
        print(f"ok  {what}")
    print(f"selftest: {len(passed)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
