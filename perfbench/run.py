"""crowdmarket benchmark: jobs and deviation sweeps per second, plus a traced layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk6-learning --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics: replicates of the workload run
back to back with the given seed until ``--seconds`` is used up (at least
two), each job or sweep timed from outside and normalised to nominal machine
speed (see ``speed.py``).  ``--trace 1`` runs one untraced
and one traced replicate and reports the per-layer split; ``--seconds`` does
not apply to it.  Every replicate's outputs are hashed and must match the other
repeats of the same (workload, seed), in this run and in earlier runs in the
same checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, 2 when the library or its configs
are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import Pacer, clock, speed_factor  # noqa: E402
from tracer import Tracer, wrapper_cost_ns  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    SimulationWorkload,
    greedy_violation,
    hash_mismatches,
    ir_violations,
    registry_mismatches,
)

SETUPS_PER_REPLICATE = 12
TRACED_SETUPS = 5

# End-to-end metric -> unit.  The JSON uses these generic names on every workload;
# OP_ALIASES gives the (name, scale, unit) printed for jobs and for sweeps.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
OP_ALIASES = {
    "job": {"ops_per_s": ("jobs_per_s", 1.0, "1/s"), "op_us_p50": ("step_us_p50", 1.0, "us"),
            "op_us_p99": ("step_us_p99", 1.0, "us")},
    "sweep": {"ops_per_s": ("sweeps_per_s", 1.0, "1/s"), "op_us_p50": ("sweep_ms_p50", 1e-3, "ms"),
              "op_us_p99": ("sweep_ms_p99", 1e-3, "ms")},
}

ESTIMATOR_METHODS = ("refresh_indices", "pessimistic_cap", "record_jct_sample", "record_window")
CALL_LAYERS = (
    [f"estimator.{m}" for m in ESTIMATOR_METHODS]
    + ["market.sample_outcome", "allocation.sw_greedy", "mechanism.job_payments",
       "mechanism.deviation_grid", "mechanism.deviation_sweep"]
)
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in CALL_LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "market.outcomes_consumed_ratio": "ratio",
    "market.sample_population.s": "s",
    "market.outcome_streams.s": "s",
    "allocation.active_per_job": "count",
    "allocation.caps_changed_ratio": "ratio",
    "mechanism.spill_cells_per_job": "count",
    "mechanism.grid_points_per_sweep": "count",
    "simulation.step.self_s": "s",
    "simulation.step.busy_s": "s",
    "simulation.current_caps.self_s": "s",
    "simulation.finish_s": "s",
    "mechanism.deviation_sweep.busy_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage_ratio": "ratio",
    "trace.hooks_s": "s",
    "trace.wrapper_ns_per_call": "ns",
    "trace.wrapped_calls_per_op": "count",
    "trace.greedy_violations": "count",
    "trace.speed_factor": "ratio",
}


class LibraryMissing(RuntimeError):
    pass


def load_library():
    """Import crowdmarket from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "crowdmarket" / "__init__.py").is_file():
        raise LibraryMissing(f"no crowdmarket sources under {src}")
    for workload in WORKLOADS.values():
        config = getattr(workload, "config", None)
        if config is not None and not (ROOT / config).is_file():
            raise LibraryMissing(f"missing workload config {config}")
    sys.path.insert(0, str(src))
    import crowdmarket

    if Path(crowdmarket.__file__).resolve().parent != (src / "crowdmarket").resolve():
        raise LibraryMissing(f"imported crowdmarket from {crowdmarket.__file__}, not {src}")
    import crowdmarket.mechanism  # noqa: F401  (module attributes used below)
    import crowdmarket.simulation  # noqa: F401

    return crowdmarket


# --- untraced run: end-to-end metrics ---------------------------------------------


def measure(cm, workload, seed: int, seconds: float, size: int | None, out_dir: Path) -> dict:
    """Replicates back to back until ``seconds`` is used up; times normalised to nominal speed."""
    workload.setup(cm, ROOT, seed, size)  # warm-up: file cache, lazy imports
    setup_s, raw_setup_s = [], []

    def timed_setup():
        factor_before = speed_factor()
        t0 = clock()
        state = workload.setup(cm, ROOT, seed, size)
        raw = clock() - t0
        raw_setup_s.append(raw)
        setup_s.append(raw / math.sqrt(factor_before * speed_factor()))
        return state

    pacer = Pacer()
    reps = []
    start = clock()
    while len(reps) < 2 or elapsed + elapsed / len(reps) <= seconds:
        # Set-ups are spread over the run, so their median does not hang on
        # the machine's speed at one moment.
        for _ in range(SETUPS_PER_REPLICATE - 1):
            timed_setup()
        state = timed_setup()
        reps.append(workload.run_once(cm, state, out_dir, pacer))
        del state
        elapsed = clock() - start

    # Every replicate runs the same operations in the same order.  Other
    # tenants only ever slow an operation down, so the faster of an
    # operation's times in two repeats is closer to its own time; the
    # percentiles are taken over these minima for consecutive pairs of
    # repeats (a fixed pair size, so the estimate does not depend on how many
    # repeats fit in the run; an odd last repeat is left out).
    ops = sum(r.ops for r in reps)
    pairs = len(reps) // 2
    per_rep = reps[0].ops
    best = np.asarray(pacer.op_s)[: 2 * pairs * per_rep].reshape(pairs, 2, per_rep).min(axis=1).ravel()
    p99 = float(np.percentile(best, 99))
    raw_times = np.asarray(pacer.raw_op_s)
    metrics = {
        "ops_per_s": ops / pacer.work_s,
        "op_us_p50": float(np.percentile(best, 50)) * 1e6,
        "op_us_p99": p99 * 1e6,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "ops_per_s": ops / pacer.raw_work_s,
        "op_us_p50": float(np.percentile(raw_times, 50)) * 1e6,
        "op_us_p99": float(np.percentile(raw_times, 99)) * 1e6,
        "setup_s": statistics.median(raw_setup_s),
    }
    return {
        "replicates": reps,
        "metrics": metrics,
        "raw": raw,
        "samples": {"per_replicate": per_rep, "pairs": pairs, "beyond_p99": int((best > p99).sum()),
                    "setups": len(setup_s), "speed_factor_median": statistics.median(pacer.factors),
                    "speed_factor_range": (min(pacer.factors), max(pacer.factors))},
    }


# --- traced run: per-layer metrics ---------------------------------------------------


class Counters:
    """Exact work counters filled by tracer hooks."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.caps_seen: list[np.ndarray] = []
        self.spill_cells = 0
        self.grid_points = 0
        self.greedy_violations = 0

    def on_caps(self, caps, args, kwargs) -> None:
        self.caps_seen.append(caps)

    # The library passes allocations and caps positionally: sw_greedy(bids, caps),
    # job_payments(alloc, caps, bids, ...).
    def on_greedy(self, alloc, args, kwargs) -> None:
        self.greedy_violations += greedy_violation(alloc, args[1])

    def on_payments(self, rec, args, kwargs) -> None:
        alloc = args[0]
        n = alloc.fractions.shape[0]
        k = alloc.k_pos
        self.spill_cells += (k + 1) * (n - k)

    def on_grid(self, grid, args, kwargs) -> None:
        self.grid_points += len(grid)

    def caps_changed(self) -> int:
        seen = self.caps_seen
        return sum(1 for a, b in zip(seen, seen[1:]) if not np.array_equal(a, b))


def install(tracer: Tracer, cm, counters: Counters) -> None:
    """Wrap the public names that crowdmarket.simulation and .mechanism call."""
    simulation, mechanism = cm.simulation, cm.mechanism
    tracer.patch(simulation.Simulator, "step", "simulation.step")
    tracer.patch(simulation.Simulator, "current_caps", "simulation.current_caps", counters.on_caps)
    for method in ESTIMATOR_METHODS:
        tracer.patch(cm.estimator.WorkerStats, method, f"estimator.{method}")
    tracer.patch(simulation, "sample_outcome", "market.sample_outcome")
    tracer.patch(simulation, "sample_population", "market.sample_population")
    tracer.patch(simulation, "outcome_streams", "market.outcome_streams")
    for module in (simulation, mechanism):
        tracer.patch(module, "sw_greedy", "allocation.sw_greedy", counters.on_greedy)
        tracer.patch(module, "job_payments", "mechanism.job_payments", counters.on_payments)
    tracer.patch(mechanism, "deviation_grid", "mechanism.deviation_grid", counters.on_grid)
    tracer.patch(mechanism, "deviation_sweep", "mechanism.deviation_sweep")


def traced(cm, workload, seed: int, size: int | None, out_dir: Path) -> dict:
    """One untraced and one traced replicate; wall times exclude the reference chunks."""
    plain_pacer, traced_pacer = Pacer(), Pacer()
    plain = workload.run_once(cm, workload.setup(cm, ROOT, seed, size), out_dir, plain_pacer)

    tracer = Tracer()
    counters = Counters()
    install(tracer, cm, counters)
    try:
        population_s, streams_s = [], []
        for _ in range(TRACED_SETUPS):
            tracer.reset()
            state = workload.setup(cm, ROOT, seed, size)
            population_s.append(tracer.busy_s("market.sample_population"))
            streams_s.append(tracer.busy_s("market.outcome_streams"))
        tracer.reset()
        counters.reset()
        rep = workload.run_once(
            cm, state, out_dir, traced_pacer, finish_wrap=lambda fn: tracer.wrap("simulation.finish", fn)
        )
    finally:
        tracer.restore()
    del state

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in CALL_LAYERS:
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    is_sim = isinstance(workload, SimulationWorkload)
    m.update({
        "market.outcomes_consumed_ratio": ratio(
            tracer.calls("estimator.record_jct_sample"), tracer.calls("market.sample_outcome")),
        "market.sample_population.s": statistics.median(population_s),
        "market.outcome_streams.s": statistics.median(streams_s),
        "allocation.active_per_job": rep.active_per_job if is_sim else 0.0,
        "allocation.caps_changed_ratio": ratio(counters.caps_changed(), max(len(counters.caps_seen) - 1, 0)),
        "mechanism.spill_cells_per_job": ratio(counters.spill_cells, tracer.calls("mechanism.job_payments")),
        "mechanism.grid_points_per_sweep": ratio(counters.grid_points, tracer.calls("mechanism.deviation_sweep")),
        "simulation.step.self_s": tracer.self_s("simulation.step"),
        "simulation.step.busy_s": tracer.busy_s("simulation.step"),
        "simulation.current_caps.self_s": tracer.self_s("simulation.current_caps"),
        "simulation.finish_s": tracer.busy_s("simulation.finish"),
        "mechanism.deviation_sweep.busy_s": tracer.busy_s("mechanism.deviation_sweep"),
        "trace.untraced_wall_s": plain_pacer.raw_work_s,
        "trace.traced_wall_s": traced_pacer.raw_work_s,
        "trace.overhead_ratio": traced_pacer.work_s / plain_pacer.work_s,
        "trace.self_coverage_ratio": (tracer.total_self_s() + tracer.hooks_s) / traced_pacer.raw_work_s,
        "trace.hooks_s": tracer.hooks_s,
        "trace.wrapper_ns_per_call": wrapper_cost_ns(),
        "trace.wrapped_calls_per_op": ratio(tracer.total_calls(), rep.ops),
        "trace.greedy_violations": counters.greedy_violations,
        "trace.speed_factor": statistics.median(traced_pacer.factors),
    })
    return {"replicates": [plain, rep], "metrics": m}


# --- reporting -------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(cm, workload, seed: int, size: int | None) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "crowdmarket": cm.__version__,
        "loop": "closed, one caller in one process",
        **workload.config_echo(cm, ROOT, seed, size),
    }


def run_workload(args) -> int:
    cm = load_library()
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / args.out / workload.name / f"seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    info = manifest(cm, workload, args.seed, args.size)
    print("manifest " + json.dumps(info, sort_keys=True))

    if args.trace:
        result = traced(cm, workload, args.seed, args.size, out_dir)
        units = PER_LAYER_UNITS
    else:
        result = measure(cm, workload, args.seed, args.seconds, args.size, out_dir)
        units = END_TO_END
    reps = result["replicates"]

    size_key = info.get("jobs_per_replicate", info.get("instances_per_replicate"))
    problems = []
    mismatched = hash_mismatches(reps)
    if mismatched:
        problems.append(f"outputs differ between repeats of one seed: {', '.join(mismatched)}")
    mismatched = registry_mismatches(ROOT / args.out / "hashes.json",
                                     f"{workload.name}|seed={args.seed}|size={size_key}", reps[0].hashes)
    if mismatched:
        problems.append(f"outputs differ from an earlier run of this seed: {', '.join(mismatched)}")
    if ir_violations(reps):
        problems.append("negative truthful utility (exact IR fails)")
    if args.trace and result["metrics"]["trace.greedy_violations"]:
        problems.append("sw_greedy fractions do not sum to 1 or exceed their caps")
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    if failed:
        problems.append(f"{failed} failed {workload.op}s")

    metrics = result["metrics"]
    print(f"{workload.name} seed {args.seed}: {len(reps)} replicate(s), {attempted} {workload.op}s, "
          f"{failed} failed; outputs {reps[0].hashes}")
    if args.trace:
        for name in units:
            print(f"  {name:36s} {metrics[name]:.6g} {units[name]}")
    else:
        samples, raw = result["samples"], result["raw"]
        for name, unit in units.items():
            alias, scale, alias_unit = OP_ALIASES[workload.op].get(name, (name, 1.0, unit))
            wall = f"  (wall clock {raw[name] * scale:.6g})" if name in raw else ""
            print(f"  {alias:14s} {metrics[name] * scale:.6g} {alias_unit}{wall}")
        low, high = samples["speed_factor_range"]
        print(f"  percentiles over {samples['pairs']} x {samples['per_replicate']} {workload.op}s, each the "
              f"faster of two repeats ({samples['beyond_p99']} beyond p99); wall clock pooled; "
              f"{samples['setups']} set-ups; speed factor median {samples['speed_factor_median']:.3f}, "
              f"range {low:.3f}-{high:.3f}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one after another.

    Besides printing, writes ``<out>/report-seed<S>-trace<T>.json``: the
    rationale, each workload's manifest and its result.
    """
    load_library()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    report = {"rationale": json.loads((HERE / "rationale.json").read_text(encoding="utf-8")),
              "workloads": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        if args.size is not None:
            cmd += ["--size", str(args.size)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            code = max(code, 1)
            continue
        manifest_line = next((line for line in lines if line.startswith("manifest ")), "manifest {}")
        report["workloads"][name] = {"manifest": json.loads(manifest_line[len("manifest "):]), "result": result}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    path = ROOT / args.out / f"report-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"report written to {path.relative_to(ROOT)}")
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of an untraced run; at least one replicate runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="jobs (simulations) or instances (dsic-sweep) per replicate; "
                             "default: the config's job count, 200 instances")
    parser.add_argument("--out", default=".perfbench_out",
                        help="output directory, relative to the checkout root")
    args = parser.parse_args(argv)
    if args.size is not None and args.size < 1:
        parser.error("--size must be at least 1")
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
