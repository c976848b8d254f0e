"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop with one caller: a job (or a deviation sweep)
starts only after the previous one has returned.  A *replicate* is the fixed
unit of work that a run repeats with the same seed:

* simulation workloads run the whole configured job horizon, driving the
  library in the order of one ``crowdmarket simulate`` replicate
  (``load_config``, ``EstimatorConfig.defaults``, ``Simulator``, the ``step``
  loop, ``trace``, ``trace_summary``, ``trace_to_csv``, ``summary_to_json``);
* ``dsic-sweep`` draws a block of frozen instances and sweeps every agent of
  every instance, in the order of ``crowdmarket dsic-test``.

The seed replaces ``MarketConfig.seed`` (population and per-worker outcome
streams) or seeds the instance generator; the library only receives configs
and instances.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

GAIN_TOLERANCE = 1e-9  # the tolerance of dsic-test and acceptance criterion 1


@dataclass
class Replicate:
    """What one replicate did and what it wrote."""

    ops: int
    failed: int
    hashes: dict[str, str]
    min_utility: float | None = None  # simulations only
    active_per_job: float | None = None  # simulations only


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class SimulationWorkload:
    name: str
    config: str  # relative to the checkout root
    mode: str
    why: str
    op: str = "job"

    def setup(self, cm, root: Path, seed: int, size: int | None):
        cfg, recipe, overrides = cm.load_config(root / self.config)
        cfg = replace(cfg, seed=seed)
        if size is not None:
            cfg = replace(cfg, T=size)
        est = cm.EstimatorConfig.defaults(cfg)
        if overrides:
            est = replace(est, **overrides)
        return cm.Simulator(cfg, recipe, est_cfg=est, mode=self.mode, record_tables=False)

    def config_echo(self, cm, root: Path, seed: int, size: int | None) -> dict:
        sim = self.setup(cm, root, seed, size)
        return {
            "config": self.config,
            "mode": self.mode,
            "jobs_per_replicate": sim.cfg.T,
            "market": asdict(sim.cfg),
            "estimator": asdict(sim.est),
        }

    def run_once(self, cm, sim, out_dir: Path, pacer, finish_wrap=None) -> Replicate:
        """Run every job of ``sim`` and write its trace CSV and summary JSON.

        ``pacer`` times each ``step`` from outside, and the span from the
        first step until the outputs are written.
        """
        simulation = cm.simulation
        csv_path = out_dir / "trace.csv"
        json_path = out_dir / "summary.json"

        def finish():
            trace = sim.trace()
            summary = simulation.trace_summary(trace)
            simulation.trace_to_csv(trace, csv_path)
            simulation.summary_to_json(summary, json_path)
            return trace, summary

        if finish_wrap is not None:
            finish = finish_wrap(finish)
        jobs = sim.cfg.T
        step = sim.step
        pacer.start()
        for t in range(1, jobs + 1):
            pacer.timed(step, t)
        trace, summary = finish()
        pacer.close()

        completed = ~trace.infeasible
        return Replicate(
            ops=jobs,
            failed=int(trace.infeasible.sum()),
            hashes={"trace_csv": sha256_file(csv_path), "summary_json": sha256_file(json_path)},
            min_utility=float(summary["min_utility"]),
            active_per_job=float(trace.active_size[completed].mean()) if completed.any() else 0.0,
        )


@dataclass
class DsicWorkload:
    name: str
    why: str
    instances: int = 240
    n_max: int = 8
    op: str = "sweep"
    cost_bounds: tuple[float, float] = (1.0, 10.0)

    def setup(self, cm, root: Path, seed: int, size: int | None):
        rng = np.random.default_rng(seed)
        count = self.instances if size is None else size
        return [
            cm.mechanism.random_frozen_instance(rng, n_max=self.n_max, cost_bounds=self.cost_bounds)
            for _ in range(count)
        ]

    def config_echo(self, cm, root: Path, seed: int, size: int | None) -> dict:
        block = self.setup(cm, root, seed, size)
        return {
            "generator": "random_frozen_instance",
            "n_max": self.n_max,
            "cost_bounds": list(self.cost_bounds),
            "instances_per_replicate": len(block),
            "sweeps_per_replicate": sum(len(inst.costs) for inst in block),
            "tolerance": GAIN_TOLERANCE,
        }

    def run_once(self, cm, block, out_dir: Path, pacer, finish_wrap=None) -> Replicate:
        """Sweep every agent of every instance; write the gains and a report.

        ``pacer`` times each sweep from outside, and the span from the first
        sweep until the outputs are written.
        """
        mechanism = cm.mechanism
        csv_path = out_dir / "gains.csv"
        json_path = out_dir / "dsic_report.json"
        rows = []
        pacer.start()
        for k, inst in enumerate(block):
            for i in range(len(inst.costs)):
                gain = pacer.timed(mechanism.deviation_sweep, inst, i)
                rows.append((k, i, gain))
        worst = max(rows, key=lambda r: r[2])
        report = {
            "instances": len(block),
            "sweeps": len(rows),
            "max_gain": float(worst[2]),
            "worst_case": {"instance": worst[0], "agent": worst[1], "gain": worst[2]},
            "tolerance": GAIN_TOLERANCE,
            "dsic_holds": bool(worst[2] <= GAIN_TOLERANCE),
        }
        with csv_path.open("w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["instance", "agent", "gain"])
            writer.writerows((k, i, repr(float(g))) for k, i, g in rows)
        cm.simulation.summary_to_json(report, json_path)
        pacer.close()
        return Replicate(
            ops=len(rows),
            failed=sum(1 for _, _, g in rows if not g <= GAIN_TOLERANCE),
            hashes={"gains_csv": sha256_file(csv_path), "report_json": sha256_file(json_path)},
        )


WORKLOADS = {
    w.name: w
    for w in (
        SimulationWorkload(
            "desk6-learning",
            "configs/desk6.cfg",
            "learning",
            "n=6 over 10^4 jobs: fixed per-job cost (payments, greedy, bookkeeping) dominates; "
            "vectorising the n=400 loops should not move it",
        ),
        SimulationWorkload(
            "ref400-learning",
            "configs/reference400.cfg",
            "learning",
            "n=400 over 2000 jobs: per-worker Python loops (sampling, index refresh, "
            "estimator updates, caps) dominate; 398 of 400 workers share every job",
        ),
        SimulationWorkload(
            "ref400-known-means",
            "configs/reference400.cfg",
            "known-means",
            "n=400 with frozen true caps: estimator never runs, payments run at k~191 "
            "with a dense 400x400 externality table per job",
        ),
        DsicWorkload(
            "dsic-sweep",
            "verification harness: deviation sweeps over random frozen instances with "
            "n<=8, many tiny sw_greedy and job_payments calls",
        ),
    )
}


# --- output checks ------------------------------------------------------------


def hash_mismatches(replicates: list[Replicate]) -> list[str]:
    """Names of outputs whose hash differs between repeats of one (workload, seed)."""
    first = replicates[0].hashes
    return sorted({k for rep in replicates[1:] for k, v in rep.hashes.items() if first.get(k) != v})


def ir_violations(replicates: list[Replicate]) -> int:
    """Replicates whose truthful minimum utility is negative (exact IR fails)."""
    return sum(1 for rep in replicates if rep.min_utility is not None and not rep.min_utility >= 0)


def greedy_violation(alloc, caps) -> bool:
    """True unless the fractions sum to exactly one and each stays at or below its cap."""
    fractions = alloc.fractions
    return math.fsum(fractions) != 1.0 or bool(np.any(fractions > np.asarray(caps, dtype=float)))


def registry_mismatches(path: Path, key: str, hashes: dict[str, str]) -> list[str]:
    """Check ``hashes`` against those recorded under ``key`` in ``path``, or record them.

    The file keeps the output hashes of every (workload, seed, size) run in
    one checkout, so a later run of the same key, traced or not, must
    reproduce them.  Returns the names of the outputs that disagree.
    """
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        known = {}
    previous = known.get(key)
    if previous is not None:
        return sorted(k for k, v in hashes.items() if previous.get(k) != v)
    known[key] = hashes
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return []
