"""Command-line entry point.

Subcommands:

* ``simulate``  — run replicated simulations from a config file, writing one
  trace CSV per replicate plus an aggregate JSON.
* ``dsic-test`` — sweep bid deviations over random frozen instances and report
  the largest utility gain found.
* ``sweep``     — vary one config key over a list of values, running the
  simulate pipeline for each.

Exit codes: 0 success, 2 bad arguments, 3 invalid config, 4 infeasible
instance in every replicate.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .allocation import InfeasibleJob
from .estimator import EstimatorConfig
from .market import (
    InvalidConfig,
    InvalidRecipe,
    MarketConfig,
    PopulationRecipe,
    load_config,
    validate_config,
)
from .mechanism import deviation_sweep, random_frozen_instance
from .simulation import MODES, run, summary_to_json, trace_summary, trace_to_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4

_SWEEPABLE = {
    "epsilon": ("cfg", float),
    "deadline": ("cfg:D", float),
    "delta": ("cfg", float),
    "jobs": ("cfg:T", int),
    "sigma_log": ("cfg", float),
    "seed": ("cfg", int),
    "alpha": ("est", float),
    "u_rho": ("est", float),
    "u_beta": ("est", float),
}


def _count(minimum: int):
    """argparse type for a count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _file_in_the_way(out: Path) -> Path | None:
    """The existing non-directory at ``out`` or above it, if any."""
    for path in (out, *out.parents):
        if path.exists():
            return None if path.is_dir() else path
    return None


def _build_estimator(cfg: MarketConfig, overrides: dict[str, float]) -> EstimatorConfig:
    est = EstimatorConfig.defaults(cfg)
    if overrides:
        est = replace(est, **{k: float(v) for k, v in overrides.items()})
    return est.validate(cfg)


def _run_replicate(payload) -> dict:
    """Run one replicate and write its trace CSV; returns the summary dict."""
    cfg, recipe, est, mode, out_file = payload
    try:
        trace = run(cfg, recipe, est_cfg=est, mode=mode, record_tables=False)
    except InfeasibleJob as exc:
        return {"seed": cfg.seed, "infeasible": True, "total_cap": exc.total_cap}
    trace_to_csv(trace, out_file)
    summary = trace_summary(trace)
    summary["trace_csv"] = str(out_file)
    return summary


def _simulate(
    cfg: MarketConfig,
    recipe: PopulationRecipe,
    est: EstimatorConfig,
    out_dir: Path,
    replicates: int,
    mode: str,
    parallelism: int,
) -> tuple[int, dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = []
    for r in range(replicates):
        cfg_r = replace(cfg, seed=cfg.seed + r)
        payloads.append((cfg_r, recipe, est, mode, out_dir / f"replicate_{r:03d}.csv"))

    # The pool forks all of its workers at the first submit.
    parallelism = min(parallelism, replicates, os.cpu_count() or 1)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            summaries = list(pool.map(_run_replicate, payloads))
    else:
        summaries = [_run_replicate(p) for p in payloads]

    ok = [s for s in summaries if not s.get("infeasible")]
    totals = {
        "neg_social_welfare_total": sum(s["neg_social_welfare_total"] for s in ok),
        "payment_total": sum(s["payment_total"] for s in ok),
        "regret_total": sum(s["regret_total"] for s in ok),
        "jobs_completed": sum(s["jobs_completed"] for s in ok),
    }
    aggregate = {
        "mode": mode,
        "replicates": replicates,
        "seed_base": cfg.seed,
        "succeeded": len(ok),
        "totals": totals,
        "runs": summaries,
    }
    summary_to_json(aggregate, out_dir / "aggregate.json")
    code = EXIT_OK if ok else EXIT_INFEASIBLE
    return code, aggregate


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg, recipe, est_overrides = load_config(args.config)
    if args.seed is not None:
        cfg = validate_config(replace(cfg, seed=args.seed))
    est = _build_estimator(cfg, est_overrides)
    code, aggregate = _simulate(
        cfg,
        recipe,
        est,
        Path(args.out),
        args.replicates,
        args.mode,
        args.parallelism,
    )
    print(
        f"simulate: {aggregate['succeeded']}/{args.replicates} replicates completed, "
        f"outputs in {args.out}"
    )
    if code == EXIT_INFEASIBLE:
        print("simulate: every replicate was infeasible", file=sys.stderr)
    return code


def _cmd_dsic_test(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    worst = -np.inf
    worst_case = None
    sweeps = 0
    for k in range(args.instances):
        inst = random_frozen_instance(rng, n_max=args.max_workers)
        for i in range(len(inst.costs)):
            gain = deviation_sweep(inst, i)
            sweeps += 1
            if gain > worst:
                worst = gain
                worst_case = {"instance": k, "agent": i, "gain": gain}
    report = {
        "instances": args.instances,
        "sweeps": sweeps,
        "max_gain": float(worst),
        "worst_case": worst_case,
        "tolerance": 1e-9,
        "dsic_holds": bool(worst <= 1e-9),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_to_json(report, out_dir / "dsic_report.json")
    print(f"dsic-test: max utility gain over {sweeps} deviation sweeps = {worst:.3e}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEPABLE:
        print(f"sweep: unknown parameter {args.param!r}; choose from "
              f"{', '.join(sorted(_SWEEPABLE))}", file=sys.stderr)
        return EXIT_USAGE
    target, cast = _SWEEPABLE[args.param]
    try:
        values = [cast(v) for v in args.values.split(",") if v.strip()]
        if not all(abs(v) < math.inf for v in values):  # NaN included
            raise ValueError
    except ValueError:
        print(f"sweep: --values for {args.param} must be finite {cast.__name__}s, "
              f"got {args.values!r}", file=sys.stderr)
        return EXIT_USAGE
    if not values:
        print("sweep: --values must contain at least one value", file=sys.stderr)
        return EXIT_USAGE

    cfg, recipe, est_overrides = load_config(args.config)
    if args.seed is not None:
        cfg = validate_config(replace(cfg, seed=args.seed))

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    results = []
    any_ok = False
    for v in values:
        cfg_v, overrides_v = cfg, dict(est_overrides)
        if target.startswith("cfg"):
            fieldname = target.split(":")[1] if ":" in target else args.param
            cfg_v = replace(cfg, **{fieldname: v})
        else:
            overrides_v[args.param] = v
        try:
            est_v = _build_estimator(validate_config(cfg_v), overrides_v)
        except InvalidConfig as exc:
            results.append({"value": v, "error": str(exc)})
            continue
        sub_dir = out_root / f"{args.param}_{v}"
        code, aggregate = _simulate(
            cfg_v, recipe, est_v, sub_dir, args.replicates, args.mode, args.parallelism
        )
        any_ok = any_ok or code == EXIT_OK
        results.append({"value": v, "exit": code, "totals": aggregate["totals"]})

    summary_to_json({"param": args.param, "results": results}, out_root / "sweep.json")
    print(f"sweep: {len(values)} values of {args.param} written to {out_root}")
    if all("error" in r for r in results):
        print(f"sweep: no value of {args.param} gave a valid config", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if any_ok else EXIT_INFEASIBLE


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdmarket",
        description="Truthful online job allocation: simulation and incentive checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runs = argparse.ArgumentParser(add_help=False)  # the options of simulate and sweep
    runs.add_argument("--config", required=True, help="path to key/value config file")
    runs.add_argument("--out", required=True, help="output directory")
    runs.add_argument("--replicates", type=_count(1), default=1)
    runs.add_argument("--seed", type=int, default=None, help="override the config seed base")
    runs.add_argument("--mode", choices=MODES, default="learning")
    runs.add_argument("--parallelism", type=_count(1), default=1)

    sim = sub.add_parser("simulate", parents=[runs],
                         help="run replicated simulations from a config file")
    sim.set_defaults(func=_cmd_simulate)

    dsic = sub.add_parser("dsic-test", help="deviation sweeps over random frozen instances")
    dsic.add_argument("--out", required=True, help="output directory")
    dsic.add_argument("--instances", type=_count(1), default=200)
    dsic.add_argument("--max-workers", type=_count(2), default=8)
    dsic.add_argument("--seed", type=_count(0), default=0)
    dsic.set_defaults(func=_cmd_dsic_test)

    swp = sub.add_parser("sweep", parents=[runs], help="vary one config key over a list of values")
    swp.add_argument("--param", required=True, help=f"one of {', '.join(sorted(_SWEEPABLE))}")
    swp.add_argument("--values", required=True, help="comma-separated list")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    blocker = _file_in_the_way(Path(args.out))
    if blocker is not None:
        print(f"error: --out {args.out}: {blocker} exists and is not a directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidConfig, InvalidRecipe) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleJob as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
