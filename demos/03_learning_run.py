"""Learning run on the desk market: watch the active set lock onto the oracle.

Runs the six-worker desk market for 10^4 jobs, against the known-means
baseline, and prints a decade table of average regret, active-set size, and
the payment premium the requester pays while estimates are still loose.
Trace CSVs land in demos/out/.

Run from the repository root:  python3 demos/03_learning_run.py
"""

from pathlib import Path

from crowdmarket import (
    EstimatorConfig,
    load_config,
    optimal_set_match,
    regret,
    run,
    trace_to_csv,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "desk6.cfg"
OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    cfg, recipe, est_overrides = load_config(CONFIG)
    est = EstimatorConfig.defaults(cfg, **est_overrides)

    print(f"running {cfg.T} jobs, n={cfg.n}, epsilon={cfg.epsilon}, seed={cfg.seed} ...")
    learning = run(cfg, recipe, est_cfg=est)
    baseline = run(cfg, recipe, est_cfg=est, mode="known-means")

    _, avg = regret(learning)
    flags, t_lock = optimal_set_match(learning)
    gap = learning.payment - baseline.payment

    print(f"\noracle active set: {sorted(learning.oracle_active)}"
          f" at cost {learning.oracle_cost:.3f} per job")
    print(f"active set locks onto the oracle at job t' = {t_lock}\n")

    print(f"{'jobs':>10} {'avg regret':>12} {'active':>7} {'match':>6} {'pay gap/job':>12}")
    marks = [100, 300, 1000, 3000, 10_000]
    prev = 0
    for m in marks:
        window = slice(prev, m)
        print(
            f"{m:>10} {avg[m - 1]:>12.4f} {learning.active_size[m - 1]:>7d}"
            f" {str(bool(flags[m - 1])):>6} {gap[window].mean():>12.4f}"
        )
        prev = m

    OUT.mkdir(exist_ok=True)
    trace_to_csv(learning, OUT / "learning.csv")
    trace_to_csv(baseline, OUT / "known_means.csv")
    print(f"\ntraces written to {OUT}/learning.csv and {OUT}/known_means.csv")


if __name__ == "__main__":
    main()
