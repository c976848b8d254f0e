"""crowdmarket: truthful online job allocation with biparameter bandit learning.

The package simulates a requester splitting a stream of divisible jobs across
strategic crowd workers.  Worker completion times and failure behaviour are
learned online with heavy-tail-robust confidence indices; jobs are allocated
greedily against pessimistic per-worker caps, and an externality-based payment
rule keeps truthful bidding a dominant strategy with non-negative utility.
"""

from .allocation import (
    Allocation,
    InfeasibleJob,
    SortedBids,
    sw_greedy,
    true_cap,
)
from .estimator import (
    EstimatorConfig,
    WorkerStats,
    stats_to_csv,
    surrogate_expectation,
)
from .market import (
    BLOCK,
    InvalidConfig,
    InvalidRecipe,
    MarketConfig,
    OutcomeBlocks,
    PopulationGroup,
    PopulationRecipe,
    WorkerProfile,
    jct_location,
    load_config,
    outcome_streams,
    sample_outcome,
    sample_population,
    validate_config,
)
from .mechanism import (
    FrozenInstance,
    PaymentRecord,
    deviation_grid,
    deviation_sweep,
    job_payments,
    random_frozen_instance,
)
from .simulation import (
    SimulationTrace,
    Simulator,
    optimal_set_match,
    regret,
    run,
    summary_to_json,
    trace_summary,
    trace_to_csv,
)

__version__ = "0.1.0"
