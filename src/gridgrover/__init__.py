"""Parallel amplitude-amplified search over product grids, cost-bound
bisection, and a brachistochrone discretization to exercise both.

The layers, bottom up: :mod:`gridgrover.grover` simulates one real-valued
search register and samples its measurement in closed form;
:mod:`gridgrover.search` holds problems as per-bucket marked sets plus a
global oracle and runs rounds with an adaptive iteration budget;
:mod:`gridgrover.analysis` carries the closed-form success probabilities
and runtime ceilings; :mod:`gridgrover.bisection` brackets an unknown
minimum cost with range oracles; :mod:`gridgrover.trajectory` supplies
the descent-time cost on discretized curves and the exhaustive cost
table, with its minimum and each cost window's paths, marked sets and
cross-path rate; :mod:`gridgrover.cli` wires everything into a
reproducible experiment runner.
"""

from .analysis import (
    BucketStats,
    LemmaCheckRow,
    RuntimeBounds,
    avg_success_probability,
    empirical_vs_closed_form,
    lemma_threshold,
    runtime_trials,
    stats_from_problem,
    theorem_bounds,
    trig_identity_residual,
)
from .bisection import (
    BisectResult,
    BisectRound,
    BoundInterval,
    PathWitness,
    initial_upper_bound,
    run_bisect,
)
from .grover import (
    MarkedSet,
    Register,
    RotationAngle,
    analytic_amplitudes,
    apply_oracle,
    grover_iterate,
    invert_about_mean,
    measure,
    measure_closed_form,
    success_probability,
    uniform_init,
)
from .search import (
    MAX_BUCKET_SIZE,
    GridProblem,
    QueryLedger,
    RoundResult,
    ScheduleParams,
    SearchOutcome,
    default_lambda,
    default_max_rounds,
    derive_seed,
    exhaustive_search,
    lambda_upper_bound,
    run_grid_search,
    run_round,
    trial_rng,
)
from .trajectory import (
    DESK_SCALE_CAP,
    BrachistochroneCost,
    CostTable,
    Curve,
    Grid,
    QuadratureConfig,
    RangeProblemFamily,
    brachistochrone_cost,
    build_brachistochrone_grid,
    cycloid_descent_time,
    interpolate,
    straight_line_descent_time,
)

__version__ = "0.1.0"
