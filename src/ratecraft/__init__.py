"""Design toolkit for binary rating systems in ranked marketplaces.

Workflow: solve for the rating step function that maximizes the
exponential rate at which ranking errors vanish (``nested_bisection``,
``optimize_partition``), fit an implementable question distribution to
it from empirical response data (``fit_h``), and validate designs in a
stochastic marketplace simulator (``run_simulation``).
"""

from .core import (
    MATCH_KINDS,
    WEIGHT_KINDS,
    MatchProfile,
    QuestionBank,
    QuestionDistribution,
    StepBeta,
    WeightSpec,
    load_design,
    normalize_weight,
    save_design,
)
from .fixtures import fixture_bank, fixture_interpolator
from .heuristic import (
    FitError,
    MixtureBeta,
    fit_h,
    induced_beta,
    l1_gap,
    naive_uniform_h,
)
from .optimizer import (
    ConvergenceError,
    EqualizationReport,
    SolverConfig,
    SolverResult,
    double_levels,
    equalize_chain,
    nested_bisection,
    verify_equalization,
)
from .partition import (
    Partition,
    asymptotic_value,
    equispaced_partition,
    interval_mass,
    optimize_partition,
    within_mass,
)
from .rates import (
    PairRate,
    adjacent_rates,
    inf_point,
    kl_bernoulli,
    numeric_pairwise_rate,
    overall_rate,
    pair_report,
    pairwise_rate,
)
from .responses import (
    PsiInterpolator,
    estimate_known,
    estimate_unknown,
    read_qualities_csv,
    read_ratings_csv,
    write_qualities_csv,
    write_ratings_csv,
)
from .simulator import (
    MarketState,
    RateEstimate,
    SimConfig,
    SimResult,
    empirical_objective,
    estimate_pk_rate,
    init_market,
    run_simulation,
    step_market,
)

__version__ = "0.1.0"

__all__ = [
    "MATCH_KINDS",
    "WEIGHT_KINDS",
    "ConvergenceError",
    "EqualizationReport",
    "FitError",
    "MarketState",
    "MatchProfile",
    "MixtureBeta",
    "PairRate",
    "Partition",
    "PsiInterpolator",
    "QuestionBank",
    "QuestionDistribution",
    "RateEstimate",
    "SimConfig",
    "SimResult",
    "SolverConfig",
    "SolverResult",
    "StepBeta",
    "WeightSpec",
    "adjacent_rates",
    "asymptotic_value",
    "double_levels",
    "empirical_objective",
    "equalize_chain",
    "equispaced_partition",
    "estimate_known",
    "estimate_pk_rate",
    "estimate_unknown",
    "fit_h",
    "fixture_bank",
    "fixture_interpolator",
    "induced_beta",
    "inf_point",
    "init_market",
    "interval_mass",
    "kl_bernoulli",
    "l1_gap",
    "load_design",
    "naive_uniform_h",
    "nested_bisection",
    "normalize_weight",
    "numeric_pairwise_rate",
    "optimize_partition",
    "overall_rate",
    "pair_report",
    "pairwise_rate",
    "read_qualities_csv",
    "read_ratings_csv",
    "run_simulation",
    "save_design",
    "step_market",
    "verify_equalization",
    "within_mass",
    "write_qualities_csv",
    "write_ratings_csv",
    "__version__",
]
