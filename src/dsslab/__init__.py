"""Distinct-subset-sum laboratory.

Library and CLI for the high-dimensional distinct-subset-sums problem:
exact combinatorial identities, p-norm ball geometry with lattice-shell
cross-checks, statistical lower bounds on the minimal component bound M,
an exact subset-sum verifier, an exhaustive minimal-M searcher at desk
scale, and exact/Monte Carlo moment evaluation for concrete sequences.
"""

from .bounds import (
    METHOD_FIRST,
    METHOD_THIRD,
    METHOD_TOKENS,
    METHOD_VARIANCE,
    BoundReport,
    MethodComparison,
    best_method,
    coeff,
    crossover_table,
    lower_bound,
    published_regime,
    regime_disagreements,
)
from .combinatorics import (
    ScaledMomentSum,
    closed_form_s1,
    closed_form_s3,
    scaled_abs_moment_sum,
)
from .errors import BudgetExceededError
from .moments import (
    ConvexityCounterexample,
    MomentValue,
    SignedSumDistribution,
    VarianceDiscrepancy,
    convexity_probe,
    exact_moment,
    extremal_moment,
    mc_estimate,
    signed_sum_distribution,
    variance_identity_check,
)
from .pnorm import (
    LatticeShellSummary,
    ball_volume,
    gamma_fn,
    gamma_root,
    lattice_count_check,
    lattice_shell_enumerate,
    max_enumerable_n,
    radius_for_count,
)
from .sequences import (
    SEARCH_LIMITS,
    VERIFY_MAX_N,
    Collision,
    SearchOutcome,
    VectorSequence,
    baseline_construction,
    bound_vs_search_report,
    iter_gray_subset_sums,
    min_m_search,
    verify_distinct,
)

__version__ = "0.1.0"
