"""Numerical certification of Rademacher-complexity generalization bounds.

Exact enumeration on finite models where feasible, seeded Monte Carlo with
confidence intervals otherwise.  See the README for the CLI and config schema.
"""

from .complexity import (
    ComplexityResult,
    Method,
    check_without_abs_le_abs,
    empirical_rademacher,
    empirical_rademacher_mc,
    empirical_rademacher_without_abs,
    expected_rademacher,
    expected_rademacher_mc,
)
from .concentration import (
    TailExperiment,
    clopper_pearson_lower,
    clopper_pearson_upper,
    high_probability_epsilon,
    mcdiarmid_bound,
    simulate_tail,
    verify_tail_bound,
)
from .core import (
    DEFAULT_PRODUCT_CAP,
    DEFAULT_SIGN_CAP,
    DegenerateClass,
    DimensionMismatch,
    DiscreteDistribution,
    DrawBudgetExceeded,
    EvaluatedClass,
    ExactEnumerationLimit,
    GenboundError,
    InvalidDelta,
    InvalidEnvelope,
    InvalidRadius,
    InvariantViolation,
    MAX_DRAW_ELEMENTS,
    deterministic_sum,
    product_orbits,
)
from .deviation import (
    DeviationAudit,
    audit_bounded_difference,
    check_symmetrization_identity,
    verify_expectation_bound,
)
from .entropy import (
    CoverMethod,
    CoverResult,
    DudleyResult,
    covering_number_exact,
    covering_number_greedy,
    dudley_bound,
    verify_dudley,
)
from .linear import (
    L1Linf,
    L2Ball,
    LinearInstance,
    l1_bound,
    l2_bound,
    massart_bound,
    verify_linear_bound,
    verify_linear_bounds,
    verify_random_linear_bounds,
)

__version__ = "0.19.0"
