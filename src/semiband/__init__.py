"""Exact-arithmetic analysis of disjointness-type properties of linear
operators on atomic function lattices, plus a symbolic piecewise-polynomial
model of the nonatomic case."""

from .atomic import (
    INF,
    AtomicSpace,
    NormSpec,
    SupportSet,
    band_contains,
    basis_vector,
    is_disjoint,
    is_strictly_monotone,
    norm_value,
    support,
    vec,
    zero_vector,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IndeterminateComparisonError,
    InternalConsistencyError,
    SemibandError,
    UnachievableSupportError,
    ValidationError,
)
from .interval import (
    FiniteRankOp,
    FropWitness,
    IntervalRegion,
    PiecewisePoly,
    frop_apply,
    frop_is_sbp,
    frop_is_scp,
    frop_range_supports,
    integrate,
    make_full_support_projection,
    make_sbp_not_scp_operator,
    pp_band_contains,
    pp_disjoint,
    pp_support,
    rank_one_frop,
    realize_range_support,
    replay_frop_witness,
)
from .operators import (
    ClosureReport,
    Operator,
    PredicateResult,
    SigmaTable,
    Witness,
    apply,
    enumerate_sigma,
    is_band_preserving,
    is_beta,
    is_disjointness_preserving,
    is_projection,
    is_sbp,
    is_scp,
    minimal_supports,
    operator_norm,
    realize_support,
    replay_witness,
    verify_sigma_closures,
)
from .values import ExactValue, IntervalValue, SqrtValue, compare, multiply, sqrt_value
from .wce import (
    ProbeFinding,
    WceForm,
    averaging_form,
    decompose_wce,
    escape_projection,
    make_averaging,
    make_wce,
    probe_norm_one_projections,
    rank_one,
    verify_probe_finding,
    wce_operator_norm,
)
from .generators import gen_random_operator, gen_random_wce

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
