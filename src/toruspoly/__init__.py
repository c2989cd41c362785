"""Exact computations with torus-valued polynomials on F_p^n: uniformity
norms, analytic rank, symmetric multilinear forms, weighted-degree maps on
Z^m, and Host-Kra cube groups."""

from .core import (
    BudgetExceeded,
    ExactExpectation,
    TorusValue,
    UnityCounter,
)
from .forms import (
    MultilinearForm,
    antiderivative,
    bias,
    binomial_lift_power,
    check_dkp,
    concat,
    dk_extract,
    naive_bias,
    sym_power,
)
from .norms import (
    AnalyticRank,
    BoundedFunction,
    analytic_rank,
    conditional_expectation,
    gowers_norm,
    gowers_power,
    gowers_power_exact,
    inverse_explore,
    rank_witness_check,
    walsh_fourier,
)
from .poly import (
    CanonicalForm,
    NCPoly,
    NotPolynomialError,
    canonical_slots,
    count_polys,
    enumerate_polys,
)
from .cubes import (
    FilteredAbelianGroup,
    equidistribution_report,
    hk_taylor,
    is_polynomial_map,
)
from .weighted import (
    Factor,
    PeriodicMap,
    WeightedPoly,
    binomial_expand,
    periodicity_check,
    weighted_degree,
)
from .suites import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"
