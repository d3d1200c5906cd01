"""Exact critical-point statistics for averaged sums of a Morse function.

A single closed factor is described by the finite list of its critical
values with multiplicities and homology weights.  Averaging n copies
produces product critical points whose means live on a rational grid;
this package counts them exactly, counts the homology entering the
sublevel filtration, and computes the exponential growth rates of both
via a constrained entropy maximiser, cross-checked by a Legendre
transform of the free energy.  Law checks (domination, superadditivity,
Fekete-style convergence, bounds) turn the structural statements into
exact integer comparisons.
"""

from .counter import (
    Boundary,
    DEFAULT_CAP,
    Kind,
    MeanDistribution,
    ResourceCapError,
    WindowQuery,
    count_window,
    finite_rate,
    mean_distribution,
    window_counts,
)
from .laws import (
    LawReport,
    Violation,
    check_bounds_and_max,
    check_domination,
    check_fekete,
    check_superadditivity,
    random_windows,
)
from .rate import (
    ConvergenceError,
    Curve,
    MaxEntProblem,
    MaxEntSolution,
    betti_curve,
    epsilon_curve,
    maxent_rate,
    window_sup_rate,
)
from .spectrum import (
    CriticalSpectrum,
    SpectrumAtom,
    SpectrumError,
    as_rational,
    preset,
    preset_names,
    validate_spectrum,
)
from .thermo import (
    GibbsState,
    LaplaceReport,
    LaplaceRow,
    circle_height,
    gibbs,
    laplace_check,
    legendre_epsilon,
)

__version__ = "1.0.0"

__all__ = [
    "Boundary",
    "ConvergenceError",
    "CriticalSpectrum",
    "Curve",
    "DEFAULT_CAP",
    "GibbsState",
    "Kind",
    "LaplaceReport",
    "LaplaceRow",
    "LawReport",
    "MaxEntProblem",
    "MaxEntSolution",
    "MeanDistribution",
    "ResourceCapError",
    "SpectrumAtom",
    "SpectrumError",
    "Violation",
    "WindowQuery",
    "as_rational",
    "betti_curve",
    "check_bounds_and_max",
    "check_domination",
    "check_fekete",
    "check_superadditivity",
    "circle_height",
    "count_window",
    "epsilon_curve",
    "finite_rate",
    "gibbs",
    "laplace_check",
    "legendre_epsilon",
    "maxent_rate",
    "mean_distribution",
    "preset",
    "preset_names",
    "random_windows",
    "validate_spectrum",
    "window_counts",
    "window_sup_rate",
]
