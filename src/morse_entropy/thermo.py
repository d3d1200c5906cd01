"""Free energy, Gibbs weights, and the Legendre route to the rate curve.

The partition sum over a spectrum's critical values, Z(beta) =
sum_i m_i exp(-beta v_i), carries the same information as the entropy
maximiser in :mod:`.rate` through the Legendre pairing
``epsilon(c) = inf_beta (log Z(beta) + beta c)``.  This module keeps its
own root-find in beta, an Illinois-modified regula falsi on the Gibbs
mean, sharing no solver code with :mod:`.rate`, so agreement with the
maxent solver is a genuine two-route check and not a function compared
with itself.  A solve measures the atoms from the hull edge nearer its
target and converts them to floats once, not at every Gibbs-mean step,
so the result is accurate relative to its size at both edges.

The continuum analogue is exercised on the circle with height
``f0(theta) = (1 - cos theta) / 2``: averaging exp(-beta f0) over the
circle and taking ``g(beta) = -log Z / beta`` must squeeze toward the
minimum height 0 at the Laplace rate O(log beta / beta).  The average
(not the bare arc-length integral) is what keeps g positive at moderate
beta; the bare integral starts at log(2 pi) and would push g below zero
until beta exceeds 4 pi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple, Union

from .rate import ConvergenceError
from .spectrum import CriticalSpectrum

#: The Gibbs-mean regula falsi stops once the mean is within this much
#: of the target, relative to the target's distance from the nearer hull
#: edge (or once its bracket stops shrinking); kept apart from the maxent
#: solver's stopping rule so the two routes fail independently.
MEAN_RTOL = 1e-16
#: Iteration cap of that regula falsi; hitting it raises ConvergenceError.
MAX_ITERATIONS = 200
#: Quadrature refinement stops when doubling the grid moves Z by less
#: than this relative amount.
QUADRATURE_RTOL = 1e-10
_QUADRATURE_START_POINTS = 256
_QUADRATURE_MAX_POINTS = 1 << 21


class GibbsState(NamedTuple):
    """Normalised Boltzmann weights over the atoms at inverse temperature beta."""

    beta: float
    p: Tuple[float, ...]
    free_energy: float

    def mean_value(self, spec: CriticalSpectrum) -> float:
        return sum(pi * float(a.value) for pi, a in zip(self.p, spec.atoms))


def _atom_floats(spec: CriticalSpectrum) -> Tuple[List[float], List[float]]:
    """Log multiplicities and float values of the atoms, in atom order."""
    return [math.log(a.multiplicity) for a in spec.atoms], [float(a.value) for a in spec.atoms]


def _boltzmann(log_m: List[float], fv: List[float], beta: float):
    scores = [lm - beta * v for lm, v in zip(log_m, fv)]
    shift = max(scores)
    return shift, [math.exp(s - shift) for s in scores]


def _log_z(shift: float, masses: List[float]) -> float:
    # The largest mass is exp(0) = 1 exactly; log1p of the others keeps F
    # accurate where they sum to less than the rounding error of 1.
    return shift + math.log1p(sum(sorted(masses)[:-1]))


def gibbs(spec: CriticalSpectrum, beta: float) -> GibbsState:
    """Boltzmann distribution over atoms at a finite beta; concentrates on value 0 as it grows."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    shift, masses = _boltzmann(*_atom_floats(spec), beta)
    z = sum(masses)
    p = tuple(m / z for m in masses)
    return GibbsState(beta=float(beta), p=p, free_energy=_log_z(shift, masses))


def _gibbs_mean(log_m: List[float], fv: List[float], beta: float) -> float:
    _, masses = _boltzmann(log_m, fv, beta)
    return sum(map(mul, masses, fv)) / sum(masses)


def legendre_epsilon(spec: CriticalSpectrum, c: Union[Fraction, float]) -> float:
    """inf over beta of F(beta) + beta*c, by regula falsi on the Gibbs mean.

    Values and target are measured from the hull edge nearer c, which
    leaves the infimum unchanged.  The Gibbs mean then decreases strictly
    in beta from the far edge to 0, so the minimiser is the beta matching
    the mean to the target d; the Illinois-modified regula falsi stops
    once the mean is within 1e-16*d of it or the bracket stops
    shrinking.  Targets at the extreme values short-circuit to
    log(multiplicity there); targets outside the value hull raise
    ValueError.
    """
    v_lo, v_hi = spec.atoms[0].value, spec.atoms[-1].value
    if not v_lo <= c <= v_hi:
        raise ValueError(f"target {c} outside the value hull [{v_lo}, {v_hi}]")
    if c == v_lo:
        return math.log(spec.atoms[0].multiplicity)
    if c == v_hi:
        return math.log(spec.atoms[-1].multiplicity)

    # Measure from the nearer edge, exactly in rationals and rounded once,
    # so a target a hair inside either edge keeps its relative precision.
    c = Fraction(c)
    below, above = c - v_lo, v_hi - c
    log_m = [math.log(a.multiplicity) for a in spec.atoms]
    if above < below:
        fv, d = [float(v_hi - a.value) for a in spec.atoms], float(above)
    else:
        fv, d = [float(a.value - v_lo) for a in spec.atoms], float(below)
    # Gibbs mean decreases in beta: expand until [lo, hi] straddles d.
    lo, hi = -1.0, 1.0
    f_lo = _gibbs_mean(log_m, fv, lo) - d
    f_hi = _gibbs_mean(log_m, fv, hi) - d
    for _ in range(60):
        if f_lo >= 0.0:
            break
        lo *= 2.0
        f_lo = _gibbs_mean(log_m, fv, lo) - d
    for _ in range(60):
        if f_hi <= 0.0:
            break
        hi *= 2.0
        f_hi = _gibbs_mean(log_m, fv, hi) - d

    tol = MEAN_RTOL * d
    kept = 0  # side that kept its endpoint last step: -1 lo, 1 hi
    for _ in range(MAX_ITERATIONS):
        beta = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < beta < hi:
            # the secant lands on an end: the root is within rounding of it
            beta = hi if beta >= hi else lo
            break
        f = _gibbs_mean(log_m, fv, beta) - d
        if abs(f) <= tol:
            break
        if f > 0.0:
            lo, f_lo = beta, f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = beta, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    else:
        raise ConvergenceError(
            f"Gibbs-mean regula falsi did not reach {MEAN_RTOL} relative "
            f"within {MAX_ITERATIONS} iterations"
        )
    return _log_z(*_boltzmann(log_m, fv, beta)) + beta * d


def circle_height(theta: float) -> float:
    """Height on the circle, rescaled to [0, 1]: (1 - cos theta) / 2."""
    return 0.5 * (1.0 - math.cos(theta))


def _circle_partition_mean(beta: float, points: int) -> float:
    # Periodic trapezoid rule collapses to the plain average over one period.
    step = 2.0 * math.pi / points
    return math.fsum(math.exp(-beta * circle_height(k * step)) for k in range(points)) / points


class LaplaceRow(NamedTuple):
    beta: float
    z: float
    g: float
    points: int
    converged: bool


class LaplaceReport(NamedTuple):
    """Continuum sanity check of the ground-state squeeze on the circle."""

    rows: Tuple[LaplaceRow, ...]
    violations: Tuple[str, ...]

    @property
    def converged(self) -> bool:
        return all(row.converged for row in self.rows)

    @property
    def passed(self) -> bool:
        return self.converged and not self.violations


def laplace_check(beta_grid: Sequence[float]) -> LaplaceReport:
    """Evaluate g(beta) = -log Z(beta) / beta over a positive beta grid.

    Z is the average of exp(-beta * height) over the circle, refined by
    doubling the quadrature grid until successive values agree to 1e-10
    relative.  Asserted behaviour, collected as violations: g stays in
    (0, 5*log(beta)/beta] for beta >= 10, and g decreases along the grid.
    """
    betas = [float(b) for b in beta_grid]
    if not betas:
        raise ValueError("beta grid is empty")
    if any(b <= 0 for b in betas):
        raise ValueError("beta grid must be positive")
    if not all(map(math.isfinite, betas)):
        raise ValueError("beta grid must be finite")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")

    rows: List[LaplaceRow] = []
    violations: List[str] = []
    for beta in betas:
        points = _QUADRATURE_START_POINTS
        z = _circle_partition_mean(beta, points)
        converged = False
        while not converged and points <= _QUADRATURE_MAX_POINTS // 2:
            refined = _circle_partition_mean(beta, 2 * points)
            points *= 2
            converged = abs(refined - z) <= QUADRATURE_RTOL * abs(refined)
            z = refined
        g = -math.log(z) / beta
        rows.append(LaplaceRow(beta=beta, z=z, g=g, points=points, converged=converged))
        if not converged:
            violations.append(f"quadrature did not settle at beta={beta:g}")
        if beta >= 10.0:
            bound = 5.0 * math.log(beta) / beta
            if not 0.0 < g <= bound:
                violations.append(f"g({beta:g}) = {g:.6g} outside (0, {bound:.6g}]")
    for earlier, later in zip(rows, rows[1:]):
        if not later.g < earlier.g:
            violations.append(
                f"g not decreasing: g({earlier.beta:g}) = {earlier.g:.6g} -> g({later.beta:g}) = {later.g:.6g}"
            )
    return LaplaceReport(rows=tuple(rows), violations=tuple(violations))
