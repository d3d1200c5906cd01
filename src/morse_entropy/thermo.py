"""Free energy, Gibbs weights, and the Legendre route to the rate curve.

The partition sum over a spectrum's critical values, Z(beta) =
sum_i m_i exp(-beta v_i), carries the same information as the entropy
maximiser in :mod:`.rate` through the Legendre pairing
``epsilon(c) = inf_beta (log Z(beta) + beta c)``.  This module keeps its
own bisection over the Gibbs mean, written against ``free_energy`` and
``gibbs`` below, so agreement with the maxent solver is a genuine
two-route check and not a function compared with itself.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .rate import ConvergenceError, MAX_ITERATIONS, MEAN_TOL
from .spectrum import CriticalSpectrum

#: Quadrature refinement stops when doubling the grid moves Z by less
#: than this relative amount.
QUADRATURE_RTOL = 1e-10
_QUADRATURE_MAX_POINTS = 1 << 21


@dataclass(frozen=True)
class GibbsState:
    """Normalised Boltzmann weights over the atoms at inverse temperature beta."""

    beta: float
    p: Tuple[float, ...]
    free_energy: float

    def mean_value(self, spec: CriticalSpectrum) -> float:
        return sum(pi * float(a.value) for pi, a in zip(self.p, spec.atoms))


def _boltzmann(spec: CriticalSpectrum, beta: float):
    scores = [math.log(a.multiplicity) - beta * float(a.value) for a in spec.atoms]
    shift = max(scores)
    return shift, [math.exp(s - shift) for s in scores]


def free_energy(spec: CriticalSpectrum, beta: float) -> float:
    """log of the partition sum over critical values; F(0) = log p."""
    shift, masses = _boltzmann(spec, beta)
    # The largest mass is exp(0) = 1 exactly; log1p of the others keeps F
    # accurate where they sum to less than the rounding error of 1.
    return shift + math.log1p(sum(sorted(masses)[:-1]))


def gibbs(spec: CriticalSpectrum, beta: float) -> GibbsState:
    """Boltzmann distribution over atoms; concentrates on value 0 as beta grows."""
    _, masses = _boltzmann(spec, beta)
    z = sum(masses)
    p = tuple(m / z for m in masses)
    return GibbsState(beta=float(beta), p=p, free_energy=free_energy(spec, beta))


def _gibbs_mean(spec: CriticalSpectrum, beta: float) -> float:
    _, masses = _boltzmann(spec, beta)
    return sum(m * float(a.value) for m, a in zip(masses, spec.atoms)) / sum(masses)


def legendre_epsilon(spec: CriticalSpectrum, c: Union[Fraction, float]) -> float:
    """inf over beta of F(beta) + beta*c, by bisection on the Gibbs mean.

    The Gibbs mean decreases strictly in beta from the top value to the
    bottom one, so the minimiser is the beta matching the mean to c.
    Targets at the extreme values short-circuit to log(multiplicity
    there); targets outside [0, 1] raise ValueError.
    """
    v_lo, v_hi = spec.atoms[0].value, spec.atoms[-1].value
    if not v_lo <= c <= v_hi:
        raise ValueError(f"target {c} outside the value hull [{v_lo}, {v_hi}]")
    if c == v_lo:
        return math.log(spec.atoms[0].multiplicity)
    if c == v_hi:
        return math.log(spec.atoms[-1].multiplicity)

    ct = float(c)
    # Gibbs mean decreases in beta: expand until [lo, hi] straddles ct.
    lo, hi = -1.0, 1.0
    mean_lo = _gibbs_mean(spec, lo)
    mean_hi = _gibbs_mean(spec, hi)
    for _ in range(60):
        if mean_lo >= ct:
            break
        lo *= 2.0
        mean_lo = _gibbs_mean(spec, lo)
    for _ in range(60):
        if mean_hi <= ct:
            break
        hi *= 2.0
        mean_hi = _gibbs_mean(spec, hi)

    for iteration in range(MAX_ITERATIONS):
        beta = 0.5 * (lo + hi)
        mean = _gibbs_mean(spec, beta)
        if abs(mean - ct) <= MEAN_TOL:
            return free_energy(spec, beta) + beta * ct
        if mean > ct:
            lo = beta
        else:
            hi = beta
    raise ConvergenceError(
        f"Gibbs-mean bisection did not reach {MEAN_TOL} within {MAX_ITERATIONS} iterations"
    )


def circle_height(theta: float) -> float:
    """Height on the circle, rescaled to [0, 1]: (1 - cos theta) / 2."""
    return 0.5 * (1.0 - math.cos(theta))


def _circle_partition_mean(beta: float, points: int) -> float:
    # Periodic trapezoid rule collapses to the plain average over one period.
    step = 2.0 * math.pi / points
    return math.fsum(math.exp(-beta * circle_height(k * step)) for k in range(points)) / points


@dataclass(frozen=True)
class LaplaceRow:
    beta: float
    z: float
    g: float
    points: int
    converged: bool


@dataclass(frozen=True)
class LaplaceReport:
    """Continuum sanity check of the ground-state squeeze on the circle."""

    rows: Tuple[LaplaceRow, ...]
    violations: Tuple[str, ...]

    @property
    def converged(self) -> bool:
        return all(row.converged for row in self.rows)

    @property
    def passed(self) -> bool:
        return self.converged and not self.violations


def laplace_check(beta_grid: Sequence[float], quadrature_points: int = 256) -> LaplaceReport:
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
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")
    if quadrature_points < 256:
        raise ValueError("need at least 256 quadrature points")

    rows: List[LaplaceRow] = []
    violations: List[str] = []
    for beta in betas:
        points = quadrature_points
        z = _circle_partition_mean(beta, points)
        converged = False
        while points <= _QUADRATURE_MAX_POINTS // 2:
            refined = _circle_partition_mean(beta, 2 * points)
            points *= 2
            if abs(refined - z) <= QUADRATURE_RTOL * abs(refined):
                z = refined
                converged = True
                break
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
