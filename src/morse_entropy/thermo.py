"""Free energy, Gibbs weights, and the Legendre route to the rate curve.

The partition sum over a spectrum's critical values, Z(beta) =
sum_i m_i exp(-beta v_i), carries the same information as the entropy
maximiser in :mod:`.rate` through the Legendre pairing
``epsilon(c) = inf_beta (log Z(beta) + beta c)``.  This module keeps its
own root-find in beta, a derivative-free regula falsi on the Gibbs mean
with Anderson-Bjorck end scaling, sharing no solver code with
:mod:`.rate`, so agreement with the maxent solver is a genuine two-route
check and not a function compared with itself.  A solve places its
target and the atoms as integer numerators over a common denominator,
measures them from the hull edge nearer the target and rounds each
distance to a float once, so the result is accurate relative to its size
at both edges.  The root-find starts at the closed-form root of the
two-atom family made of the edge atom and its neighbour, and steps out
from there with doubling steps until the Gibbs mean crosses the target.

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
from itertools import chain
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


def _gibbs_root(log_m: List[float], fv: List[float], d: float, beta: float) -> float:
    """The beta where the Gibbs mean, decreasing in beta, equals d > 0.

    From the seed ``beta``, steps of 1, 2, 4, ... walk toward d until the
    mean crosses it; each end that does not cross replaces the last.  A
    regula falsi then runs on the bracket, scaling a kept end's value the
    Anderson-Bjorck way, until the mean is within MEAN_RTOL*d of d or the
    bracket stops shrinking.  It raises ConvergenceError when the steps
    leave the float range before the mean crosses d, or after
    MAX_ITERATIONS regula falsi steps.
    """
    tol = MEAN_RTOL * d
    f = _gibbs_mean(log_m, fv, beta) - d
    if abs(f) <= tol:
        return beta
    up = f > 0.0  # the mean is above d: the root lies at a larger beta
    # steps start at 1, or at one ulp of a seed too large for 1 to move
    step = max(1.0, math.ulp(beta)) * (1.0 if up else -1.0)
    while True:
        far = beta + step
        if not math.isfinite(far):
            raise ConvergenceError("no Gibbs-mean bracket within the float range")
        f_far = _gibbs_mean(log_m, fv, far) - d
        if (f_far <= 0.0) if up else (f_far >= 0.0):
            break
        beta, f = far, f_far
        step *= 2.0
    lo, f_lo, hi, f_hi = (beta, f, far, f_far) if up else (far, f_far, beta, f)

    kept = 0  # the end kept last step: 1 hi, -1 lo
    for _ in range(MAX_ITERATIONS):
        beta = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < beta < hi:
            # the secant lands on an end: the root is within rounding of it
            return hi if beta >= hi else lo
        f = _gibbs_mean(log_m, fv, beta) - d
        if abs(f) <= tol:
            return beta
        if f > 0.0:
            if kept == 1:
                scale = 1.0 - f / f_lo
                f_hi *= scale if scale > 0.0 else 0.5
            lo, f_lo, kept = beta, f, 1
        else:
            if kept == -1:
                scale = 1.0 - f / f_hi
                f_lo *= scale if scale > 0.0 else 0.5
            hi, f_hi, kept = beta, f, -1
    raise ConvergenceError(
        f"Gibbs-mean regula falsi did not reach {MEAN_RTOL} relative "
        f"within {MAX_ITERATIONS} iterations"
    )


def legendre_epsilon(spec: CriticalSpectrum, c: Union[Fraction, float]) -> float:
    """inf over beta of F(beta) + beta*c, by regula falsi on the Gibbs mean.

    The target is read exactly, a float as the binary fraction it holds.
    It and the atom values become integer numerators over one common
    denominator, so the hull test is exact and each distance below is
    rounded to a float once.  Values and target are measured from the hull
    edge nearer c, which leaves the infimum unchanged.  The Gibbs mean then
    decreases strictly in beta from the far edge to 0, so the minimiser is
    the beta matching the mean to the target's distance d from that edge.
    The search starts at the root of the two-atom family made of the edge
    atom (multiplicity m0) and its nearest neighbour (gap g, multiplicity
    m1), beta0 = (log((g - d)/d) + log m1 - log m0)/g when d < g and 0
    otherwise, which is exact for a two-atom spectrum; see
    :func:`_gibbs_root` for the rest.  Targets at the extreme values
    short-circuit to log(multiplicity there); targets outside the value
    hull raise ValueError.
    """
    atoms, denom = spec.atoms, spec.denom
    try:
        num, den = c.as_integer_ratio()
    except (ValueError, OverflowError):  # nan or an infinite float
        num, den = 0, 0  # den = 0 puts it outside the hull below
    # The atoms over denom, and the target and hull ends over den * denom
    ks = [a.value.numerator * (denom // a.value.denominator) for a in atoms]
    t, lo, hi = num * denom, ks[0] * den, ks[-1] * den
    if not (den and lo <= t <= hi):
        raise ValueError(f"target {c} outside the value hull [{atoms[0].value}, {atoms[-1].value}]")
    if t == lo:
        return math.log(atoms[0].multiplicity)
    if t == hi:
        return math.log(atoms[-1].multiplicity)

    log_m = [math.log(a.multiplicity) for a in atoms]
    # int / int rounds the exact distance once, as float(Fraction) does
    if hi - t < t - lo:
        fv, d, edge, near = [(ks[-1] - k) / denom for k in ks], (hi - t) / (den * denom), -1, -2
    else:
        fv, d, edge, near = [(k - ks[0]) / denom for k in ks], (t - lo) / (den * denom), 0, 1
    g = fv[near]
    # log(g - d) - log(d) stays finite where (g - d)/d would overflow
    seed = (math.log(g - d) - math.log(d) + log_m[near] - log_m[edge]) / g if 0.0 < d < g else 0.0
    beta = _gibbs_root(log_m, fv, d, seed)
    return _log_z(*_boltzmann(log_m, fv, beta)) + beta * d


def circle_height(theta: float) -> float:
    """Height on the circle, rescaled to [0, 1]: (1 - cos theta) / 2."""
    return 0.5 * (1.0 - math.cos(theta))


def _circle_sum(beta: float, points: int, ks: range, total: float = 0.0) -> float:
    """total plus exp(-beta * height) at the angles k * 2 pi / points for k in ks, rounded once."""
    step = 2.0 * math.pi / points
    return math.fsum(chain((total,), (math.exp(-beta * circle_height(k * step)) for k in ks)))


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

    Z is the average of exp(-beta * height) over a uniform grid on the
    circle.  Each refinement doubles the grid and adds only the new
    midpoints to the running sum, until successive averages agree to 1e-10
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
        # The periodic trapezoid rule is the plain average over one period.
        points = _QUADRATURE_START_POINTS
        total = _circle_sum(beta, points, range(points))
        z = total / points
        converged = False
        while not converged and points <= _QUADRATURE_MAX_POINTS // 2:
            # The doubled grid's even points are the old ones bit for bit,
            # since (2k) * (h/2) == k * h in floats: add only its odd ones.
            total = _circle_sum(beta, 2 * points, range(1, 2 * points, 2), total)
            points *= 2
            refined = total / points
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
