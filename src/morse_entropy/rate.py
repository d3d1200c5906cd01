"""Growth rates via constrained entropy maximisation.

The exponential growth rate of window counts is the maximum of
``H(p) + sum_i p_i log w_i`` over probability vectors p on the atom
values with mean pinned to the window centre.  The maximiser lies on the
exponential family ``p_i(lam) proportional to w_i * exp(lam * v_i)``,
whose mean increases strictly in lam, so the multiplier is found by
bracketed bisection on the mean and the optimum value collapses to
``log Z(lam) - lam * c``.  At lam = 0 the constraint is inactive and the
curve peaks at ``log(sum of weights)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .spectrum import CriticalSpectrum, as_rational, entry_multiset

#: Bisection stops once the family mean is this close to the target.
MEAN_TOL = 1e-12
#: Hard iteration cap; hitting it is reported, never silently truncated.
MAX_ITERATIONS = 200

KIND_EPSILON = "epsilon"
KIND_BETTI = "betti"


class ConvergenceError(RuntimeError):
    """A root-find or quadrature failed to reach its tolerance."""


@dataclass(frozen=True)
class MaxEntProblem:
    """Distinct rational values, positive weights, and a target mean."""

    values: Tuple[Fraction, ...]
    weights: Tuple[float, ...]
    target: Union[Fraction, float]

    def __post_init__(self):
        values = tuple(as_rational(v) for v in self.values)
        weights = tuple(float(w) for w in self.weights)
        if len(values) != len(weights) or not values:
            raise ValueError("values and weights must have equal length >= 1")
        order = sorted(range(len(values)), key=lambda i: values[i])
        values = tuple(values[i] for i in order)
        weights = tuple(weights[i] for i in order)
        if any(values[i] == values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("values must be distinct")
        if any(w <= 0 or not math.isfinite(w) for w in weights):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class MaxEntSolution:
    """Solver output; ``lam`` is the mean-constraint multiplier.

    ``rate`` equals H(p) + sum p_i log w_i for the returned p, and the
    envelope identity gives d(rate)/dc = -lam along the curve.  Boundary
    targets are solved exactly by a point mass, reported with lam = -inf
    (left end) or +inf (right end).
    """

    lam: float
    p: Tuple[float, ...]
    rate: float
    converged: bool
    iterations: int


def _family(values: Sequence[float], log_w: Sequence[float], lam: float):
    """Mean, log Z, and shifted masses of the family at lam."""
    scores = [lw + lam * v for lw, v in zip(log_w, values)]
    shift = max(scores)
    masses = [math.exp(s - shift) for s in scores]
    z = sum(masses)
    mean = sum(m * v for m, v in zip(masses, values)) / z
    return mean, shift + math.log(z), masses, z


def _point_mass(problem: MaxEntProblem, index: int, lam: float) -> MaxEntSolution:
    p = [0.0] * len(problem.values)
    p[index] = 1.0
    return MaxEntSolution(
        lam=lam,
        p=tuple(p),
        rate=math.log(problem.weights[index]),
        converged=True,
        iterations=0,
    )


def _is_palindromic(problem: MaxEntProblem) -> bool:
    values, weights = problem.values, problem.weights
    span = values[0] + values[-1]
    return all(
        values[i] + values[-1 - i] == span and weights[i] == weights[-1 - i]
        for i in range(len(values) // 2 + 1)
    )


def maxent_rate(problem: MaxEntProblem) -> MaxEntSolution:
    """Maximise H(p) + sum p_i log w_i subject to mean p = target.

    Interior targets are solved by bisection on the family mean (bracket
    grown geometrically first); targets at the hull edge short-circuit to
    the exact point-mass optimum.  Targets outside [v_min, v_max] raise
    ValueError.
    """
    values = problem.values
    c = problem.target
    if not values[0] <= c <= values[-1]:
        raise ValueError(
            f"target {c} outside the value hull [{values[0]}, {values[-1]}]"
        )
    if c == values[0]:
        return _point_mass(problem, 0, 0.0 if len(values) == 1 else float("-inf"))
    if c == values[-1]:
        return _point_mass(problem, len(values) - 1, float("inf"))

    # Mirror-symmetric problems are solved on the lower half and reflected,
    # so rate(c) and rate(span - c) agree bit for bit on symmetric grids.
    span = values[0] + values[-1]
    if _is_palindromic(problem) and 2 * c > span:
        inner = maxent_rate(MaxEntProblem(values, problem.weights, span - c))
        return MaxEntSolution(
            lam=-inner.lam,
            p=tuple(reversed(inner.p)),
            rate=inner.rate,
            converged=inner.converged,
            iterations=inner.iterations,
        )

    fv = [float(v) for v in values]
    log_w = [math.log(w) for w in problem.weights]
    ct = float(c)

    lo, hi = -1.0, 1.0
    mean_lo, _, _, _ = _family(fv, log_w, lo)
    mean_hi, _, _, _ = _family(fv, log_w, hi)
    for _ in range(60):
        if mean_lo <= ct:
            break
        lo *= 2.0
        mean_lo, _, _, _ = _family(fv, log_w, lo)
    for _ in range(60):
        if mean_hi >= ct:
            break
        hi *= 2.0
        mean_hi, _, _, _ = _family(fv, log_w, hi)

    converged = False
    iterations = 0
    while iterations < MAX_ITERATIONS:
        lam = 0.5 * (lo + hi)
        mean, log_z, masses, z = _family(fv, log_w, lam)
        iterations += 1
        if abs(mean - ct) <= MEAN_TOL:
            converged = True
            break
        if mean < ct:
            lo = lam
        else:
            hi = lam

    p = tuple(m / z for m in masses)
    return MaxEntSolution(
        lam=lam,
        p=p,
        rate=log_z - lam * mean,
        converged=converged,
        iterations=iterations,
    )


@dataclass(frozen=True)
class Curve:
    """Rates over a strictly increasing rational grid."""

    grid: Tuple[Fraction, ...]
    rates: Tuple[float, ...]
    kind: str

    def __post_init__(self):
        if len(self.grid) != len(self.rates):
            raise ValueError("grid and rates must have equal length")
        if len(self.grid) < 2:
            raise ValueError("a curve needs at least two points")
        if any(self.grid[i] >= self.grid[i + 1] for i in range(len(self.grid) - 1)):
            raise ValueError("grid must be strictly increasing")


def _curve(values, weights, grid_points: int, kind: str) -> Curve:
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid = tuple(Fraction(j, grid_points - 1) for j in range(grid_points))
    rates = []
    for c in grid:
        sol = maxent_rate(MaxEntProblem(values, weights, c))
        # A non-converged point is marked nan rather than trusted.
        rates.append(sol.rate if sol.converged else math.nan)
    return Curve(grid=grid, rates=tuple(rates), kind=kind)


def epsilon_curve(spec: CriticalSpectrum, grid_points: int) -> Curve:
    """Critical-point growth rate on a uniform grid over [0, 1]."""
    return _curve(
        spec.values(), tuple(float(m) for m in spec.multiplicities()),
        grid_points, KIND_EPSILON,
    )


def betti_curve(spec: CriticalSpectrum, grid_points: int) -> Curve:
    """Homology growth rate on a uniform grid over [0, 1]."""
    entries = entry_multiset(spec)
    return _curve(
        tuple(v for v, _ in entries), tuple(float(w) for _, w in entries),
        grid_points, KIND_BETTI,
    )


def concavity_check(curve: Curve, tol: float) -> List[int]:
    """Indices where the midpoint inequality fails by more than tol.

    Requires a uniform grid.  -inf never certifies a violation on the
    right-hand side; a -inf value strictly between finite neighbours does.
    """
    steps = {curve.grid[i + 1] - curve.grid[i] for i in range(len(curve.grid) - 1)}
    if len(steps) > 1:
        raise ValueError("concavity check needs a uniform grid")
    bad: List[int] = []
    for i in range(1, len(curve.rates) - 1):
        left, mid, right = curve.rates[i - 1], curve.rates[i], curve.rates[i + 1]
        if math.isnan(left) or math.isnan(mid) or math.isnan(right):
            bad.append(i)
            continue
        if not mid >= 0.5 * (left + right) - tol:
            bad.append(i)
    return bad


def window_sup_rate(
    values: Sequence[Union[Fraction, int]],
    weights: Sequence[float],
    lo: Union[Fraction, float],
    hi: Union[Fraction, float],
) -> float:
    """Supremum of the maxent rate over a value window.

    The rate is concave with its peak at the weighted mean of the values,
    so the supremum is either the peak value log(sum w) or the rate at
    the window edge nearer the peak.  A window missing the hull entirely
    returns -inf.
    """
    problem_values = tuple(as_rational(v) for v in values)
    w = tuple(float(x) for x in weights)
    v_min, v_max = min(problem_values), max(problem_values)
    win_lo = lo if lo >= v_min else v_min
    win_hi = hi if hi <= v_max else v_max
    if win_lo > win_hi:
        return float("-inf")
    total = sum(w)
    c_star = sum(wi * float(vi) for wi, vi in zip(w, problem_values)) / total
    if win_lo <= c_star <= win_hi:
        return math.log(total)
    edge = win_lo if c_star < win_lo else win_hi
    return maxent_rate(MaxEntProblem(problem_values, w, edge)).rate
