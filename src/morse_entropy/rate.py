"""Growth rates via constrained entropy maximisation.

The exponential growth rate of window counts is the maximum of
``H(p) + sum_i p_i log w_i`` over probability vectors p on the atom
values with mean pinned to the window centre.  The maximiser lies on the
exponential family ``p_i(lam) proportional to w_i * exp(lam * v_i)``,
whose mean increases strictly in lam with the family variance as its
slope, so the multiplier is found by Newton's method on the mean,
safeguarded by a bracket with a bisection fallback, and the optimum
value collapses to ``log Z(lam) - lam * c``.  At lam = 0 the constraint
is inactive and the curve peaks at ``log(sum of weights)``.

A curve validates its :class:`MaxEntProblem` family once and re-targets it
per point.  The family also holds what every solve shares: its values
measured from each hull edge, and its hull ends as integer numerators
over a common denominator, so an exact target is placed and measured
with integer arithmetic.  A curve solves by continuation: it walks each
half of the grid in from its own hull edge and starts each solve at the
multiplier extrapolated from the points before it.  A family that is its
own mirror image about 1/2 gives rate(1 - c) = rate(c) bit for bit, so a
curve over such a family solves only the points with c <= 1/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple, Union

from .spectrum import CriticalSpectrum, _ValidatedRecord, as_rational, entry_multiset

#: Hard iteration cap; hitting it is reported, never silently truncated.
MAX_ITERATIONS = 200
#: Newton stops once its step in lam is this small relative to max(1, |lam|).
_LAM_RTOL = 1e-15
#: An open side of the Newton bracket is closed at this many times
#: max(1, |lam|) from lam, so a step taken where the mean is nearly flat
#: cannot run off to where every mass but one underflows.
_STEP_GROWTH = 8.0

#: Weights of the last 0-3 converged multipliers, newest first, in a walk's
#: starting multiplier: the polynomial through them extrapolated one step.
_EXTRAPOLATE = ((), (1,), (2, -1), (3, -3, 1))


class ConvergenceError(RuntimeError):
    """A root-find or quadrature failed to reach its tolerance."""


class MaxEntProblem(
    _ValidatedRecord,
    NamedTuple(
        "MaxEntProblem",
        [
            ("values", Tuple[Fraction, ...]),
            ("weights", Tuple[float, ...]),
            ("target", Union[Fraction, float]),
        ],
    )
):
    """A validated family (distinct rational values, positive weights) and a target mean.

    The family keeps, per hull edge, its values as floats measured from that
    edge and the log weights to match.  It also keeps the two hull ends as
    integer numerators over their least common denominator.  These are not
    fields, so equality, hashing and the repr ignore them.  :meth:`at`
    re-targets it without redoing any of this.
    """

    def __new__(
        cls, values: Sequence[Fraction], weights: Sequence[float], target: Union[Fraction, float]
    ):
        values = tuple(as_rational(v) for v in values)
        weights = tuple(float(w) for w in weights)
        if len(values) != len(weights) or not values:
            raise ValueError("values and weights must have equal length >= 1")
        values, weights = zip(*sorted(zip(values, weights), key=lambda vw: vw[0]))
        if any(values[i] == values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("values must be distinct")
        if any(w <= 0 or not math.isfinite(w) for w in weights):
            raise ValueError("weights must be positive and finite")
        self = super().__new__(cls, values, weights, target)
        log_w = [math.log(w) for w in weights]
        self._from_edge = {
            1: ([float(v - values[0]) for v in values], log_w),
            -1: ([float(values[-1] - v) for v in reversed(values)], log_w[::-1]),
        }
        denom = math.lcm(values[0].denominator, values[-1].denominator)
        self._hull = (
            values[0].numerator * (denom // values[0].denominator),
            values[-1].numerator * (denom // values[-1].denominator),
            denom,
        )
        return self

    def at(self, target: Union[Fraction, float]) -> MaxEntProblem:
        """The same family with a new target, not validated again."""
        problem = tuple.__new__(MaxEntProblem, (self.values, self.weights, target))
        problem._from_edge, problem._hull = self._from_edge, self._hull
        return problem


class MaxEntSolution(NamedTuple):
    """Solver output; ``lam`` is the mean-constraint multiplier.

    ``rate`` equals H(p) + sum p_i log w_i for the returned p, and the
    envelope identity gives d(rate)/dc = -lam along the curve.  Boundary
    targets are solved exactly by a point mass, reported with lam = -inf
    (left end) or +inf (right end), in 0 iterations.  An interior solve's
    ``iterations`` is the number of family evaluations it made, plus one
    when it started away from lam = 0.
    """

    lam: float
    p: Tuple[float, ...]
    rate: float
    converged: bool
    iterations: int


def _family(values: Sequence[float], log_w: Sequence[float], lam: float):
    """Mean, variance, log Z, and shifted masses with their sum at lam."""
    scores = [lw + lam * v for lw, v in zip(log_w, values)]
    shift = max(scores)
    masses = [math.exp(s - shift) for s in scores]
    top = scores.index(shift)
    # The largest mass is exp(0) = 1 exactly; log1p of the others keeps
    # log Z accurate where they sum to less than the rounding error of 1.
    rest = sum(masses[:top]) + sum(masses[top + 1:])
    z = 1.0 + rest
    mean = sum(map(mul, masses, values)) / z
    dev = [v - mean for v in values]
    var = sum(map(mul, masses, map(mul, dev, dev))) / z
    return mean, var, shift + math.log1p(rest), masses, z


def _point_mass(problem: MaxEntProblem, index: int, lam: float) -> MaxEntSolution:
    p = tuple(float(i == index) for i in range(len(problem.values)))
    rate = math.log(problem.weights[index])
    return MaxEntSolution(lam=lam, p=p, rate=rate, converged=True, iterations=0)


def maxent_rate(problem: MaxEntProblem, start: float = 0.0) -> MaxEntSolution:
    """Maximise H(p) + sum p_i log w_i subject to mean p = target.

    Interior targets are solved by Newton's method on the family mean in
    lam, starting from lam = ``start`` with the family variance as the
    slope.  The signs of mean - target bracket the root; a Newton step that
    would leave the bracket falls back to bisection, and while one side is
    still open it is closed at a fixed multiple of max(1, |lam|) from lam,
    so the bracket expands geometrically.  Values are measured from the
    hull edge nearer the target, so rates close to either edge keep their
    relative accuracy.  Targets at the hull edge short-circuit to the exact
    point-mass optimum.  Targets outside [v_min, v_max] raise ValueError.

    ``start`` is a multiplier in the frame of :attr:`MaxEntSolution.lam`,
    so a neighbouring target's ``lam`` is a warm start.  A non-finite start
    raises ValueError.

    The target is read exactly: an int or Fraction as itself, a float as
    the binary fraction it holds (so 0.1 is a hair above 1/10).  Its
    distance from the nearer edge is that exact difference, rounded once
    to the nearest float.
    """
    if not math.isfinite(start):
        raise ValueError(f"start {start} is not a finite multiplier")
    values = problem.values
    c = problem.target
    try:
        num, den = c.as_integer_ratio()
    except (ValueError, OverflowError):  # nan or an infinite float
        num, den = 0, 0  # den = 0 puts it outside the hull below
    # The target and both hull ends as numerators over one denominator
    lo_num, hi_num, denom = problem._hull
    num, lo_num, hi_num = num * denom, lo_num * den, hi_num * den
    if not (den and lo_num <= num <= hi_num):
        raise ValueError(
            f"target {c} outside the value hull [{values[0]}, {values[-1]}]"
        )
    if num == lo_num:
        return _point_mass(problem, 0, 0.0 if len(values) == 1 else float("-inf"))
    if num == hi_num:
        return _point_mass(problem, len(values) - 1, float("inf"))

    # From the top edge the problem is reflected, v -> v_max - v, which
    # negates lam and reverses p.  A mirror-symmetric problem reflects onto
    # itself, so rate(c) and rate(span - c) agree bit for bit on symmetric
    # grids.
    order = -1 if 2 * num > lo_num + hi_num else 1
    fv, log_w = problem._from_edge[order]
    # int / int rounds the exact difference once, as float(Fraction) does
    ct = (hi_num - num if order < 0 else num - lo_num) / (den * denom)

    # A start of 0 is +0.0 from either edge, which keeps the sign of a
    # returned lam = 0; a start elsewhere counts as one iteration.
    lam, lo, hi = (start * order if start else 0.0), -math.inf, math.inf
    iterations = 1 if start else 0
    mean, var, log_z, masses, z = _family(fv, log_w, lam)
    converged = False
    while True:
        iterations += 1
        if mean == ct:
            converged = True
            break
        if mean < ct:
            lo = lam
        else:
            hi = lam
        scale = max(1.0, abs(lam))
        tol = _LAM_RTOL * scale
        left = max(lo, lam - _STEP_GROWTH * scale)
        right = min(hi, lam + _STEP_GROWTH * scale)
        # var is 0 once every mass but one underflows; nan then falls
        # back to the midpoint below.
        trial = lam + (ct - mean) / var if var > 0.0 else math.nan
        if not (left < trial < right or abs(trial - lam) <= tol):
            trial = 0.5 * (left + right)
        if abs(trial - lam) <= tol:
            converged = True
            break
        if iterations >= MAX_ITERATIONS:
            break
        lam = trial
        mean, var, log_z, masses, z = _family(fv, log_w, lam)

    return MaxEntSolution(
        lam=lam * order,
        p=tuple([m / z for m in masses][::order]),
        rate=log_z - lam * mean,
        converged=converged,
        iterations=iterations,
    )


class Curve(
    _ValidatedRecord,
    NamedTuple(
        "Curve", [("grid", Tuple[Fraction, ...]), ("rates", Tuple[float, ...]), ("kind", str)]
    )
):
    """Rates over a strictly increasing rational grid."""

    __slots__ = ()

    def __new__(cls, grid: Tuple[Fraction, ...], rates: Tuple[float, ...], kind: str):
        if len(grid) != len(rates):
            raise ValueError("grid and rates must have equal length")
        if len(grid) < 2:
            raise ValueError("a curve needs at least two points")
        # integer cross-products compare rationals without building a Fraction
        if any(
            a.numerator * b.denominator >= b.numerator * a.denominator for a, b in pairwise(grid)
        ):
            raise ValueError("grid must be strictly increasing")
        return super().__new__(cls, grid, rates, kind)


def _curve(values, weights, grid_points: int, kind: str) -> Curve:
    """Rates on the grid j / (grid_points - 1), one family for every point.

    Every solve re-targets the one family and places its exact grid target
    with integer arithmetic.  The points with c <= 1/2 are solved in order
    up from c = 0 and the others down from c = 1, so each half walks in from
    its own hull edge.  Along a walk each solve starts at the multiplier
    extrapolated through the last three converged ones (quadratic; linear
    or constant while fewer are known), and from lam = 0 at the first
    interior point and after any point that did not converge or has an
    infinite lam.  A family that is its own mirror image about 1/2 (values
    v and 1 - v with equal weights) gives rate(1 - c) = rate(c) bit for
    bit, because ``maxent_rate`` measures both targets from their nearer
    edge, so only the lower half is walked and the rest is copied.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid = tuple(Fraction(j, grid_points - 1) for j in range(grid_points))
    family = MaxEntProblem(values, weights, grid[0])
    vs, ws = family.values, family.weights
    mirrored = all(v + u == 1 for v, u in zip(vs, reversed(vs))) and ws == ws[::-1]
    half = (grid_points + 1) // 2
    rates = [math.nan] * grid_points
    walks = [range(half)] if mirrored else [range(half), range(grid_points - 1, half - 1, -1)]
    for walk in walks:
        known: List[float] = []
        for j in walk:
            start = sum(map(mul, _EXTRAPOLATE[len(known)], reversed(known)))
            sol = maxent_rate(family.at(grid[j]), start)
            # A non-converged point is marked nan rather than trusted.
            rates[j] = sol.rate if sol.converged else math.nan
            known = known[-2:] + [sol.lam] if sol.converged and math.isfinite(sol.lam) else []
    if mirrored:
        rates[half:] = rates[grid_points - 1 - half::-1]
    return Curve(grid=grid, rates=tuple(rates), kind=kind)


def epsilon_curve(spec: CriticalSpectrum, grid_points: int) -> Curve:
    """Critical-point growth rate on a uniform grid over [0, 1]."""
    return _curve(spec.values(), spec.multiplicities(), grid_points, "epsilon")


def betti_curve(spec: CriticalSpectrum, grid_points: int) -> Curve:
    """Homology growth rate on a uniform grid over [0, 1]."""
    entries = entry_multiset(spec)
    return _curve(
        tuple(v for v, _ in entries), tuple(w for _, w in entries), grid_points, "betti"
    )


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
    family = MaxEntProblem(values, weights, lo)
    v_min, v_max = family.values[0], family.values[-1]
    win_lo = lo if lo >= v_min else v_min
    win_hi = hi if hi <= v_max else v_max
    if win_lo > win_hi:
        return float("-inf")
    total = sum(family.weights)
    c_star = sum(wi * float(vi) for wi, vi in zip(family.weights, family.values)) / total
    if win_lo <= c_star <= win_hi:
        return math.log(total)
    edge = win_lo if c_star < win_lo else win_hi
    return maxent_rate(family.at(edge)).rate
