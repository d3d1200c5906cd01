"""Structural law checks over exact window counts.

Each check sweeps a family of exact integer comparisons and returns a
:class:`LawReport` listing every instance that failed, rather than
raising on the first one.  The laws themselves: homology counts never
exceed critical-point counts in a window; window counts multiply into
blended windows when tuples concatenate; per-site log counts at a fixed
window converge to the concave rate curve; and the curves respect their
analytic bounds with the homology curve peaking at the total homology
dimension.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .counter import (
    Boundary,
    Kind,
    MeanDistribution,
    WindowQuery,
    count_window,
    finite_rate,
    mean_distribution,
    mean_distributions,
)
from .rate import betti_curve, epsilon_curve, maxent_rate, MaxEntProblem, window_sup_rate
from .spectrum import CriticalSpectrum, entry_multiset, validate_spectrum


@dataclass(frozen=True)
class Violation:
    """One failed instance: the inputs and the two compared quantities."""

    inputs: Tuple[Tuple[str, str], ...]
    lhs: object
    rhs: object


@dataclass(frozen=True)
class LawReport:
    law: str
    instances_checked: int
    violations: Tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def merge_reports(*reports: LawReport) -> LawReport:
    """Combine reports for the same law; order of arguments is preserved."""
    if not reports:
        raise ValueError("nothing to merge")
    law = reports[0].law
    if any(r.law != law for r in reports):
        raise ValueError("cannot merge reports for different laws")
    return LawReport(
        law=law,
        instances_checked=sum(r.instances_checked for r in reports),
        violations=tuple(v for r in reports for v in r.violations),
    )


def _tag(**kwargs) -> Tuple[Tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in kwargs.items())


def check_domination(
    spec: CriticalSpectrum,
    n_max: int,
    windows: Sequence[WindowQuery],
    *,
    cap: Optional[int] = None,
) -> LawReport:
    """Homology window counts never exceed critical-point window counts.

    The homology side is counted half-open, the critical side closed, so
    the comparison is exactly the one the downstream rate inequality
    rests on.  The boundary conventions are imposed here; the ``boundary``
    field of the supplied windows is ignored.
    """
    violations: List[Violation] = []
    checked = 0
    for dist_c, dist_b in zip(
        mean_distributions(spec, Kind.CRITICAL, n_max, cap=cap),
        mean_distributions(spec, Kind.BETTI, n_max, cap=cap),
    ):
        for query in windows:
            checked += 1
            betti = count_window(dist_b, replace(query, boundary=Boundary.CLOSED_OPEN))
            critical = count_window(dist_c, replace(query, boundary=Boundary.CLOSED_CLOSED))
            if betti > critical:
                violations.append(
                    Violation(_tag(n=dist_c.n, c=query.c, delta=query.delta), betti, critical)
                )
    return LawReport("betti_dominated_by_critical", checked, tuple(violations))


def check_superadditivity(
    spec: CriticalSpectrum,
    n1: int,
    n2: int,
    c1: Fraction,
    c2: Fraction,
    delta: Fraction,
    *,
    cap: Optional[int] = None,
) -> LawReport:
    """Window counts multiply under concatenation of tuples.

    A tuple pair with means in the (c1, delta) and (c2, delta) windows
    concatenates to a tuple whose mean sits in the window of the same
    delta around the weighted blend of c1 and c2, so the count there is
    at least the product.  Checked as exact integers for the homology
    count (half-open windows) and the critical count (closed windows).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be >= 1")
    c1, c2, delta = Fraction(c1), Fraction(c2), Fraction(delta)
    n = n1 + n2
    c_mix = (n1 * c1 + n2 * c2) / n
    violations: List[Violation] = []
    checked = 0
    for kind, boundary in (
        (Kind.BETTI, Boundary.CLOSED_OPEN),
        (Kind.CRITICAL, Boundary.CLOSED_CLOSED),
    ):
        checked += 1
        whole = count_window(
            mean_distribution(spec, n, kind, cap=cap),
            WindowQuery(c_mix, delta, boundary),
        )
        part1 = count_window(
            mean_distribution(spec, n1, kind, cap=cap),
            WindowQuery(c1, delta, boundary),
        )
        part2 = count_window(
            mean_distribution(spec, n2, kind, cap=cap),
            WindowQuery(c2, delta, boundary),
        )
        if whole < part1 * part2:
            violations.append(
                Violation(
                    _tag(kind=kind.value, n1=n1, n2=n2, c1=c1, c2=c2, delta=delta),
                    whole,
                    part1 * part2,
                )
            )
    return LawReport("window_count_superadditivity", checked, tuple(violations))


# Deterministic spread of pair offsets for the superadditive sampling in
# check_fekete; chosen sparse so large n_max stays affordable.
_PAIR_OFFSETS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
_MAX_PAIRS = 24


def check_fekete(
    spec: CriticalSpectrum,
    c: Union[Fraction, Sequence[Fraction]],
    delta: Fraction,
    n_max: int,
    *,
    cap: Optional[int] = None,
) -> LawReport:
    """Convergence evidence for per-site log homology counts at windows.

    ``c`` is one window centre, or a tuple or list of centres sharing
    ``delta``: one sweep over n = 1..n_max serves them all, and the report
    equals :func:`merge_reports` of the single-centre reports in order.
    Three sub-checks per centre, tagged in the violation inputs: ``unit_floor``
    (counts are >= 1 once n exceeds 2/delta), ``superadditive_pairs``
    (log counts at fixed window superadd, as exact integer products), and
    ``rate_vs_limit`` (the per-site log count at n_max is within
    3*log(n_max * D * B) / n_max of the concave rate supremum over the
    window).  Requires n_max >= ceil(2/delta) + 4 so the tail past the
    unit floor is non-trivial.
    """
    centres = tuple(map(Fraction, c)) if isinstance(c, (tuple, list)) else (Fraction(c),)
    delta = Fraction(delta)
    if not centres:
        raise ValueError("need at least one window centre")
    if delta <= 0:
        raise ValueError("delta must be positive")
    threshold = Fraction(2) / delta
    if n_max < math.ceil(threshold) + 4:
        raise ValueError(
            f"n_max {n_max} too small: need at least ceil(2/delta) + 4 = {math.ceil(threshold) + 4}"
        )
    n_floor = math.floor(threshold) + 1  # smallest n with n > 2/delta

    queries = [WindowQuery(centre, delta, Boundary.CLOSED_OPEN) for centre in centres]
    # columns[i][n - 1] is the count at centre i for n sites.
    columns = zip(*(
        [count_window(dist, query) for query in queries]
        for dist in mean_distributions(spec, Kind.BETTI, n_max, cap=cap)
    ))

    ns = sorted(
        {n_floor + off for off in _PAIR_OFFSETS if n_floor + off <= n_max - n_floor}
    )
    pairs = [
        (a, b) for a in ns for b in ns if a <= b and a + b <= n_max
    ][:_MAX_PAIRS]
    entries = entry_multiset(spec)
    tol = 3.0 * math.log(n_max * spec.denom * spec.total_betti) / n_max

    violations: List[Violation] = []
    checked = 0
    for centre, column in zip(centres, columns):
        counts = (None, *column)
        for n in range(n_floor, n_max + 1):
            checked += 1
            found = counts[n]
            if found < 1:
                violations.append(
                    Violation(_tag(sub_check="unit_floor", n=n, c=centre, delta=delta), found, 1)
                )

        for a, b in pairs:
            checked += 1
            whole, left, right = counts[a + b], counts[a], counts[b]
            if whole < left * right:
                violations.append(
                    Violation(
                        _tag(sub_check="superadditive_pairs", n1=a, n2=b, c=centre, delta=delta),
                        whole,
                        left * right,
                    )
                )

        checked += 1
        sup = window_sup_rate(
            [v for v, _ in entries],
            [float(w) for _, w in entries],
            max(Fraction(0), centre - delta),
            min(Fraction(1), centre + delta),
        )
        observed = finite_rate(counts[n_max], n_max)
        if not abs(observed - sup) <= tol:
            violations.append(
                Violation(
                    _tag(sub_check="rate_vs_limit", n=n_max, c=centre, delta=delta, tol=tol),
                    observed,
                    sup,
                )
            )
    return LawReport("fekete_limit", checked, tuple(violations))


def check_bounds_and_max(spec: CriticalSpectrum, grid_points: int) -> LawReport:
    """Curve ordering and the homology peak.

    Pointwise on a uniform grid: 0 <= betti rate <= epsilon rate <=
    log p, each with 1e-12 slack for float evaluation.  The peak check
    additionally evaluates the homology rate at its exact maximiser (the
    weighted mean of the entry values), since a uniform grid can miss the
    peak by far more than the 1e-9 slack allows.
    """
    if grid_points < 11:
        raise ValueError(f"grid_points must be >= 11, got {grid_points}")
    slack = 1e-12
    eps = epsilon_curve(spec, grid_points)
    bet = betti_curve(spec, grid_points)
    log_p = math.log(spec.p)
    violations: List[Violation] = []
    checked = 0
    for c, rate_e, rate_b in zip(eps.grid, eps.rates, bet.rates):
        checked += 1
        if not rate_b >= -slack:
            violations.append(Violation(_tag(bound="betti_nonnegative", c=c), rate_b, 0.0))
        if not rate_b <= rate_e + slack:
            violations.append(Violation(_tag(bound="betti_below_epsilon", c=c), rate_b, rate_e))
        if not rate_e <= log_p + slack:
            violations.append(Violation(_tag(bound="epsilon_below_log_p", c=c), rate_e, log_p))

    checked += 1
    entries = entry_multiset(spec)
    total_b = spec.total_betti
    c_star = sum(v * w for v, w in entries) / total_b
    peak_problem = MaxEntProblem(
        tuple(v for v, _ in entries), tuple(float(w) for _, w in entries), c_star
    )
    peak = max(max(bet.rates), maxent_rate(peak_problem).rate)
    if not peak >= math.log(total_b) - 1e-9:
        violations.append(
            Violation(_tag(bound="peak_reaches_log_homology", c=c_star), peak, math.log(total_b))
        )
    return LawReport("rate_bounds_and_peak", checked, tuple(violations))


def random_spectrum(rng: random.Random) -> CriticalSpectrum:
    """Small random valid spectrum, deterministic for a seeded generator.

    Two to five atoms with denominators up to 12, multiplicities up to 4;
    betti weights are uniform in [1, multiplicity] at the extremes and in
    [0, multiplicity] inside, matching what validation admits.
    """
    n_atoms = rng.randint(2, 5)
    values = {Fraction(0), Fraction(1)}
    while len(values) < n_atoms:
        den = rng.randint(2, 12)
        values.add(Fraction(rng.randint(1, den - 1), den))
    raw = []
    for v in sorted(values):
        mult = rng.randint(1, 4)
        low = 1 if v == 0 or v == 1 else 0
        raw.append((v, mult, rng.randint(low, mult)))
    return validate_spectrum(raw)


def random_windows(rng: random.Random, count: int) -> List[WindowQuery]:
    """Windows with centres on a 1/60 grid and deltas on a 1/40 grid."""
    out = []
    for _ in range(count):
        c = Fraction(rng.randint(0, 60), 60)
        delta = Fraction(rng.randint(1, 20), 40)
        out.append(WindowQuery(c=c, delta=delta))
    return out
