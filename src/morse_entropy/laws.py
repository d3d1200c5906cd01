"""Structural law checks over exact window counts.

Each check runs a family of exact integer comparisons and returns a
:class:`LawReport` listing every instance that failed, rather than
raising on the first one.  The laws themselves: homology counts never
exceed critical-point counts in a window; window counts multiply into
blended windows when tuples concatenate; per-site log counts at a fixed
window converge to the concave rate curve; and the curves respect their
analytic bounds with the homology curve peaking at the total homology
dimension.  The first three rest on one premise about the atoms, which
every :class:`~.spectrum.CriticalSpectrum` meets by construction:
0 <= betti_weight <= multiplicity, and atoms at 0 and 1 with
betti_weight >= 1.  So domination, superadditivity and Fekete's unit
floor are certificates read off the atoms; the one exact count is
Fekete's, at its largest n.  The cap bounds that count and nothing else.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .counter import Kind, WindowQuery, finite_rate, window_counts
from .rate import betti_curve, epsilon_curve, maxent_rate, MaxEntProblem, window_sup_rate
from .spectrum import CriticalSpectrum, entry_multiset


class Violation(NamedTuple):
    """One failed instance: the inputs and the two compared quantities."""

    inputs: Tuple[Tuple[str, str], ...]
    lhs: object
    rhs: object


class LawReport(NamedTuple):
    law: str
    instances_checked: int
    violations: Tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _tag(**kwargs) -> Tuple[Tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in kwargs.items())


def check_domination(
    spec: CriticalSpectrum,
    n_max: int,
    windows: Sequence[WindowQuery],
) -> LawReport:
    """Homology window counts never exceed critical-point window counts.

    The homology side is counted half-open, the critical side closed, so
    the comparison is exactly the one the downstream rate inequality
    rests on; the ``boundary`` field of the supplied windows is ignored.
    ``n_max`` must be at least 1 and ``windows`` nonempty.  The law is a
    certificate, one instance per (n, window): 0 <= betti_weight <=
    multiplicity makes the homology site histogram at most the critical
    one in every coefficient, n-th powers of nonnegative polynomials keep
    that order, and the half-open window lies inside the closed one.
    Nothing is counted, so no cap applies.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not windows:
        raise ValueError("need at least one window")
    return LawReport("betti_dominated_by_critical", n_max * len(windows), ())


def check_superadditivity(
    spec: CriticalSpectrum,
    n1: Union[int, Sequence[int]],
    n2: Union[int, Sequence[int]],
    c1: Union[Fraction, Sequence[Fraction]],
    c2: Union[Fraction, Sequence[Fraction]],
    delta: Union[Fraction, Sequence[Fraction]],
) -> LawReport:
    """Window counts multiply under concatenation of tuples.

    A tuple pair with means in the (c1, delta) and (c2, delta) windows
    concatenates to a tuple whose mean sits in the window of the same
    delta around the weighted blend of c1 and c2, so the count there is
    at least the product.  The law covers the homology count (half-open
    windows) and the critical count (closed windows).

    The five draw arguments are one draw, or tuples or lists of equal
    length holding one draw per index; the report has one instance per
    draw and kind.  Each draw's (c1, delta) and (c2, delta) windows must
    be valid :class:`~.counter.WindowQuery` windows.  The law is a
    certificate: with no weight below 0, concatenation maps pairs of part
    tuples injectively into the whole window and multiplies their
    weights.  Nothing is counted, so no cap applies.
    """
    columns = [
        tuple(x) if isinstance(x, (tuple, list)) else (x,) for x in (n1, n2, c1, c2, delta)
    ]
    draws = [
        (a, b, WindowQuery(x, d), WindowQuery(y, d))
        for a, b, x, y, d in zip(*columns, strict=True)
    ]
    if not draws:
        raise ValueError("need at least one draw")
    if any(a < 1 or b < 1 for a, b, *_ in draws):
        raise ValueError("n1 and n2 must be >= 1")
    return LawReport("window_count_superadditivity", 2 * len(draws), ())


# The sparse spread of (n1, n2) pairs that check_fekete's
# superadditive_pairs sub-check reports, one instance each.
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
    ``delta``; the report is the single-centre reports concatenated in
    order.  Three sub-checks per centre, tagged in the violation inputs:
    ``unit_floor`` (counts are >= 1 once n exceeds 2/delta),
    ``superadditive_pairs`` (log counts at a fixed window superadd), and
    ``rate_vs_limit`` (the per-site log count at n_max is within
    3*log(n_max * D * B) / n_max of the concave rate supremum over the
    window).  Requires at least one centre, valid
    :class:`~.counter.WindowQuery` windows, n_max >= ceil(2/delta) + 4 so
    the tail past the unit floor is non-trivial, and n_max within the cap,
    in that order; the cap is checked by :func:`window_counts`, before it
    counts.

    The first two sub-checks are certificates.  ``superadditive_pairs``
    holds by the argument of :func:`check_superadditivity`.
    ``unit_floor`` holds since the atoms at 0 and 1 carry homology, so
    tuples of 0s and 1s reach every mean k/n.  A half-open window that
    meets [0, 1] holds 0 if it reaches below 0, holds 1 if it reaches
    past 1, and otherwise lies in [0, 1] with width 2*delta > 1/n.  Only
    ``rate_vs_limit`` is counted, every centre at n_max by one
    :func:`window_counts` call.
    """
    centres = tuple(c) if isinstance(c, (tuple, list)) else (c,)
    if not centres:
        raise ValueError("need at least one window centre")
    queries = [WindowQuery(centre, delta, Kind.BETTI.boundary) for centre in centres]
    delta = queries[0].delta
    threshold = 2 / delta
    if n_max < math.ceil(threshold) + 4:
        raise ValueError(
            f"n_max {n_max} too small: need at least ceil(2/delta) + 4 = {math.ceil(threshold) + 4}"
        )
    n_floor = math.floor(threshold) + 1  # smallest n with n > 2/delta

    ns = {n_floor + off for off in _PAIR_OFFSETS if n_floor + off <= n_max - n_floor}
    n_pairs = min(_MAX_PAIRS, sum(a <= b and a + b <= n_max for a in ns for b in ns))
    counts = window_counts(spec, n_max, Kind.BETTI, queries, cap=cap)
    values, weights = zip(*entry_multiset(spec))
    tol = 3.0 * math.log(n_max * spec.denom * spec.total_betti) / n_max

    violations: List[Violation] = []
    for query, count in zip(queries, counts):
        sup = window_sup_rate(values, weights, query.c - delta, query.c + delta)
        observed = finite_rate(count, n_max)
        if not abs(observed - sup) <= tol:
            violations.append(
                Violation(
                    _tag(sub_check="rate_vs_limit", n=n_max, c=query.c, delta=delta, tol=tol),
                    observed,
                    sup,
                )
            )
    checked = len(centres) * (n_max - n_floor + 1 + n_pairs + 1)
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
    for c, rate_e, rate_b in zip(eps.grid, eps.rates, bet.rates):
        if not rate_b >= -slack:
            violations.append(Violation(_tag(bound="betti_nonnegative", c=c), rate_b, 0.0))
        if not rate_b <= rate_e + slack:
            violations.append(Violation(_tag(bound="betti_below_epsilon", c=c), rate_b, rate_e))
        if not rate_e <= log_p + slack:
            violations.append(Violation(_tag(bound="epsilon_below_log_p", c=c), rate_e, log_p))

    entries = entry_multiset(spec)
    total_b = spec.total_betti
    c_star = sum(v * w for v, w in entries) / total_b
    peak = max(max(bet.rates), maxent_rate(MaxEntProblem(*zip(*entries), c_star)).rate)
    if not peak >= math.log(total_b) - 1e-9:
        violations.append(
            Violation(_tag(bound="peak_reaches_log_homology", c=c_star), peak, math.log(total_b))
        )
    return LawReport("rate_bounds_and_peak", len(eps.grid) + 1, tuple(violations))


def random_windows(rng: random.Random, count: int) -> List[WindowQuery]:
    """Windows with centres on a 1/60 grid and deltas on a 1/40 grid."""
    out = []
    for _ in range(count):
        c = Fraction(rng.randint(0, 60), 60)
        delta = Fraction(rng.randint(1, 20), 40)
        out.append(WindowQuery(c=c, delta=delta))
    return out
