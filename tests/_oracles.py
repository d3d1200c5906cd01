"""Independent brute-force references for the test suite.

Most of these touch no package counting or root-finding code:
distributions come from enumerating weighted atom tuples, constrained
entropy maxima from scanning the feasible slice of the probability
simplex.  Slow on purpose, trustworthy on purpose.  One instead keeps a
slower package route as the reference for a faster one:
:func:`full_sweep_check_fekete` reads every count from the package's
rolling convolution sweep ``counter._sweep``, which its Fekete check
does not use.
"""

import itertools
import math
from fractions import Fraction

from morse_entropy import (
    Kind,
    LawReport,
    Violation,
    WindowQuery,
    entry_multiset,
    finite_rate,
    window_sup_rate,
)
from morse_entropy.counter import _sweep, window_range
from morse_entropy.laws import _MAX_PAIRS, _PAIR_OFFSETS


def tuple_mean_counts(spec, n, kind):
    """Map mean -> exact count by enumerating all weighted atom tuples."""
    items = []
    for atom in spec.atoms:
        weight = atom.multiplicity if kind is Kind.CRITICAL else atom.betti_weight
        items.append((atom.value, weight))
    acc = {}
    for combo in itertools.product(items, repeat=n):
        weight = 1
        for _, w in combo:
            weight *= w
        if weight == 0:
            continue
        mean = sum((v for v, _ in combo), Fraction(0)) / n
        acc[mean] = acc.get(mean, 0) + weight
    return acc


def brute_window_count(spec, n, kind, c, delta, half_open):
    """Window count by direct rational comparison against the tuple tally."""
    c, delta = Fraction(c), Fraction(delta)
    total = 0
    for mean, count in tuple_mean_counts(spec, n, kind).items():
        if mean < c - delta:
            continue
        if half_open and mean >= c + delta:
            continue
        if not half_open and mean > c + delta:
            continue
        total += count
    return total


def edge_binary_entropy(c):
    """Binary entropy from the nearer edge: log1p keeps it relatively accurate near c = 1."""
    t = float(min(c, 1 - c))
    return -t * math.log(t) - (1.0 - t) * math.log1p(-t)


def _objective(p, weights):
    total = 0.0
    for pi, wi in zip(p, weights):
        if pi > 0.0:
            total += -pi * math.log(pi) + pi * math.log(wi)
    return total


def scan_maxent_rate(values, weights, c, steps=4000, refinements=3):
    """Best H(p) + sum p_i log w_i with the mean pinned to c, by line scan.

    Handles two atoms (the constraint fixes p) and three atoms (the
    constraint leaves a segment, scanned and refined around the best
    point).  Accuracy is far better than the 1e-6 the tests ask for.
    """
    v = [float(x) for x in values]
    w = [float(x) for x in weights]
    ct = float(c)
    if len(v) == 2:
        p1 = (ct - v[0]) / (v[1] - v[0])
        return _objective((1.0 - p1, p1), w)
    if len(v) != 3:
        raise ValueError("scan oracle supports 2 or 3 atoms")

    lo_t, hi_t = 0.0, 1.0
    best_val = -math.inf
    best_t = 0.0
    for _ in range(refinements + 1):
        for k in range(steps + 1):
            t = lo_t + (hi_t - lo_t) * k / steps
            p1 = t
            p2 = (ct - v[0] - p1 * (v[1] - v[0])) / (v[2] - v[0])
            p0 = 1.0 - p1 - p2
            if p2 < -1e-12 or p0 < -1e-12:
                continue
            val = _objective((max(p0, 0.0), p1, max(p2, 0.0)), w)
            if val > best_val:
                best_val, best_t = val, t
        span = (hi_t - lo_t) / steps
        lo_t, hi_t = max(0.0, best_t - 2 * span), min(1.0, best_t + 2 * span)
    return best_val


def fekete_pairs(delta, n_max):
    """The (n1, n2) pairs the ``superadditive_pairs`` sub-check samples."""
    n_floor = math.floor(Fraction(2) / Fraction(delta)) + 1
    ns = sorted({n_floor + off for off in _PAIR_OFFSETS if n_floor + off <= n_max - n_floor})
    return [(a, b) for a in ns for b in ns if a <= b and a + b <= n_max][:_MAX_PAIRS]


def full_sweep_check_fekete(spec, centres, delta, n_max, cap=None):
    """``check_fekete`` as one sweep over every n = 1 .. n_max.

    Every sub-check reads the exact count, including ``unit_floor``,
    which the package answers from the support instead.
    """
    centres = tuple(map(Fraction, centres))
    delta = Fraction(delta)
    n_floor = math.floor(Fraction(2) / delta) + 1
    queries = [WindowQuery(centre, delta, Kind.BETTI.boundary) for centre in centres]

    def row(n, counts):
        spans = (window_range(query, n * spec.denom) for query in queries)
        return [sum(counts[span.start : span.stop]) for span in spans]

    columns = zip(*(row(n, counts) for n, counts in enumerate(_sweep(spec, Kind.BETTI, n_max, cap), 1)))
    pairs = fekete_pairs(delta, n_max)
    entries = entry_multiset(spec)
    tol = 3.0 * math.log(n_max * spec.denom * spec.total_betti) / n_max

    def tag(**kwargs):
        return tuple((k, str(v)) for k, v in kwargs.items())

    violations = []
    checked = 0
    for centre, column in zip(centres, columns):
        counts = (None, *column)
        for n in range(n_floor, n_max + 1):
            checked += 1
            if counts[n] < 1:
                violations.append(
                    Violation(tag(sub_check="unit_floor", n=n, c=centre, delta=delta), counts[n], 1)
                )
        for a, b in pairs:
            checked += 1
            whole, left, right = counts[a + b], counts[a], counts[b]
            if whole < left * right:
                violations.append(
                    Violation(
                        tag(sub_check="superadditive_pairs", n1=a, n2=b, c=centre, delta=delta),
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
                    tag(sub_check="rate_vs_limit", n=n_max, c=centre, delta=delta, tol=tol),
                    observed,
                    sup,
                )
            )
    return LawReport("fekete_limit", checked, tuple(violations))
