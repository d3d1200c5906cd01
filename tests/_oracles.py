"""Independent brute-force references and test-only helpers for the test suite.

Most of these touch no package counting or root-finding code:
distributions come from enumerating weighted atom tuples, constrained
entropy maxima from scanning the feasible slice of the probability
simplex.  Slow on purpose, trustworthy on purpose.  The law oracles
instead count every instance with the rolling convolution sweep
:func:`_sweep`, whatever the atoms: :func:`full_sweep_check_fekete`,
:func:`swept_check_domination` and :func:`swept_check_superadditivity`
keep counting the spectra that break the certificates' premise, which
no :class:`CriticalSpectrum` can hold and :func:`unvalidated_spectrum`
builds past its checks.  The rest are helpers only the tests call:
seeded spectra, report merging and a concavity scan.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import add, mul

from morse_entropy import (
    CriticalSpectrum,
    Kind,
    LawReport,
    SpectrumAtom,
    Violation,
    WindowQuery,
    finite_rate,
    validate_spectrum,
    window_sup_rate,
)
from morse_entropy.counter import _check_cap, _site_histogram, window_range
from morse_entropy.laws import _MAX_PAIRS, _PAIR_OFFSETS


def _convolve(counts, site):
    """The coefficients of the product of two polynomials, given by theirs."""
    out = [0] * (len(counts) + len(site) - 1)
    first = True
    for offset, w in enumerate(site):
        if w:
            end = offset + len(counts)
            scaled = counts if w == 1 else map(mul, counts, itertools.repeat(w))
            # the first atom lands on zeros, so it is stored, not added
            out[offset:end] = scaled if first else map(add, out[offset:end], scaled)
            first = False
    return tuple(out)


def _sweep(spec, kind, n_max, cap):
    """Counts on the grid s / (n * denom) for n = 1 .. n_max, one convolution a step.

    Only the current counts are held.  The cap is checked for n_max first.
    """
    _check_cap(spec, n_max, cap)
    site = _site_histogram(spec, kind)
    counts = (1,)
    for _ in range(n_max):
        counts = _convolve(counts, site)
        yield counts


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

    Every sub-check reads the exact count, including ``unit_floor`` and
    ``superadditive_pairs``, which the package reads off the atoms instead.
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
    entries = [(a.value, a.betti_weight) for a in spec.atoms if a.betti_weight > 0]
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


def swept_check_domination(spec, n_max, windows, cap=None):
    """``check_domination`` with every window counted at every n, whatever the atoms."""
    violations = []
    queries = [
        (query, WindowQuery(query.c, query.delta, Kind.BETTI.boundary), WindowQuery(query.c, query.delta))
        for query in windows
    ]
    sweeps = zip(_sweep(spec, Kind.CRITICAL, n_max, cap), _sweep(spec, Kind.BETTI, n_max, cap))
    for n, (counts_c, counts_b) in enumerate(sweeps, 1):
        for query, betti_query, critical_query in queries:
            betti_span = window_range(betti_query, n * spec.denom)
            critical_span = window_range(critical_query, n * spec.denom)
            betti = sum(counts_b[betti_span.start : betti_span.stop])
            critical = sum(counts_c[critical_span.start : critical_span.stop])
            if betti > critical:
                inputs = (("n", str(n)), ("c", str(query.c)), ("delta", str(query.delta)))
                violations.append(Violation(inputs, betti, critical))
    return LawReport("betti_dominated_by_critical", n_max * len(windows), tuple(violations))


def swept_check_superadditivity(spec, n1, n2, c1, c2, delta, cap=None):
    """``check_superadditivity`` with every draw counted, whatever the atoms.

    Takes one draw or equal-length columns of draws, as the package does;
    each count is a plain slice sum of the swept counts at its n.
    """
    columns = [x if isinstance(x, (tuple, list)) else [x] for x in (n1, n2, c1, c2, delta)]
    draws = [
        (a, b, Fraction(x), Fraction(y), Fraction(d)) for a, b, x, y, d in zip(*columns, strict=True)
    ]
    kinds = (Kind.BETTI, Kind.CRITICAL)
    n_max = max(a + b for a, b, *_ in draws)
    swept = {kind: (None, *_sweep(spec, kind, n_max, cap)) for kind in kinds}

    def count(kind, n, c, d):
        span = window_range(WindowQuery(c, d, kind.boundary), n * spec.denom)
        return sum(swept[kind][n][span.start : span.stop])

    violations = []
    for a, b, x, y, d in draws:
        for kind in kinds:
            whole = count(kind, a + b, (a * x + b * y) / (a + b), d)
            product = count(kind, a, x, d) * count(kind, b, y, d)
            if whole < product:
                inputs = (("kind", kind.value), ("n1", str(a)), ("n2", str(b)))
                inputs += (("c1", str(x)), ("c2", str(y)), ("delta", str(d)))
                violations.append(Violation(inputs, whole, product))
    return LawReport("window_count_superadditivity", len(draws) * len(kinds), tuple(violations))


def merge_reports(*reports):
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


def unvalidated_spectrum(*entries):
    """A spectrum of ``(value, multiplicity, betti_weight)`` entries that nothing checks.

    Atoms and spectrum are built by ``tuple.__new__``, past the records'
    ``__new__``, with ``denom`` the lcm of the value denominators: the
    negative controls of the law oracles, which break the premise that
    every valid spectrum meets.
    """
    atoms = tuple(tuple.__new__(SpectrumAtom, (Fraction(v), m, b)) for v, m, b in entries)
    denom = math.lcm(*(a.value.denominator for a in atoms))
    return tuple.__new__(CriticalSpectrum, (atoms, denom))


def random_spectrum(rng: random.Random):
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


def concavity_check(curve, tol):
    """Indices where the midpoint inequality fails by more than tol.

    Requires a uniform grid.  -inf never certifies a violation on the
    right-hand side; a -inf value strictly between finite neighbours does.
    """
    steps = {curve.grid[i + 1] - curve.grid[i] for i in range(len(curve.grid) - 1)}
    if len(steps) > 1:
        raise ValueError("concavity check needs a uniform grid")
    bad = []
    for i in range(1, len(curve.rates) - 1):
        left, mid, right = curve.rates[i - 1], curve.rates[i], curve.rates[i + 1]
        if math.isnan(left) or math.isnan(mid) or math.isnan(right):
            bad.append(i)
            continue
        if not mid >= 0.5 * (left + right) - tol:
            bad.append(i)
    return bad
