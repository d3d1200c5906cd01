"""Acceptance gate: ten checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen; without -s they show up in captured output on failure.
"""

import math
import random
import time
from fractions import Fraction

from morse_entropy import (
    Boundary,
    Kind,
    WindowQuery,
    betti_curve,
    check_bounds_and_max,
    check_domination,
    check_fekete,
    check_superadditivity,
    count_window,
    epsilon_curve,
    finite_rate,
    laplace_check,
    legendre_epsilon,
    mean_distribution,
    preset,
    random_windows,
    window_sup_rate,
)
from _oracles import (
    concavity_check,
    full_sweep_check_fekete,
    random_spectrum,
    swept_check_domination,
    swept_check_superadditivity,
)

CIRCLE = preset("circle")
TORUS = preset("torus")
BIG_CAP = 1 << 20


def _finish(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} {detail}")
    assert ok, f"criterion {num:02d} {status} {detail}"


def _binary_entropy(c: float) -> float:
    if c in (0.0, 1.0):
        return 0.0
    return -c * math.log(c) - (1.0 - c) * math.log(1.0 - c)


def _seeded_spectra(seed: int, count: int):
    rng = random.Random(seed)
    return [random_spectrum(rng) for _ in range(count)]


def test_criterion_01_circle_closed_form():
    started = time.perf_counter()
    eps = epsilon_curve(CIRCLE, 101)
    bet = betti_curve(CIRCLE, 101)
    elapsed = time.perf_counter() - started
    max_dev = max(
        abs(r - _binary_entropy(float(c))) for c, r in zip(eps.grid, eps.rates)
    )
    curve_gap = max(abs(a - b) for a, b in zip(eps.rates, bet.rates))
    ok = max_dev <= 1e-9 and curve_gap <= 1e-12 and elapsed < 1.0
    _finish(
        1,
        ok,
        f"max|eps-H|={max_dev:.3e} (<=1e-9) max|eps-b|={curve_gap:.3e} (<=1e-12) "
        f"elapsed={elapsed:.3f}s (<1s)",
    )


def test_criterion_02_finite_n_convergence():
    started = time.perf_counter()
    sup = window_sup_rate(
        (Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(9, 20), Fraction(11, 20)
    )
    query = WindowQuery(Fraction(1, 2), Fraction(1, 20))
    gaps = []
    for n in (64, 128, 256, 512):
        dist = mean_distribution(CIRCLE, n, Kind.CRITICAL)
        gaps.append(abs(finite_rate(count_window(dist, query), n) - sup))
    elapsed = time.perf_counter() - started
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] <= 0.05 and elapsed < 30.0
    gap_text = ",".join(f"{g:.6f}" for g in gaps)
    _finish(
        2,
        ok,
        f"gaps(n=64,128,256,512)=[{gap_text}] decreasing={monotone} "
        f"final<=0.05 elapsed={elapsed:.2f}s (<30s)",
    )


def test_criterion_03_domination():
    rng = random.Random(1003)
    specs = [CIRCLE, TORUS] + _seeded_spectra(1003, 50)
    checked = 0
    violations = 0
    for spec in specs:
        windows = random_windows(rng, 25)
        report = check_domination(spec, 20, windows)
        # the check reads the law off the atoms; the oracle counts every window
        assert report == swept_check_domination(spec, 20, windows, cap=BIG_CAP)
        checked += report.instances_checked
        violations += len(report.violations)
        ok = violations == 0
    _finish(3, ok, f"spectra={len(specs)} instances={checked} violations={violations}")


def test_criterion_04_superadditivity():
    rng = random.Random(1004)
    checked = 0
    violations = 0
    for _ in range(200):
        spec = random_spectrum(rng)
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        c1 = Fraction(rng.randint(0, 60), 60)
        c2 = Fraction(rng.randint(0, 60), 60)
        delta = Fraction(rng.randint(1, 20), 40)
        report = check_superadditivity(spec, n1, n2, c1, c2, delta)
        # the atoms prove the law; the oracle still counts every draw
        assert report == swept_check_superadditivity(spec, n1, n2, c1, c2, delta, cap=BIG_CAP)
        checked += report.instances_checked
        violations += len(report.violations)
        ok = violations == 0
    _finish(4, ok, f"instances={checked} violations={violations}")


def test_criterion_05_fekete_suite():
    pairs = (
        (Fraction(1, 2), Fraction(1, 10)),
        (Fraction(1, 4), Fraction(1, 10)),
        (Fraction(37, 100), Fraction(1, 20)),
        (Fraction(2, 3), Fraction(1, 12)),
        (Fraction(3, 5), Fraction(1, 16)),
    )
    violations = 0
    checked = 0
    for spec in (CIRCLE, TORUS):
        for c, delta in pairs:
            report = check_fekete(spec, c, delta, 256)
            # the pairs are read from the atoms; the oracle counts them
            assert report == full_sweep_check_fekete(spec, (c,), delta, 256)
            checked += report.instances_checked
            violations += len(report.violations)
    ok = violations == 0
    _finish(5, ok, f"pairs={len(pairs)}x2 instances={checked} violations={violations}")


def test_criterion_06_bounds_and_peak():
    specs = [(CIRCLE, 101), (TORUS, 101)] + [
        (spec, 21) for spec in _seeded_spectra(1003, 50)
    ]
    violations = 0
    checked = 0
    for spec, grid_points in specs:
        report = check_bounds_and_max(spec, grid_points)
        checked += report.instances_checked
        violations += len(report.violations)
    ok = violations == 0
    _finish(6, ok, f"spectra={len(specs)} instances={checked} violations={violations}")


def test_criterion_07_concavity():
    curves = []
    for spec in (CIRCLE, TORUS):
        curves.append(epsilon_curve(spec, 101))
        curves.append(betti_curve(spec, 101))
    for spec in _seeded_spectra(1003, 50):
        curves.append(epsilon_curve(spec, 21))
        curves.append(betti_curve(spec, 21))
    bad = [i for curve in curves for i in concavity_check(curve, 1e-9)]
    ok = not bad
    _finish(7, ok, f"curves={len(curves)} midpoint_violations={len(bad)}")


def test_criterion_08_legendre_duality():
    specs = [CIRCLE, TORUS] + _seeded_spectra(1008, 20)
    worst = 0.0
    points = 0
    for spec in specs:
        curve = epsilon_curve(spec, 21)
        for c, rate in zip(curve.grid, curve.rates):
            worst = max(worst, abs(legendre_epsilon(spec, c) - rate))
            points += 1
    ok = worst <= 1e-8
    _finish(8, ok, f"spectra={len(specs)} points={points} max|dual-maxent|={worst:.3e} (<=1e-8)")


def test_criterion_09_laplace_squeeze():
    report = laplace_check([10.0, 100.0, 1000.0, 10000.0])
    ok = report.passed
    g_text = ",".join(f"{row.g:.6f}" for row in report.rows)
    _finish(
        9,
        ok,
        f"g(10,1e2,1e3,1e4)=[{g_text}] violations={len(report.violations)}",
    )


def test_criterion_10_unit_floor():
    failures = 0
    checked = 0
    for spec in (CIRCLE, TORUS):
        for n in range(1, 33):
            dist = mean_distribution(spec, n, Kind.BETTI)
            for k in range(n + 1):
                query = WindowQuery(
                    Fraction(k, n), Fraction(1, 2 * n), Boundary.CLOSED_OPEN
                )
                checked += 1
                if count_window(dist, query) < 1:
                    failures += 1
    ok = failures == 0
    _finish(10, ok, f"windows={checked} below_unit={failures}")
