"""The benchmark's references against brute-force enumeration at tiny n.

A wrong reference would mark correct program output as failed, so every
count reference is compared here with a direct tally of weighted atom
tuples, for both kinds and both boundary conventions.
"""

import itertools
import math
from fractions import Fraction

import pytest

import references as refs

WINDOWS = [
    (Fraction(1, 2), Fraction(1, 16)),
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(1, 3), Fraction(1, 6)),
    (Fraction(0), Fraction(1, 10)),
    (Fraction(9, 10), Fraction(1, 5)),
]
SPECTRA = [refs.TORUS, refs.CIRCLE, refs.seeded_spectrum(0), refs.seeded_spectrum(1)]


def brute_count(atoms, n, betti, c, delta, half_open):
    total = 0
    for combo in itertools.product(atoms, repeat=n):
        weight = math.prod(b if betti else m for _, m, b in combo)
        mean = sum(v for v, _, _ in combo) / n
        upper_ok = mean < c + delta if half_open else mean <= c + delta
        if weight and c - delta <= mean and upper_ok:
            total += weight
    return total


@pytest.mark.parametrize("atoms", SPECTRA, ids=["torus", "circle", "seed0", "seed1"])
@pytest.mark.parametrize("betti", [False, True], ids=["critical", "betti"])
@pytest.mark.parametrize("half_open", [False, True], ids=["closed", "half-open"])
def test_window_count_matches_enumeration(atoms, betti, half_open):
    for n in range(1, 4 if len(atoms) > 3 else 6):
        for c, delta in WINDOWS:
            assert refs.window_count(atoms, n, betti, c, delta, half_open) == brute_count(
                atoms, n, betti, c, delta, half_open
            ), (n, c, delta)


@pytest.mark.parametrize("half_open", [False, True], ids=["closed", "half-open"])
def test_binomial_sums_match_enumeration(half_open):
    for n in range(1, 7):
        for c, delta in WINDOWS:
            lo, hi = refs.window_range(2 * n, c, delta, half_open)
            torus = brute_count(refs.TORUS, n, False, c, delta, half_open)
            assert refs.binomial_window_sum(2 * n, lo, hi) == torus
            lo, hi = refs.window_range(n, c, delta, half_open)
            circle = brute_count(refs.CIRCLE, n, True, c, delta, half_open)
            assert refs.binomial_window_sum(n, lo, hi) == circle


def test_seeded_spectrum_shape():
    for seed in range(50):
        atoms = refs.seeded_spectrum(seed)
        assert atoms == refs.seeded_spectrum(seed)
        values = [v for v, _, _ in atoms]
        assert len(atoms) == 6 and values == sorted(set(values))
        assert values[0] == 0 and values[-1] == 1
        assert 80 <= refs.common_denominator(values) <= 90
        assert all(0 <= b <= m for _, m, b in atoms)
        assert atoms[0][2] >= 1 and atoms[-1][2] >= 1
        assert [b for _, _, b in atoms].count(0) == 1


def test_binary_entropy_against_binomial_growth():
    # log C(N, cN) / N -> H(c); the correction is O(log N / N).
    for c in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        n = 4000
        rate = math.log(math.comb(n, int(c * n))) / n
        assert abs(rate - refs.binary_entropy(float(c))) < 2 * math.log(n) / n
    tiny = 1e-15
    assert math.isclose(refs.binary_entropy(tiny), tiny * (1 - math.log(tiny)), rel_tol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 10.0, 59.0, 61.0, 1000.0])
def test_circle_g_against_quadrature(beta):
    # Periodic trapezoid rule on a grid fine enough to resolve the peak.
    points = 1 << 16
    z = math.fsum(
        math.exp(-beta * 0.5 * (1.0 - math.cos(2.0 * math.pi * k / points)))
        for k in range(points)
    ) / points
    assert math.isclose(refs.circle_g(beta), -math.log(z) / beta, rel_tol=1e-10)
