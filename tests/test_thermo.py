"""Partition-sum route: Gibbs weights, Legendre duality, circle squeeze."""

import math
import random
from fractions import Fraction

import pytest

from morse_entropy import (
    ConvergenceError,
    circle_height,
    epsilon_curve,
    free_energy,
    gibbs,
    laplace_check,
    legendre_epsilon,
    preset,
    random_spectrum,
    validate_spectrum,
)
from morse_entropy import thermo as thermo_module

CIRCLE = preset("circle")
TORUS = preset("torus")


def test_free_energy_at_zero_counts_atoms():
    assert free_energy(CIRCLE, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert free_energy(TORUS, 0.0) == pytest.approx(math.log(4.0), abs=1e-12)


def test_circle_free_energy_closed_form():
    for beta in (-3.0, -0.5, 0.7, 4.0, 25.0):
        assert free_energy(CIRCLE, beta) == pytest.approx(
            math.log1p(math.exp(-beta)), abs=1e-12
        )


def test_gibbs_weights_on_the_circle():
    state = gibbs(CIRCLE, 10.0)
    assert state.beta == 10.0
    assert sum(state.p) == pytest.approx(1.0, abs=1e-12)
    assert state.p[0] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)
    assert state.free_energy == free_energy(CIRCLE, 10.0)
    assert state.mean_value(CIRCLE) == pytest.approx(1.0 / (1.0 + math.exp(10.0)), abs=1e-12)


def test_gibbs_concentrates_on_the_bottom():
    state = gibbs(TORUS, 200.0)
    assert state.p[0] == pytest.approx(1.0, abs=1e-12)
    assert state.mean_value(TORUS) == pytest.approx(0.0, abs=1e-12)


def test_ground_mass_grows_with_beta():
    for spec in (CIRCLE, TORUS, random_spectrum(random.Random(3))):
        masses = [gibbs(spec, beta).p[0] for beta in range(-5, 21)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_free_energy_is_convex_in_beta():
    betas = [(-3.0 + 0.25 * k) for k in range(25)]
    specs = (CIRCLE, TORUS, random_spectrum(random.Random(11)))
    for spec in specs:
        f = [free_energy(spec, b) for b in betas]
        for left, mid, right in zip(f, f[1:], f[2:]):
            assert left + right - 2.0 * mid >= -1e-9


def test_free_energy_slope_is_minus_gibbs_mean():
    h = 1e-5
    for spec in (CIRCLE, TORUS):
        slope = (free_energy(spec, 0.7 + h) - free_energy(spec, 0.7 - h)) / (2.0 * h)
        assert slope == pytest.approx(-gibbs(spec, 0.7).mean_value(spec), abs=1e-6)


def test_legendre_boundary_values():
    assert legendre_epsilon(CIRCLE, 0) == 0.0
    assert legendre_epsilon(CIRCLE, 1) == 0.0
    heavy = validate_spectrum([(0, 2, 1), (1, 3, 1)])
    assert legendre_epsilon(heavy, Fraction(0)) == math.log(2)
    assert legendre_epsilon(heavy, Fraction(1)) == math.log(3)


def test_legendre_rejects_targets_outside_the_hull():
    with pytest.raises(ValueError, match="hull"):
        legendre_epsilon(CIRCLE, Fraction(-1, 10))
    with pytest.raises(ValueError, match="hull"):
        legendre_epsilon(CIRCLE, 1.1)


def test_legendre_matches_binary_entropy_on_the_circle():
    for c in (0.1, 0.3, 0.5, 0.8):
        want = -c * math.log(c) - (1 - c) * math.log(1 - c)
        assert legendre_epsilon(CIRCLE, c) == pytest.approx(want, abs=1e-9)
    for c in (0.25, 0.5):
        want = 2.0 * (-c * math.log(c) - (1 - c) * math.log(1 - c))
        assert legendre_epsilon(TORUS, c) == pytest.approx(want, abs=1e-9)


def test_legendre_agrees_with_the_maxent_route():
    # two independent numerical routes to the same curve
    specs = [CIRCLE, TORUS] + [random_spectrum(random.Random(seed)) for seed in range(5)]
    for spec in specs:
        curve = epsilon_curve(spec, 21)
        for c, rate in zip(curve.grid, curve.rates):
            assert abs(legendre_epsilon(spec, c) - rate) <= 1e-8


def test_legendre_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(thermo_module, "MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError):
        legendre_epsilon(CIRCLE, Fraction(1, 3))


def test_circle_height():
    assert circle_height(0.0) == 0.0
    assert circle_height(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert circle_height(math.pi / 2) == pytest.approx(0.5, abs=1e-15)


def test_laplace_squeeze_values():
    report = laplace_check([10.0, 100.0, 1000.0], 256)
    assert report.passed and report.converged
    assert [row.beta for row in report.rows] == [10.0, 100.0, 1000.0]
    g = [row.g for row in report.rows]
    assert g[0] == pytest.approx(0.169532, abs=5e-6)
    assert g[1] == pytest.approx(0.028724, abs=5e-6)
    assert g[2] == pytest.approx(0.004026, abs=5e-6)
    for row in report.rows:
        assert row.converged
        assert row.points >= 512
        assert row.z == pytest.approx(math.exp(-row.beta * row.g), rel=1e-9)


def test_laplace_bound_tightens_with_beta():
    report = laplace_check([10.0, 100.0, 1000.0, 10000.0], 256)
    assert report.passed
    for row in report.rows:
        assert 0.0 < row.g <= 5.0 * math.log(row.beta) / row.beta


def _log_bessel_i0(x):
    """log I0(x) from the power series sum_k ((x/2)^k / k!)^2, all terms positive.

    Terms peak near k = x/2; past k = 2x each is below 1/16 of the last,
    so 60 more leave a tail far below double precision.
    """
    term, terms = 1.0, [1.0]
    for k in range(1, int(2 * x) + 60):
        term *= (x / (2 * k)) ** 2
        terms.append(term)
    return math.log(math.fsum(terms))


def test_laplace_matches_the_exact_circle_average():
    # the average of exp(-beta (1 - cos t) / 2) is exp(-beta/2) I0(beta/2)
    assert _log_bessel_i0(0.0) == 0.0
    assert math.exp(_log_bessel_i0(1.0)) == pytest.approx(1.2660658777520082, rel=1e-15)
    betas = [0.5, 1.0, 3.0, 10.0, 31.6, 100.0, 316.0, 1000.0]
    report = laplace_check(betas, 256)
    assert report.passed
    for row in report.rows:
        exact = -(-row.beta / 2 + _log_bessel_i0(row.beta / 2)) / row.beta
        assert row.g == pytest.approx(exact, rel=1e-8)


def test_laplace_grid_validation():
    with pytest.raises(ValueError, match="empty"):
        laplace_check([])
    with pytest.raises(ValueError, match="positive"):
        laplace_check([0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        laplace_check([2.0, 1.0])
    with pytest.raises(ValueError, match="quadrature"):
        laplace_check([10.0], 128)


def test_laplace_reports_unsettled_quadrature(monkeypatch):
    monkeypatch.setattr(thermo_module, "_QUADRATURE_MAX_POINTS", 256)
    report = laplace_check([10.0], 256)
    assert not report.converged
    assert not report.passed
    assert any("settle" in v for v in report.violations)
    assert report.rows[0].points == 256
