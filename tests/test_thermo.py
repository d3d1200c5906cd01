"""Partition-sum route: Gibbs weights, Legendre duality, circle squeeze."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morse_entropy import (
    ConvergenceError,
    CriticalSpectrum,
    MaxEntProblem,
    SpectrumError,
    circle_height,
    epsilon_curve,
    gibbs,
    laplace_check,
    legendre_epsilon,
    maxent_rate,
    preset,
    validate_spectrum,
)
from morse_entropy import thermo as thermo_module
from _oracles import edge_binary_entropy, random_spectrum

CIRCLE = preset("circle")
TORUS = preset("torus")


def test_free_energy_at_zero_counts_atoms():
    assert gibbs(CIRCLE, 0.0).free_energy == pytest.approx(math.log(2.0), abs=1e-12)
    assert gibbs(TORUS, 0.0).free_energy == pytest.approx(math.log(4.0), abs=1e-12)


def test_circle_free_energy_closed_form():
    for beta in (-3.0, -0.5, 0.7, 4.0, 25.0):
        assert gibbs(CIRCLE, beta).free_energy == pytest.approx(
            math.log1p(math.exp(-beta)), abs=1e-12
        )


def test_gibbs_weights_on_the_circle():
    state = gibbs(CIRCLE, 10.0)
    assert sum(state.p) == pytest.approx(1.0, abs=1e-12)
    assert state.p[0] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)
    assert state.free_energy == pytest.approx(math.log1p(math.exp(-10.0)), abs=1e-12)
    assert state.mean == pytest.approx(1.0 / (1.0 + math.exp(10.0)), abs=1e-12)


def test_gibbs_mean_is_the_weighted_sum_in_atom_order():
    # bit for bit the sum over the atoms, in order, that the CLI prints
    for spec in (CIRCLE, TORUS, random_spectrum(random.Random(3)), random_spectrum(random.Random(8))):
        for beta in (-40.0, -1.5, 0.0, 1 / 3, 2.5, 60.0):
            state = gibbs(spec, beta)
            assert state.mean == sum(pi * float(a.value) for pi, a in zip(state.p, spec.atoms))


def test_gibbs_concentrates_on_the_bottom():
    state = gibbs(TORUS, 200.0)
    assert state.p[0] == pytest.approx(1.0, abs=1e-12)
    assert state.mean == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_free_energy_and_gibbs_reject_a_nonfinite_beta(beta):
    with pytest.raises(ValueError, match=f"beta must be finite, got {beta}"):
        gibbs(TORUS, beta)


def test_ground_mass_grows_with_beta():
    for spec in (CIRCLE, TORUS, random_spectrum(random.Random(3))):
        masses = [gibbs(spec, beta).p[0] for beta in range(-5, 21)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_free_energy_is_convex_in_beta():
    betas = [(-3.0 + 0.25 * k) for k in range(25)]
    specs = (CIRCLE, TORUS, random_spectrum(random.Random(11)))
    for spec in specs:
        f = [gibbs(spec, b).free_energy for b in betas]
        for left, mid, right in zip(f, f[1:], f[2:]):
            assert left + right - 2.0 * mid >= -1e-9


def test_free_energy_slope_is_minus_gibbs_mean():
    h = 1e-5
    for spec in (CIRCLE, TORUS):
        slope = (gibbs(spec, 0.7 + h).free_energy - gibbs(spec, 0.7 - h).free_energy) / (2.0 * h)
        assert slope == pytest.approx(-gibbs(spec, 0.7).mean, abs=1e-6)


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


def maxent_epsilon(spec, c):
    weights = tuple(float(m) for m in spec.multiplicities())
    return maxent_rate(MaxEntProblem(spec.values(), weights, c)).rate


BOTTOM_EDGE = [Fraction(1, 10**k) for k in range(1, 16)]
EDGE_TARGETS = BOTTOM_EDGE + [1 - c for c in BOTTOM_EDGE]
THREE_ONE = validate_spectrum([(0, 3, 1), (1, 1, 1)])


def _three_one(c):
    # weights (3, 1) on (0, 1): H(c) + (1 - c) log 3, tiny only near c = 1
    return edge_binary_entropy(c) + float(1 - c) * math.log(3.0)


@pytest.mark.parametrize(
    "spec, closed_form",
    [
        (CIRCLE, edge_binary_entropy),
        (TORUS, lambda c: 2.0 * edge_binary_entropy(c)),
        (THREE_ONE, _three_one),
    ],
    ids=["circle", "torus", "weights_3_1"],
)
def test_both_routes_match_the_closed_form_at_both_edges(spec, closed_form):
    # the rate at c = 1e-15 is 3.5e-14 on the circle: only a relative
    # stop, measured from the nearer edge, resolves it
    for c in EDGE_TARGETS:
        want = closed_form(c)
        assert legendre_epsilon(spec, c) == pytest.approx(want, rel=1e-15, abs=0.0), c
        assert maxent_epsilon(spec, c) == pytest.approx(want, rel=1e-9, abs=0.0), c


@pytest.mark.parametrize("k", [30, 100, 200, 300, 310])
def test_legendre_is_relatively_accurate_far_inside_both_edges(k):
    # a search bracketed from beta = +-1 stopped on a doubled end here,
    # 10-83% off; at k = 310 the distance from the edge is subnormal
    for spec, closed_form in ((CIRCLE, edge_binary_entropy), (THREE_ONE, _three_one)):
        for c in (Fraction(1, 10**k), 1 - Fraction(1, 10**k)):
            assert legendre_epsilon(spec, c) == pytest.approx(closed_form(c), rel=1e-15, abs=0.0)
    c = Fraction(1, 10**k)
    assert legendre_epsilon(TORUS, c) == pytest.approx(2.0 * edge_binary_entropy(c), rel=1e-15)


def test_legendre_reads_the_torus_under_any_common_denom():
    # legendre_epsilon places the atoms on spec.denom: a denom of 3 would
    # misplace the one at 1/2, so it does not build, and a multiple of 2
    # places them all
    for build in (lambda: CriticalSpectrum(TORUS.atoms, 3), lambda: TORUS._replace(denom=3)):
        with pytest.raises(SpectrumError, match="denom must be a positive multiple of 2, got 3"):
            build()
    wide = CriticalSpectrum(TORUS.atoms, 6)
    for c in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), 0.25):
        assert legendre_epsilon(wide, c) == legendre_epsilon(TORUS, c)


def test_legendre_at_a_distance_that_rounds_to_zero_reads_the_edge():
    # 10**-400 from an edge is 0.0 as a float: no seed, and the rate is the
    # edge's log multiplicity
    c = Fraction(1, 10**400)
    assert legendre_epsilon(THREE_ONE, c) == math.log(3.0)
    assert legendre_epsilon(THREE_ONE, 1 - c) == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.sampled_from(EDGE_TARGETS))
def test_routes_agree_relatively_at_edge_targets_of_random_spectra(seed, c):
    spec = random_spectrum(random.Random(seed))
    assert legendre_epsilon(spec, c) == pytest.approx(maxent_epsilon(spec, c), rel=1e-9, abs=0.0)


def _counting(monkeypatch, name):
    """Calls of the thermo function ``name`` from here on, one None each."""
    function = getattr(thermo_module, name)
    calls = []

    def counting(*args):
        calls.append(None)
        return function(*args)

    monkeypatch.setattr(thermo_module, name, counting)
    return calls


def test_legendre_takes_few_gibbs_mean_evaluations_along_a_grid(monkeypatch):
    # guards the work per solve, not its time: a bisection to an absolute
    # 1e-12 on the mean took 39.6 on the torus, and an Illinois search
    # bracketed from beta = +-1 took 11.7 on the circle and 12.5 on the
    # torus; the two-atom seed is exact on the circle (2.2 here, 8.4 on
    # the torus)
    for spec, most in ((CIRCLE, 3), (TORUS, 9)):
        calls = _counting(monkeypatch, "_gibbs_mean")
        for j in range(1, 1000):
            legendre_epsilon(spec, Fraction(j, 1000))
        monkeypatch.undo()
        assert len(calls) / 999 <= most


def test_legendre_reports_non_convergence(monkeypatch):
    # on the torus the two-atom seed is not the root, so the search runs
    monkeypatch.setattr(thermo_module, "MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError):
        legendre_epsilon(TORUS, Fraction(1, 3))


def test_legendre_reports_a_root_past_the_float_range():
    # atoms 1e-310 apart and a target 1e-320 from the edge: the root in
    # beta is about 2.3e311, so the seed overflows and the search must give
    # up, not step on inf
    spec = validate_spectrum([(0, 1, 1), (Fraction(1, 10**310), 1, 1), (1, 1, 1)])
    with pytest.raises(ConvergenceError, match="float range"):
        legendre_epsilon(spec, Fraction(1, 10**320))
    # halfway between the two: the seed's subnormal rounding puts it near
    # -1e297, where a step of 1 would not move it
    assert legendre_epsilon(spec, Fraction(1, 2 * 10**310)) == pytest.approx(math.log(2.0))
    # the root is near 5e101, about 340 doublings from the seed 0
    far = validate_spectrum(
        [(0, 5, 1), (Fraction(3, 10**300), 5, 1), (Fraction(9, 10**100), 3, 1), (1, 3, 1)]
    )
    assert legendre_epsilon(far, Fraction(6, 10**300)) == pytest.approx(math.log(10.0), rel=1e-15)


def test_circle_height():
    assert circle_height(0.0) == 0.0
    assert circle_height(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert circle_height(math.pi / 2) == pytest.approx(0.5, abs=1e-15)


def test_laplace_squeeze_values():
    report = laplace_check([10.0, 100.0, 1000.0])
    assert report.passed
    assert [row.beta for row in report.rows] == [10.0, 100.0, 1000.0]
    g = [row.g for row in report.rows]
    assert g[0] == pytest.approx(0.169532, abs=5e-6)
    assert g[1] == pytest.approx(0.028724, abs=5e-6)
    assert g[2] == pytest.approx(0.004026, abs=5e-6)
    for row in report.rows:
        assert row.points >= 512


def test_laplace_refinement_evaluates_only_new_midpoints(monkeypatch):
    # Each doubling adds only the odd points of the new grid: 512 + 512 +
    # 512 + 1024 + 4096 + 16384 heights, where summing every grid afresh
    # took 44544.
    calls = _counting(monkeypatch, "circle_height")
    report = laplace_check([10.0, 100.0, 1000.0, 1e4, 1e5, 1e6])
    assert report.passed
    assert tuple(row.points for row in report.rows) == (512, 512, 512, 1024, 4096, 16384)
    assert len(calls) <= 23040


def test_laplace_bound_tightens_with_beta():
    report = laplace_check([10.0, 100.0, 1000.0, 10000.0])
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
    report = laplace_check(betas)
    assert report.passed
    for row in report.rows:
        exact = -(-row.beta / 2 + _log_bessel_i0(row.beta / 2)) / row.beta
        assert row.g == pytest.approx(exact, rel=1e-8)


def test_laplace_matches_the_large_beta_asymptotic():
    # Z ~ (pi beta)^(-1/2) (1 + 1/(4 beta)), so g = log(pi beta) / (2 beta)
    # up to a relative 1/(2 beta log(pi beta)): 4.0e-7 at 1e5, 3.3e-8 at 1e6
    report = laplace_check([1e5, 1e6])
    assert report.passed
    for row in report.rows:
        asymptotic = math.log(math.pi * row.beta) / (2.0 * row.beta)
        assert row.g == pytest.approx(asymptotic, rel=1e-6)


def test_laplace_grid_validation():
    with pytest.raises(ValueError, match="empty"):
        laplace_check([])
    with pytest.raises(ValueError, match="positive"):
        laplace_check([0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        laplace_check([2.0, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            laplace_check([10.0, bad])
    with pytest.raises(ValueError, match="positive"):
        laplace_check([-math.inf, 10.0])


def test_laplace_raises_on_unsettled_quadrature(monkeypatch):
    # The first beta that does not settle raises, so no report holds an
    # unsettled row; the betas before it are not reported either.
    monkeypatch.setattr(thermo_module, "_QUADRATURE_MAX_POINTS", 1024)
    with pytest.raises(ConvergenceError, match=r"^quadrature did not settle at beta=1e\+06$"):
        laplace_check([10.0, 1e6, 1e7])
    assert laplace_check([10.0]).rows[0].points == 512
