"""Maxent solver and rate curves against closed forms and a scan oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morse_entropy import (
    Curve,
    Kind,
    MaxEntProblem,
    MaxEntSolution,
    WindowQuery,
    betti_curve,
    concavity_check,
    count_window,
    epsilon_curve,
    finite_rate,
    maxent_rate,
    mean_distribution,
    preset,
    random_spectrum,
    validate_spectrum,
    window_sup_rate,
)
from morse_entropy import rate as rate_module
from _oracles import edge_binary_entropy, scan_maxent_rate

CIRCLE = preset("circle")
TORUS = preset("torus")
HALF = Fraction(1, 2)


def binary_entropy(t: float) -> float:
    if t in (0.0, 1.0):
        return 0.0
    return -t * math.log(t) - (1.0 - t) * math.log(1.0 - t)


def test_problem_validation():
    with pytest.raises(ValueError):
        MaxEntProblem((), (), HALF)
    with pytest.raises(ValueError):
        MaxEntProblem((Fraction(0), Fraction(1)), (1.0,), HALF)
    with pytest.raises(ValueError, match="distinct"):
        MaxEntProblem((Fraction(0), Fraction(0)), (1.0, 1.0), 0)
    with pytest.raises(ValueError):
        MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 0.0), HALF)
    with pytest.raises(ValueError):
        MaxEntProblem((Fraction(0), Fraction(1)), (1.0, -2.0), HALF)
    with pytest.raises(ValueError):
        MaxEntProblem((Fraction(0), Fraction(1)), (1.0, math.inf), HALF)


def test_problem_sorts_values_and_weights_together():
    prob = MaxEntProblem((Fraction(1), Fraction(0), HALF), (3.0, 1.0, 2.0), HALF)
    assert prob.values == (Fraction(0), HALF, Fraction(1))
    assert prob.weights == (1.0, 2.0, 3.0)


def _one_family_specs():
    draws = [random_spectrum(random.Random(seed)) for seed in (3, 17, 101)]
    zero_interior = validate_spectrum([(0, 1, 1), (Fraction(1, 3), 2, 0), (HALF, 3, 2), (1, 1, 1)])
    return [CIRCLE, TORUS, *draws, zero_interior]


@pytest.mark.parametrize("spec", _one_family_specs())
def test_curves_equal_fresh_problems_at_every_point(spec):
    critical = [(a.value, a.multiplicity) for a in spec.atoms]
    betti = [(a.value, a.betti_weight) for a in spec.atoms if a.betti_weight > 0]
    for curve, pairs in ((epsilon_curve(spec, 101), critical), (betti_curve(spec, 101), betti)):
        values = tuple(v for v, _ in pairs)
        weights = tuple(float(w) for _, w in pairs)
        for c, r in zip(curve.grid, curve.rates):
            assert r == maxent_rate(MaxEntProblem(values, weights, c)).rate, (curve.kind, c)


def test_a_curve_validates_its_family_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return Fraction(x)

    monkeypatch.setattr(rate_module, "as_rational", counting)
    epsilon_curve(TORUS, 101)
    assert len(calls) == len(TORUS.atoms)


def test_retargeting_keeps_the_family_and_checks_the_target():
    family = MaxEntProblem((Fraction(1), Fraction(0), HALF), (3.0, 1.0, 2.0), HALF)
    moved = family.at(Fraction(1, 5))
    assert moved.target == Fraction(1, 5) and family.target == HALF
    assert (moved.values, moved.weights) == (family.values, family.weights)
    for target in (Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(ValueError, match="hull"):
            maxent_rate(family.at(target))
    for target in (0, 1):
        via_at = maxent_rate(family.at(target))
        assert via_at == maxent_rate(MaxEntProblem(family.values, family.weights, target))
        assert via_at.iterations == 0 and via_at.converged


def test_target_outside_hull():
    with pytest.raises(ValueError, match="hull"):
        maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(-1, 10)))
    with pytest.raises(ValueError, match="hull"):
        maxent_rate(MaxEntProblem((Fraction(1, 4), Fraction(3, 4)), (1.0, 1.0), Fraction(4, 5)))


def test_boundary_targets_are_point_masses():
    left = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), 0))
    assert left.lam == float("-inf")
    assert left.p == (1.0, 0.0)
    assert left.rate == 0.0
    assert left.converged

    right = maxent_rate(MaxEntProblem((Fraction(0), HALF, Fraction(1)), (1.0, 2.0, 3.0), 1))
    assert right.lam == float("inf")
    assert right.p == (0.0, 0.0, 1.0)
    assert right.rate == math.log(3.0)


def test_single_atom():
    sol = maxent_rate(MaxEntProblem((HALF,), (3.0,), HALF))
    assert sol.lam == 0.0
    assert sol.p == (1.0,)
    assert sol.rate == math.log(3.0)


def test_unconstrained_peak_is_exact():
    # Newton starts at lam = 0, which is the optimum
    assert maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), HALF)).rate == math.log(2.0)
    assert maxent_rate(
        MaxEntProblem((Fraction(0), HALF, Fraction(1)), (1.0, 2.0, 1.0), HALF)
    ).rate == math.log(4.0)


def test_circle_closed_form():
    # two equal atoms: rate is the binary entropy, lam = log(c / (1 - c))
    for c in (Fraction(1, 4), Fraction(3, 10), Fraction(7, 10)):
        sol = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), c))
        assert sol.converged
        assert sol.rate == pytest.approx(binary_entropy(float(c)), abs=1e-9)
        assert sol.lam == pytest.approx(math.log(float(c) / (1.0 - float(c))), abs=1e-8)
        assert sum(sol.p) == pytest.approx(1.0, abs=1e-12)
        assert sol.p[1] == pytest.approx(float(c), abs=1e-9)


def test_shifted_two_atom_closed_form():
    sol = maxent_rate(MaxEntProblem((Fraction(1, 4), Fraction(3, 4)), (1.0, 1.0), Fraction(3, 8)))
    assert sol.rate == pytest.approx(binary_entropy(0.25), abs=1e-9)


def test_weighted_two_atom_closed_form():
    sol = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (2.0, 5.0), Fraction(1, 3)))
    want = binary_entropy(1 / 3) + (2 / 3) * math.log(2.0) + (1 / 3) * math.log(5.0)
    assert sol.rate == pytest.approx(want, abs=1e-9)


def test_torus_rate_is_doubled_binary_entropy():
    # weights (1, 2, 1) on (0, 1/2, 1) factor as a squared two-atom family
    for c in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
        sol = maxent_rate(
            MaxEntProblem((Fraction(0), HALF, Fraction(1)), (1.0, 2.0, 1.0), c)
        )
        assert sol.rate == pytest.approx(2.0 * binary_entropy(float(c)), abs=1e-9)


def test_edge_targets_are_relatively_accurate():
    # the rate at c = 1e-15 is 3.5e-14; an absolute stop on the mean loses it
    for spec, factor in ((CIRCLE, 1.0), (TORUS, 2.0)):
        weights = tuple(float(m) for m in spec.multiplicities())
        for k in range(1, 16):
            c = Fraction(1, 10**k)
            sol = maxent_rate(MaxEntProblem(spec.values(), weights, c))
            assert sol.converged
            assert sol.rate == pytest.approx(factor * edge_binary_entropy(c), rel=1e-9, abs=0.0)
            assert sol.iterations <= 50


def test_top_edge_targets_of_asymmetric_weights_are_relatively_accurate():
    # weights (3, 1) on (0, 1): rate = H(c) + (1 - c) log 3, tiny near c = 1
    for k in range(1, 16):
        c = 1 - Fraction(1, 10**k)
        sol = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (3.0, 1.0), c))
        want = edge_binary_entropy(c) + float(1 - c) * math.log(3.0)
        assert sol.converged
        assert sol.rate == pytest.approx(want, rel=1e-9, abs=0.0)
        assert sol.p[0] == pytest.approx(float(1 - c), rel=1e-9, abs=0.0)


def _counting_solves(monkeypatch):
    solve = rate_module.maxent_rate
    counts = []

    def counting(problem):
        sol = solve(problem)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(rate_module, "maxent_rate", counting)
    return counts


def test_newton_takes_few_iterations_along_a_curve(monkeypatch):
    counts = _counting_solves(monkeypatch)
    rate_module.epsilon_curve(TORUS, 1001)
    # the torus is its own mirror image: points with c > 1/2 are copied
    assert len(counts) == 501
    assert sum(counts) / len(counts) <= 12
    assert max(counts) <= 60


DRAW_5 = random_spectrum(random.Random(5))


@pytest.mark.parametrize(
    "values, weights",
    [((Fraction(0), Fraction(1)), (3.0, 1.0)), (DRAW_5.values(), DRAW_5.multiplicities())],
)
def test_asymmetric_families_solve_every_grid_point(monkeypatch, values, weights):
    counts = _counting_solves(monkeypatch)
    rate_module._curve(values, weights, 1001, "epsilon")
    assert len(counts) == 1001


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.fractions(0, 1, max_denominator=10**6).filter(lambda c: 0 < c < 1),
)
def test_random_spectra_match_the_scan_oracle(seed, c):
    spec = random_spectrum(random.Random(seed))
    assume(len(spec.atoms) <= 3)  # the scan oracle handles two or three atoms
    weights = tuple(float(m) for m in spec.multiplicities())
    sol = maxent_rate(MaxEntProblem(spec.values(), weights, c))
    assert sol.converged
    assert sol.rate == pytest.approx(scan_maxent_rate(spec.values(), weights, c), abs=1e-10)


def test_three_atom_scan_oracle():
    torus_vals = (Fraction(0), HALF, Fraction(1))
    for c in (Fraction(3, 10), HALF, Fraction(3, 4)):
        got = maxent_rate(MaxEntProblem(torus_vals, (1.0, 2.0, 1.0), c)).rate
        assert got == pytest.approx(scan_maxent_rate(torus_vals, (1.0, 2.0, 1.0), c), abs=1e-10)
    for c in (Fraction(3, 10), HALF):
        got = maxent_rate(MaxEntProblem(torus_vals, (1.0, 3.0, 1.0), c)).rate
        assert got == pytest.approx(scan_maxent_rate(torus_vals, (1.0, 3.0, 1.0), c), abs=1e-10)


def test_heavy_middle_peak_exceeds_its_betti_rate():
    # multiplicities (1, 3, 1) against betti weights (1, 1, 1) at the peak
    vals = (Fraction(0), HALF, Fraction(1))
    eps = maxent_rate(MaxEntProblem(vals, (1.0, 3.0, 1.0), HALF)).rate
    bet = maxent_rate(MaxEntProblem(vals, (1.0, 1.0, 1.0), HALF)).rate
    assert eps == pytest.approx(math.log(5.0), abs=1e-12)
    assert bet == pytest.approx(math.log(3.0), abs=1e-12)
    assert bet < eps - 0.5


def test_envelope_slope_matches_multiplier():
    values = (Fraction(0), Fraction(1))
    h = 1e-5

    def rate_at(c: float) -> float:
        return maxent_rate(MaxEntProblem(values, (1.0, 1.0), c)).rate

    lam = maxent_rate(MaxEntProblem(values, (1.0, 1.0), Fraction(3, 10))).lam
    slope = (rate_at(0.3 + h) - rate_at(0.3 - h)) / (2.0 * h)
    assert slope == pytest.approx(-lam, abs=1e-6)


def test_symmetric_spectra_give_bit_exact_mirror_curves():
    for spec in (CIRCLE, TORUS):
        eps = epsilon_curve(spec, 101)
        for j in range(101):
            assert eps.rates[j] == eps.rates[100 - j]


# A symmetric spectrum whose end atoms carry weight 3, not 1
HEAVY_ENDS = validate_spectrum(
    [(0, 3, 2), (Fraction(1, 4), 2, 1), (Fraction(3, 4), 2, 1), (1, 3, 2)]
)


@pytest.mark.parametrize("grid_points", [2, 3, 4, 101, 1000])
@pytest.mark.parametrize("spec", [CIRCLE, TORUS, HEAVY_ENDS], ids=["circle", "torus", "heavy_ends"])
def test_mirrored_curves_equal_fresh_solves(monkeypatch, spec, grid_points):
    counts = _counting_solves(monkeypatch)
    weights = tuple(float(m) for m in spec.multiplicities())
    curve = rate_module.epsilon_curve(spec, grid_points)
    assert len(counts) == (grid_points + 1) // 2
    monkeypatch.undo()
    for c, r in zip(curve.grid, curve.rates):
        assert r == maxent_rate(MaxEntProblem(spec.values(), weights, c)).rate, c


@pytest.mark.parametrize("grid_points", [2, 3, 4, 101, 1000])
def test_symmetric_values_with_asymmetric_weights_are_not_mirrored(monkeypatch, grid_points):
    values, weights = (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)), (2.0, 1.0, 3.0, 2.0)
    counts = _counting_solves(monkeypatch)
    curve = rate_module._curve(values, weights, grid_points, "epsilon")
    assert len(counts) == grid_points
    monkeypatch.undo()
    for c, r in zip(curve.grid, curve.rates):
        assert r == maxent_rate(MaxEntProblem(values, weights, c)).rate, c
    if grid_points >= 4:
        assert curve.rates[1] != curve.rates[-2]


NON_DYADIC = MaxEntProblem((Fraction(1, 3), HALF, Fraction(2, 3)), (1.0, 2.0, 3.0), HALF)
# Non-dyadic ends around the integer targets 0 and 1
SPANNING = MaxEntProblem((Fraction(-1, 3), HALF, Fraction(4, 3)), (1.0, 2.0, 3.0), HALF)


def test_targets_at_non_dyadic_ends_are_point_masses():
    for target, index, lam in ((Fraction(1, 3), 0, -math.inf), (Fraction(2, 3), 2, math.inf)):
        p = tuple(float(i == index) for i in range(3))
        rate = math.log(NON_DYADIC.weights[index])
        want = MaxEntSolution(lam=lam, p=p, rate=rate, converged=True, iterations=0)
        assert maxent_rate(NON_DYADIC.at(target)) == want


@pytest.mark.parametrize(
    "target",
    [
        Fraction(1, 3) - Fraction(1, 10**30),
        Fraction(2, 3) + Fraction(1, 10**30),
        0,
        1,
        1 / 3,  # the nearest float to 1/3 lies below it
        math.nextafter(2 / 3, 1.0),
        math.nan,
        math.inf,
        -math.inf,
    ],
)
def test_targets_a_hair_outside_non_dyadic_ends_raise(target):
    with pytest.raises(ValueError, match="hull"):
        maxent_rate(NON_DYADIC.at(target))


# Rates at exact targets, as the solver gave them when it placed the
# target with Fraction arithmetic; the integer path must reproduce them.
@pytest.mark.parametrize(
    "family, target, rate_hex",
    [
        (NON_DYADIC, Fraction(2, 5), "0x1.0fda62c16243ap+0"),
        (NON_DYADIC, HALF, "0x1.b2bd37807ad8dp+0"),
        (NON_DYADIC, Fraction(3, 5), "0x1.b8999427df2d9p+0"),
        (NON_DYADIC, Fraction(1, 3) + Fraction(1, 10**12), "0x1.6b4435a86e526p-33"),
        (NON_DYADIC, Fraction(2, 3) - Fraction(1, 10**12), "0x1.193ea7ab7e937p+0"),
        (SPANNING, 0, "0x1.0fda62c162438p+0"),
        (SPANNING, 1, "0x1.b8999427df2dap+0"),
    ],
)
def test_exact_interior_targets_keep_their_rates(family, target, rate_hex):
    assert maxent_rate(family.at(target)).rate == float.fromhex(rate_hex)
    assert maxent_rate(family.at(Fraction(target))).rate == float.fromhex(rate_hex)


@pytest.mark.parametrize("target", [0.35, 0.4, 0.5, 0.6, 0.65, math.nextafter(1 / 3, 1.0), 2 / 3])
def test_float_targets_are_read_as_the_binary_fraction_they_hold(target):
    sol = maxent_rate(NON_DYADIC.at(target))
    assert sol.converged
    assert sol == maxent_rate(NON_DYADIC.at(Fraction(target)))


def test_mirror_solution_reflects_masses():
    sol_lo = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(3, 10)))
    sol_hi = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(7, 10)))
    assert sol_hi.lam == -sol_lo.lam
    assert sol_hi.p == tuple(reversed(sol_lo.p))
    assert sol_hi.rate == sol_lo.rate


def test_curve_construction_checks():
    with pytest.raises(ValueError):
        Curve(grid=(Fraction(0),), rates=(0.0,), kind="epsilon")
    with pytest.raises(ValueError):
        Curve(grid=(Fraction(0), Fraction(1)), rates=(0.0,), kind="epsilon")
    with pytest.raises(ValueError):
        Curve(grid=(Fraction(1), Fraction(0)), rates=(0.0, 0.0), kind="epsilon")
    with pytest.raises(ValueError):
        epsilon_curve(CIRCLE, 1)


def test_curves_on_circle_match_binary_entropy():
    eps = epsilon_curve(CIRCLE, 21)
    bet = betti_curve(CIRCLE, 21)
    assert eps.kind == "epsilon" and bet.kind == "betti"
    for c, r in zip(eps.grid, eps.rates):
        assert r == pytest.approx(binary_entropy(float(c)), abs=1e-9)
    # identical weights, so the curves must agree bit for bit
    assert bet.rates == eps.rates


def test_dense_curves_match_closed_forms_to_rounding():
    for spec, factor in ((CIRCLE, 1.0), (TORUS, 2.0)):
        curve = epsilon_curve(spec, 5001)
        for c, r in zip(curve.grid, curve.rates):
            if c in (0, 1):
                assert r == 0.0
                continue
            want = factor * edge_binary_entropy(c)
            assert abs(r - want) <= 1e-13
            assert abs(r - want) <= 1e-11 * want


def test_betti_curve_skips_zero_weight_atoms():
    from morse_entropy import validate_spectrum

    spec = validate_spectrum([(0, 1, 1), (HALF, 2, 0), (1, 1, 1)])
    bet = betti_curve(spec, 11)
    for c, r in zip(bet.grid, bet.rates):
        assert r == pytest.approx(binary_entropy(float(c)), abs=1e-9)


def test_concavity_check_passes_on_presets():
    for spec in (CIRCLE, TORUS):
        assert concavity_check(epsilon_curve(spec, 41), 1e-9) == []
        assert concavity_check(betti_curve(spec, 41), 1e-9) == []


def test_concavity_check_flags_dents():
    grid = (Fraction(0), HALF, Fraction(1))
    assert concavity_check(Curve(grid, (0.0, -1.0, 0.0), "x"), 1e-9) == [1]
    assert concavity_check(Curve(grid, (0.0, float("-inf"), 0.0), "x"), 1e-9) == [1]
    # -inf shoulders never certify a violation
    assert concavity_check(Curve(grid, (float("-inf"), 1.0, float("-inf")), "x"), 1e-9) == []
    assert concavity_check(Curve(grid, (0.0, math.nan, 0.0), "x"), 1e-9) == [1]


def test_concavity_check_requires_uniform_grid():
    curve = Curve((Fraction(0), Fraction(1, 4), Fraction(1)), (0.0, 0.1, 0.0), "x")
    with pytest.raises(ValueError, match="uniform"):
        concavity_check(curve, 1e-9)


def test_window_sup_rate():
    values = (Fraction(0), Fraction(1))
    w = (1.0, 1.0)
    assert window_sup_rate(values, w, Fraction(1, 4), Fraction(3, 4)) == math.log(2.0)
    edge = window_sup_rate(values, w, Fraction(0), Fraction(1, 5))
    assert edge == pytest.approx(binary_entropy(0.2), abs=1e-9)
    assert window_sup_rate(values, w, Fraction(6, 5), Fraction(2)) == float("-inf")
    assert window_sup_rate(values, w, Fraction(-1), Fraction(-1, 2)) == float("-inf")
    # window clipped to the hull
    assert window_sup_rate(values, w, Fraction(-1), Fraction(2)) == math.log(2.0)
    assert window_sup_rate((HALF,), (4.0,), Fraction(0), Fraction(1)) == math.log(4.0)


def test_finite_rates_converge_monotonically_to_the_sup():
    # doubling n concatenates tuples, so the per-site rate can only go up
    sup = window_sup_rate(
        (Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(9, 20), Fraction(11, 20)
    )
    query = WindowQuery(HALF, Fraction(1, 20))
    rates = []
    for n in (16, 32, 64):
        dist = mean_distribution(CIRCLE, n, Kind.CRITICAL)
        rates.append(finite_rate(count_window(dist, query), n))
    assert rates[0] < rates[1] < rates[2] < sup
    gaps = [sup - r for r in rates]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_non_converged_points_become_nan(monkeypatch):
    def stub(problem):
        return MaxEntSolution(
            lam=0.0,
            p=(1.0,) * len(problem.values),
            rate=1.23,
            converged=False,
            iterations=200,
        )

    monkeypatch.setattr(rate_module, "maxent_rate", stub)
    curve = rate_module.epsilon_curve(CIRCLE, 5)
    assert all(math.isnan(r) for r in curve.rates)
    assert concavity_check(curve, 1e-9) == [1, 2, 3]
