"""Maxent solver and rate curves against closed forms and a scan oracle."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morse_entropy import (
    ConvergenceError,
    Curve,
    Kind,
    MaxEntProblem,
    MaxEntSolution,
    WindowQuery,
    betti_curve,
    count_window,
    epsilon_curve,
    finite_rate,
    maxent_rate,
    mean_distribution,
    preset,
    validate_spectrum,
    window_sup_rate,
)
from morse_entropy import rate as rate_module
from _oracles import concavity_check, edge_binary_entropy, random_spectrum, scan_maxent_rate
from test_cli import SEED7_RECORDS, _child_env

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


def _kind_families(spec):
    """(curve function, values, float weights) for each kind of the spectrum."""
    critical = [(a.value, a.multiplicity) for a in spec.atoms]
    betti = [(a.value, a.betti_weight) for a in spec.atoms if a.betti_weight > 0]
    return [
        (curve_of, tuple(v for v, _ in pairs), tuple(float(w) for _, w in pairs))
        for curve_of, pairs in ((epsilon_curve, critical), (betti_curve, betti))
    ]


def _check_continuation(monkeypatch, make_curve, values, weights):
    """A curve's solves against fresh problems, warm and cold.

    Returns the curve and its solves as ``_counting_solves`` records them.

    Each solve equals a fresh problem solved from the start the curve gave
    it, bit for bit.  Each point is within 1e-14 relative of a cold solve
    wherever that converges.
    """
    solves = _counting_solves(monkeypatch)
    curve = make_curve()
    monkeypatch.undo()
    for problem, start, sol in solves:
        assert sol == maxent_rate(MaxEntProblem(values, weights, problem.target), start)
    for c, r in zip(curve.grid, curve.rates):
        cold = maxent_rate(MaxEntProblem(values, weights, c))
        if cold.converged:
            assert abs(r - cold.rate) <= 1e-14 * abs(cold.rate), (c, r, cold.rate)
    return curve, solves


@pytest.mark.parametrize("spec", _one_family_specs())
def test_curves_equal_fresh_problems_at_every_point(monkeypatch, spec):
    for curve_of, values, weights in _kind_families(spec):
        _check_continuation(monkeypatch, lambda: curve_of(spec, 101), values, weights)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), grid_points=st.integers(3, 1001))
def test_continued_curves_match_cold_solves_on_random_spectra(seed, grid_points):
    spec = random_spectrum(random.Random(seed))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for curve_of, values, weights in _kind_families(spec):
            _check_continuation(monkeypatch, lambda: curve_of(spec, grid_points), values, weights)


def test_a_curve_validates_its_family_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return Fraction(x)

    monkeypatch.setattr(rate_module, "as_rational", counting)
    epsilon_curve(TORUS, 101)
    assert len(calls) == len(TORUS.atoms)


def test_a_kept_curve_leaves_no_solver_tuples_behind():
    # Allocation guard, run in a fresh child that never calls gc.collect().
    # tuple(<generator>) allots ten slots and shrinks them to the atom
    # count; each solve's p, built so and then dropped, stayed in CPython's
    # free list for tuples of that length, which only a full collection
    # empties.  With the curve kept that read 414 KB (Python 3.11).
    code = (
        "import tracemalloc\n"
        "from morse_entropy import epsilon_curve, validate_spectrum\n"
        "spec = validate_spectrum("
        "[(0, 1, 1), ('1/7', 3, 1), ('2/5', 2, 0), ('5/9', 4, 2), (1, 1, 1)])\n"
        "tracemalloc.start()\n"
        "curve = epsilon_curve(spec, 2001)\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True
    )
    assert int(proc.stdout) < 320 << 10


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
    assert left.rate == 0.0
    assert left.converged and left.iterations == 0

    right = maxent_rate(MaxEntProblem((Fraction(0), HALF, Fraction(1)), (1.0, 2.0, 3.0), 1))
    assert right.lam == float("inf")
    assert right.rate == math.log(3.0)


def test_the_iteration_cap_returns_the_state_at_the_returned_multiplier(monkeypatch):
    # Torus weights (1, 2, 1) at 1/7: two iterations do not converge, and
    # the rate is the family's at the lam that comes back.
    monkeypatch.setattr(rate_module, "MAX_ITERATIONS", 2)
    sol = maxent_rate(MaxEntProblem((0, HALF, 1), (1.0, 2.0, 1.0), Fraction(1, 7)))
    assert not sol.converged and sol.iterations == 2
    mean, _, log_z = rate_module._family([0.0, 0.5, 1.0], [0.0, math.log(2.0), 0.0], sol.lam)
    assert sol.rate == log_z - sol.lam * mean


def test_single_atom():
    sol = maxent_rate(MaxEntProblem((HALF,), (3.0,), HALF))
    assert sol.lam == 0.0
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
        # the family's mass at 1, e^lam / (1 + e^lam), is the target mean
        assert 1.0 / (1.0 + math.exp(-sol.lam)) == pytest.approx(float(c), abs=1e-9)


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
        # the mass 3 / (3 + e^lam) at 0 is 1 - c to 1e-9 relative when lam
        # = log(3c / (1 - c)) holds to 1e-9 absolute
        assert sol.lam == pytest.approx(math.log(3 * (c / (1 - c))), rel=0.0, abs=1e-9)


def _counting_solves(monkeypatch):
    """Record the (problem, start, solution) of every solve a curve makes."""
    solve = rate_module.maxent_rate
    solves = []

    def counting(problem, start=0.0):
        sol = solve(problem, start)
        solves.append((problem, start, sol))
        return sol

    monkeypatch.setattr(rate_module, "maxent_rate", counting)
    return solves


# The benchmark's seed-7 spectrum: asymmetric, so every grid point is solved
SEED7 = validate_spectrum(
    [(Fraction(r["value"]), r["multiplicity"], r["betti_weight"]) for r in SEED7_RECORDS]
)


def _iterations_along_a_curve(monkeypatch, spec, grid_points):
    solves = _counting_solves(monkeypatch)
    rate_module.epsilon_curve(spec, grid_points)
    return [sol.iterations for _, _, sol in solves]


def test_newton_takes_few_iterations_along_a_curve(monkeypatch):
    counts = _iterations_along_a_curve(monkeypatch, TORUS, 1001)
    # the torus is its own mirror image: points with c > 1/2 are copied
    assert len(counts) == 501
    # cold solves from lam = 0 take about 6
    assert sum(counts) / len(counts) <= 4.5
    assert max(counts) <= 60


def test_newton_takes_few_iterations_along_an_asymmetric_curve(monkeypatch):
    counts = _iterations_along_a_curve(monkeypatch, SEED7, 2001)
    assert len(counts) == 2001
    assert sum(counts) / len(counts) <= 4.5
    assert max(counts) <= 60


def test_warm_starts_are_in_the_frame_of_lam():
    family = MaxEntProblem(DRAW_5.values(), DRAW_5.multiplicities(), HALF)
    for target in (Fraction(1, 5), Fraction(4, 5)):
        cold = maxent_rate(family.at(target))
        warm = maxent_rate(family.at(target), cold.lam)
        # the start evaluation and one more: the first Newton step is negligible
        assert warm.converged and warm.iterations == 2 < cold.iterations
        assert warm.rate == pytest.approx(cold.rate, rel=1e-14, abs=0.0)
        assert maxent_rate(family.at(target), 0.0) == cold


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_non_finite_starts_raise(start):
    family = MaxEntProblem(TORUS.values(), TORUS.multiplicities(), HALF)
    for target in (Fraction(0), Fraction(3, 10), Fraction(1)):
        with pytest.raises(ValueError, match="finite"):
            maxent_rate(family.at(target), start)


DRAW_5 = random_spectrum(random.Random(5))


@pytest.mark.parametrize(
    "values, weights",
    [((Fraction(0), Fraction(1)), (3.0, 1.0)), (DRAW_5.values(), DRAW_5.multiplicities())],
)
def test_asymmetric_families_solve_every_grid_point(monkeypatch, values, weights):
    solves = _counting_solves(monkeypatch)
    rate_module._curve(values, weights, 1001)
    assert len(solves) == 1001


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
    weights = tuple(float(m) for m in spec.multiplicities())
    curve, solves = _check_continuation(
        monkeypatch, lambda: rate_module.epsilon_curve(spec, grid_points), spec.values(), weights
    )
    assert len(solves) == (grid_points + 1) // 2
    assert all(problem.target <= HALF for problem, _, _ in solves)
    assert curve.rates == curve.rates[::-1]


@pytest.mark.parametrize("grid_points", [2, 3, 4, 101, 1000])
def test_symmetric_values_with_asymmetric_weights_are_not_mirrored(monkeypatch, grid_points):
    values, weights = (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)), (2.0, 1.0, 3.0, 2.0)
    curve, solves = _check_continuation(
        monkeypatch, lambda: rate_module._curve(values, weights, grid_points),
        values, weights,
    )
    assert len(solves) == grid_points
    if grid_points >= 4:
        assert curve.rates[1] != curve.rates[-2]


def test_each_half_walks_in_from_its_own_edge(monkeypatch):
    solves = _counting_solves(monkeypatch)
    rate_module._curve(DRAW_5.values(), DRAW_5.multiplicities(), 11)
    targets = [problem.target for problem, _, _ in solves]
    assert targets == [Fraction(j, 10) for j in (*range(6), *range(10, 5, -1))]
    starts = [start for _, start, _ in solves]
    # each edge is a point mass with an infinite lam, so the next point starts cold
    assert starts[0] == starts[1] == starts[6] == starts[7] == 0
    assert all(start != 0 for start in starts[2:6] + starts[8:])


NON_DYADIC = MaxEntProblem((Fraction(1, 3), HALF, Fraction(2, 3)), (1.0, 2.0, 3.0), HALF)
# Non-dyadic ends around the integer targets 0 and 1
SPANNING = MaxEntProblem((Fraction(-1, 3), HALF, Fraction(4, 3)), (1.0, 2.0, 3.0), HALF)


def test_targets_at_non_dyadic_ends_are_point_masses():
    for target, index, lam in ((Fraction(1, 3), 0, -math.inf), (Fraction(2, 3), 2, math.inf)):
        rate = math.log(NON_DYADIC.weights[index])
        want = MaxEntSolution(lam=lam, rate=rate, converged=True, iterations=0)
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
    # the mirror target's family is the mirror image at the negated lam
    sol_lo = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(3, 10)))
    sol_hi = maxent_rate(MaxEntProblem((Fraction(0), Fraction(1)), (1.0, 1.0), Fraction(7, 10)))
    assert sol_hi.lam == -sol_lo.lam
    assert sol_hi.rate == sol_lo.rate


def test_curve_construction_checks():
    with pytest.raises(ValueError):
        Curve(grid=(Fraction(0),), rates=(0.0,))
    with pytest.raises(ValueError):
        Curve(grid=(Fraction(0), Fraction(1)), rates=(0.0,))
    with pytest.raises(ValueError):
        Curve(grid=(Fraction(1), Fraction(0)), rates=(0.0, 0.0))
    with pytest.raises(ValueError):
        epsilon_curve(CIRCLE, 1)


def test_curves_on_circle_match_binary_entropy():
    eps = epsilon_curve(CIRCLE, 21)
    bet = betti_curve(CIRCLE, 21)
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
    assert concavity_check(Curve(grid, (0.0, -1.0, 0.0)), 1e-9) == [1]
    assert concavity_check(Curve(grid, (0.0, float("-inf"), 0.0)), 1e-9) == [1]
    # -inf shoulders never certify a violation
    assert concavity_check(Curve(grid, (float("-inf"), 1.0, float("-inf"))), 1e-9) == []
    assert concavity_check(Curve(grid, (0.0, math.nan, 0.0)), 1e-9) == [1]


def test_concavity_check_requires_uniform_grid():
    curve = Curve((Fraction(0), Fraction(1, 4), Fraction(1)), (0.0, 0.1, 0.0))
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


def test_window_sup_rate_past_the_float_range_of_the_weight_sum():
    # The weights sum to 2e308, past the largest float: the peak's log Z
    # and its location still come out, from the family at lam = 0.
    values, w = (0, HALF, 1), (1e308, 1.0, 1e308)
    edge = window_sup_rate(values, w, 0, Fraction(1, 10))
    assert edge == maxent_rate(MaxEntProblem(values, w, Fraction(1, 10))).rate
    assert edge == pytest.approx(709.5213, abs=1e-4)
    peak = window_sup_rate(values, w, Fraction(1, 4), Fraction(3, 4))
    assert peak == pytest.approx(math.log(2.0) + math.log(1e308), rel=1e-15)


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


def test_a_point_that_did_not_converge_raises_naming_its_target(monkeypatch):
    # One failed point among converged ones: the curve raises there and
    # solves nothing after it.
    solve, failing, targets = maxent_rate, Fraction(3, 10), []

    def fails_once(problem, start=0.0):
        targets.append(problem.target)
        if problem.target == failing:
            return MaxEntSolution(-5.0, 1.23, False, 200)
        return solve(problem, start)

    monkeypatch.setattr(rate_module, "maxent_rate", fails_once)
    for curve_of in (epsilon_curve, betti_curve):
        targets.clear()
        with pytest.raises(ConvergenceError, match=r"^rate solver did not converge at c=0\.3$"):
            curve_of(CIRCLE, 11)
        assert targets == [Fraction(j, 10) for j in range(4)]


def test_iteration_cap_raises_from_curves_and_window_suprema(monkeypatch):
    monkeypatch.setattr(rate_module, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError, match=r"at c=0\.1$"):
        epsilon_curve(TORUS, 11)
    with pytest.raises(ConvergenceError, match=r"at c=0\.1$"):
        window_sup_rate((0, HALF, 1), (1, 2, 1), Fraction(1, 20), Fraction(1, 10))
