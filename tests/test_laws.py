"""Law checks: domination, superadditivity, convergence, curve bounds."""

import random
from fractions import Fraction

import pytest

from morse_entropy import cli, laws
from morse_entropy import (
    Boundary,
    CriticalSpectrum,
    Kind,
    LawReport,
    SpectrumAtom,
    Violation,
    WindowQuery,
    check_bounds_and_max,
    check_domination,
    check_fekete,
    check_superadditivity,
    count_window,
    mean_distribution,
    merge_reports,
    preset,
    random_spectrum,
    random_windows,
    validate_spectrum,
)

CIRCLE = preset("circle")
TORUS = preset("torus")


def bypassed(*entries):
    """Build a spectrum without validation, for negative controls."""
    import math

    atoms = tuple(
        SpectrumAtom(Fraction(v), m, b) for v, m, b in entries
    )
    denom = math.lcm(*(a.value.denominator for a in atoms))
    return CriticalSpectrum(atoms=atoms, denom=denom)


# extremes carry betti weight 0 (validation would refuse); every homology
# tuple then has mean 1/2, so a window at 0 stays empty
BROKEN = bypassed((0, 1, 0), (Fraction(1, 2), 1, 1), (1, 1, 0))


def test_domination_on_presets():
    windows = random_windows(random.Random(7), 10)
    for spec in (CIRCLE, TORUS):
        report = check_domination(spec, 8, windows)
        assert report.law == "betti_dominated_by_critical"
        assert report.instances_checked == 80
        assert report.passed
        assert report.violations == ()


def test_domination_on_random_spectra():
    rng = random.Random(21)
    for _ in range(20):
        spec = random_spectrum(rng)
        report = check_domination(spec, 6, random_windows(rng, 8), cap=1 << 20)
        assert report.passed, report.violations


def test_domination_is_strict_when_multiplicity_exceeds_betti():
    spec = validate_spectrum([(0, 2, 1), (1, 3, 1)])
    dist_b = mean_distribution(spec, 1, Kind.BETTI)
    dist_c = mean_distribution(spec, 1, Kind.CRITICAL)
    full = WindowQuery(Fraction(1, 2), Fraction(1, 2))
    betti = count_window(dist_b, WindowQuery(Fraction(1, 2), Fraction(1, 2), Boundary.CLOSED_OPEN))
    critical = count_window(dist_c, full)
    assert betti == 1 < critical == 5
    assert check_domination(spec, 4, [full]).passed


def test_domination_catches_a_bypassed_spectrum():
    # betti weight above multiplicity cannot survive validation, so build
    # the broken spectrum directly and confirm the check reports it
    broken = bypassed((0, 1, 1), (Fraction(1, 2), 1, 5), (1, 1, 1))
    report = check_domination(broken, 2, [WindowQuery(Fraction(1, 2), Fraction(1, 2))])
    assert not report.passed
    assert report.instances_checked == 2
    first = report.violations[0]
    assert first.lhs == 6 and first.rhs == 3
    assert dict(first.inputs)["n"] == "1"


def test_superadditivity_on_presets():
    for spec in (CIRCLE, TORUS):
        for n1, n2 in ((1, 1), (2, 3), (4, 4), (1, 7)):
            report = check_superadditivity(
                spec, n1, n2, Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)
            )
            assert report.law == "window_count_superadditivity"
            assert report.instances_checked == 2
            assert report.passed, report.violations


def test_superadditivity_with_empty_parts_is_trivial():
    # no 3-tuple of circle values has mean within 1/100 of 1/5
    report = check_superadditivity(
        CIRCLE, 3, 3, Fraction(1, 5), Fraction(1, 5), Fraction(1, 100)
    )
    assert report.passed


def test_superadditivity_on_random_spectra():
    rng = random.Random(99)
    for _ in range(25):
        spec = random_spectrum(rng)
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        c1 = Fraction(rng.randint(0, 60), 60)
        c2 = Fraction(rng.randint(0, 60), 60)
        delta = Fraction(rng.randint(1, 20), 40)
        report = check_superadditivity(spec, n1, n2, c1, c2, delta, cap=1 << 20)
        assert report.passed, report.violations


def test_superadditivity_input_validation():
    with pytest.raises(ValueError):
        check_superadditivity(CIRCLE, 0, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))


def test_fekete_on_presets():
    for spec in (CIRCLE, TORUS):
        for c, delta in ((Fraction(1, 2), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 10))):
            report = check_fekete(spec, c, delta, 64)
            assert report.law == "fekete_limit"
            assert report.passed, report.violations
            assert report.instances_checked > 40


def test_fekete_preconditions():
    with pytest.raises(ValueError, match="n_max"):
        check_fekete(CIRCLE, Fraction(1, 2), Fraction(1, 10), 23)
    with pytest.raises(ValueError, match="delta"):
        check_fekete(CIRCLE, Fraction(1, 2), Fraction(0), 64)


def test_fekete_collects_violations_instead_of_raising():
    report = check_fekete(BROKEN, Fraction(0), Fraction(1, 20), 45)
    assert not report.passed
    tags = [dict(v.inputs)["sub_check"] for v in report.violations]
    assert tags.count("unit_floor") == 5
    assert tags.count("rate_vs_limit") == 1
    assert len(tags) == 6


def _fekete_cases():
    yield CIRCLE, (Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10), 64
    yield TORUS, (Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10), 64
    for seed in range(6):
        rng = random.Random(seed)
        spec = random_spectrum(rng)
        centres = tuple(Fraction(rng.randint(0, 60), 60) for _ in range(3))
        yield spec, centres, Fraction(rng.randint(2, 8), 40), 85
    # centres 0 and 1/20 each fail unit_floor then rate_vs_limit, 1/2 passes:
    # the order of violations across sub-checks and centres is compared
    yield BROKEN, (Fraction(0), Fraction(1, 2), Fraction(1, 20)), Fraction(1, 20), 45


def test_fekete_shared_sweep_equals_separate_calls():
    for spec, centres, delta, n_max in _fekete_cases():
        shared = check_fekete(spec, centres, delta, n_max)
        separate = merge_reports(*(check_fekete(spec, c, delta, n_max) for c in centres))
        assert shared.instances_checked == separate.instances_checked
        assert shared.violations == separate.violations
    assert check_fekete(CIRCLE, [Fraction(1, 2)], Fraction(1, 10), 30) == check_fekete(
        CIRCLE, Fraction(1, 2), Fraction(1, 10), 30
    )
    with pytest.raises(ValueError, match="centre"):
        check_fekete(CIRCLE, (), Fraction(1, 10), 30)


def test_verify_runs_one_fekete_sweep(monkeypatch, capsys):
    calls = []
    sweep = laws.mean_distributions

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(laws, "mean_distributions", counted)
    assert cli.run(["verify", "--preset", "torus", "--suite", "fekete"]) == 0
    assert capsys.readouterr().out == "PASS fekete_limit instances=138 violations=0\n"
    assert len(calls) == 1


def test_bounds_and_max_on_presets():
    for spec in (CIRCLE, TORUS):
        report = check_bounds_and_max(spec, 21)
        assert report.law == "rate_bounds_and_peak"
        assert report.passed, report.violations
        assert report.instances_checked == 22


def test_bounds_and_max_on_random_spectra():
    for seed in range(10):
        spec = random_spectrum(random.Random(seed))
        report = check_bounds_and_max(spec, 21)
        assert report.passed, report.violations


def test_bounds_grid_validation():
    with pytest.raises(ValueError):
        check_bounds_and_max(CIRCLE, 10)


def test_bounds_catch_a_bypassed_spectrum():
    broken = bypassed((0, 1, 1), (Fraction(1, 2), 1, 5), (1, 1, 1))
    report = check_bounds_and_max(broken, 21)
    assert not report.passed
    bounds = {dict(v.inputs)["bound"] for v in report.violations}
    assert "betti_below_epsilon" in bounds


def test_merge_reports():
    a = check_domination(CIRCLE, 2, [WindowQuery(Fraction(1, 2), Fraction(1, 4))])
    b = check_domination(TORUS, 3, [WindowQuery(Fraction(1, 2), Fraction(1, 4))])
    merged = merge_reports(a, b)
    assert merged.law == a.law
    assert merged.instances_checked == 5
    assert merged.violations == ()
    with pytest.raises(ValueError):
        merge_reports()
    fek = check_fekete(CIRCLE, Fraction(1, 2), Fraction(1, 10), 30)
    with pytest.raises(ValueError, match="different laws"):
        merge_reports(a, fek)


def test_merge_keeps_violation_order():
    v1 = Violation((("k", "1"),), 0, 1)
    v2 = Violation((("k", "2"),), 2, 3)
    a = LawReport("x", 1, (v1,))
    b = LawReport("x", 1, (v2,))
    assert merge_reports(a, b).violations == (v1, v2)


def test_random_spectrum_is_deterministic_and_valid():
    first = random_spectrum(random.Random(33))
    second = random_spectrum(random.Random(33))
    assert first == second
    assert first.atoms[0].value == 0 and first.atoms[-1].value == 1
    assert all(1 <= a.multiplicity <= 4 for a in first.atoms)
    assert all(0 <= a.betti_weight <= a.multiplicity for a in first.atoms)
    assert 2 <= len(first.atoms) <= 5
    # distinct seeds should not all collide
    spectra = {random_spectrum(random.Random(s)) for s in range(12)}
    assert len(spectra) > 6


def test_random_windows_are_deterministic_and_on_grid():
    first = random_windows(random.Random(5), 7)
    second = random_windows(random.Random(5), 7)
    assert first == second
    for q in first:
        assert 0 <= q.c <= 1 and (q.c * 60).denominator == 1
        assert Fraction(1, 40) <= q.delta <= Fraction(1, 2)
        assert (q.delta * 40).denominator == 1
