"""Law checks: domination, superadditivity, convergence, curve bounds."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from morse_entropy import cli, counter, laws
from morse_entropy import (
    Boundary,
    CriticalSpectrum,
    Kind,
    LawReport,
    ResourceCapError,
    SpectrumAtom,
    SpectrumError,
    Violation,
    WindowQuery,
    check_bounds_and_max,
    check_domination,
    check_fekete,
    check_superadditivity,
    count_window,
    mean_distribution,
    preset,
    random_windows,
    validate_spectrum,
    window_counts,
)
from _oracles import (
    fekete_pairs,
    full_sweep_check_fekete,
    merge_reports,
    random_spectrum,
    swept_check_domination,
    swept_check_superadditivity,
    unvalidated_spectrum,
)

CIRCLE = preset("circle")
TORUS = preset("torus")


def built(*entries):
    """The spectrum :func:`unvalidated_spectrum` builds, through the validating constructors."""
    atoms = tuple(SpectrumAtom(*entry) for entry in entries)
    return CriticalSpectrum(atoms, math.lcm(*(a.value.denominator for a in atoms)))


def refused(entries, message):
    """Building ``entries`` raises the SpectrumError ``message`` matches; returns its tag."""
    with pytest.raises(SpectrumError, match=message) as raised:
        built(*entries)
    return raised.value.violation


# extremes carry betti weight 0 (no spectrum can); every homology tuple
# then has mean 1/2, so a window at 0 stays empty
BROKEN_ENTRIES = ((0, 1, 0), (Fraction(1, 2), 1, 1), (1, 1, 0))
BROKEN = unvalidated_spectrum(*BROKEN_ENTRIES)
# betti weight 5 above multiplicity 1 at 1/2
HEAVY_ENTRIES = ((0, 1, 1), (Fraction(1, 2), 1, 5), (1, 1, 1))
HEAVY = unvalidated_spectrum(*HEAVY_ENTRIES)


def test_domination_on_presets():
    windows = random_windows(random.Random(7), 10)
    for spec in (CIRCLE, TORUS):
        report = check_domination(spec, 8, windows)
        assert report.law == "betti_dominated_by_critical"
        assert report.instances_checked == 80
        assert report.passed
        assert report.violations == ()
        assert report == swept_check_domination(spec, 8, windows)


def test_domination_on_random_spectra():
    rng = random.Random(21)
    for _ in range(20):
        spec = random_spectrum(rng)
        windows = random_windows(rng, 8)
        report = check_domination(spec, 6, windows)
        assert report.passed, report.violations
        assert report == swept_check_domination(spec, 6, windows, cap=1 << 20)


def test_domination_on_validated_spectra_counts_nothing(monkeypatch):
    monkeypatch.setattr(counter, "_miller", None)  # any count would raise TypeError
    rng = random.Random(22)
    for spec in [CIRCLE, TORUS] + [random_spectrum(rng) for _ in range(20)]:
        report = check_domination(spec, 40, random_windows(rng, 8))
        assert report == LawReport("betti_dominated_by_critical", 320, ())


def test_domination_counts_a_negative_betti_weight():
    # betti <= multiplicity holds at every atom, but the weight -3 at 1/2
    # makes the homology count at n = 2 the coefficient 11 of
    # (1 - 3x + x**2)**2 against 3 of (1 + x + x**2)**2: the oracle counts
    # it, and no spectrum can hold the weight that breaks the premise
    entries = ((0, 1, 1), (Fraction(1, 2), 1, -3), (1, 1, 1))
    spec = unvalidated_spectrum(*entries)
    window = [WindowQuery(Fraction(1, 2), Fraction(1, 8))]
    report = swept_check_domination(spec, 2, window)
    assert report.instances_checked == 2
    assert report.violations == (
        Violation((("n", "2"), ("c", "1/2"), ("delta", "1/8")), 11, 3),
    )
    assert refused(entries, "betti_weight at value 1/2 must be >= 0, got -3") == "betti_weight_invalid"


def test_domination_reads_no_cap(monkeypatch):
    # a certificate counts nothing, so no n is too large for it: n * denom
    # here is far past the default cap of 16384
    monkeypatch.setattr(counter, "_miller", None)  # any count would raise TypeError
    window = [WindowQuery(Fraction(1, 2), Fraction(1, 4))]
    assert check_domination(CIRCLE, 10**12, window) == LawReport(
        "betti_dominated_by_critical", 10**12, ()
    )
    assert refused(HEAVY_ENTRIES, "betti_weight 5 > multiplicity 1") == "betti_weight_exceeds_multiplicity"


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
    # betti weight above multiplicity cannot survive construction, so build
    # the broken spectrum past it: the oracle counts the failure
    window = [WindowQuery(Fraction(1, 2), Fraction(1, 2))]
    report = swept_check_domination(HEAVY, 2, window)
    assert not report.passed
    assert report.instances_checked == 2
    first = report.violations[0]
    assert first.lhs == 6 and first.rhs == 3
    assert dict(first.inputs)["n"] == "1"
    refused(HEAVY_ENTRIES, "betti_weight 5 > multiplicity 1 at value 1/2")


def test_domination_needs_a_step_and_a_window():
    window = WindowQuery(Fraction(1, 2), Fraction(1, 4))
    for n_max in (0, -3):
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            check_domination(TORUS, n_max, [window])
    with pytest.raises(ValueError, match="need at least one window"):
        check_domination(TORUS, 4, [])


def _domination_by_window_counts(spec, n_max, windows):
    """``check_domination`` with every count taken by ``count_window``."""
    violations, checked = [], 0
    for n in range(1, n_max + 1):
        dist_b = mean_distribution(spec, n, Kind.BETTI, cap=1 << 20)
        dist_c = mean_distribution(spec, n, Kind.CRITICAL, cap=1 << 20)
        for query in windows:
            checked += 1
            betti = count_window(dist_b, WindowQuery(query.c, query.delta, Boundary.CLOSED_OPEN))
            critical = count_window(dist_c, WindowQuery(query.c, query.delta))
            if betti > critical:
                inputs = (("n", str(n)), ("c", str(query.c)), ("delta", str(query.delta)))
                violations.append(Violation(inputs, betti, critical))
    return LawReport("betti_dominated_by_critical", checked, tuple(violations))


def test_domination_prefix_sums_equal_window_counts():
    # the certificate on valid spectra, the swept oracle on HEAVY, which
    # no spectrum can hold, each against counts of the full distribution
    rng = random.Random(8)
    spectra = [CIRCLE, TORUS, HEAVY] + [random_spectrum(rng) for _ in range(6)]
    failed = 0
    for spec in spectra:
        windows = random_windows(rng, 12)
        if spec is HEAVY:
            report = swept_check_domination(spec, 7, windows, cap=1 << 20)
        else:
            report = check_domination(spec, 7, windows)
        assert report == _domination_by_window_counts(spec, 7, windows)
        failed += not report.passed
    assert failed  # HEAVY: violations and their order are compared too


def test_superadditivity_on_presets():
    for spec in (CIRCLE, TORUS):
        for n1, n2 in ((1, 1), (2, 3), (4, 4), (1, 7)):
            report = check_superadditivity(
                spec, n1, n2, Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)
            )
            assert report.law == "window_count_superadditivity"
            assert report.instances_checked == 2
            assert report.passed, report.violations
            assert report == swept_check_superadditivity(
                spec, n1, n2, Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)
            )


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
        report = check_superadditivity(spec, n1, n2, c1, c2, delta)
        assert report.passed, report.violations
        assert report == swept_check_superadditivity(spec, n1, n2, c1, c2, delta, cap=1 << 20)


def test_superadditivity_input_validation():
    with pytest.raises(ValueError):
        check_superadditivity(CIRCLE, 0, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))


@pytest.mark.parametrize(
    "draw, message",
    [
        ((1, 1, 5, -7, -1), "delta must be positive, got -1"),
        ((2, 3, Fraction(1, 2), Fraction(1, 2), 0), "delta must be positive, got 0"),
        ((2, 3, 2, Fraction(1, 2), Fraction(1, 10)), r"window around 2 \+- 1/10 misses \[0, 1\]"),
        ((1, 1, 0.5, 0.5, 0.1), "expected an exact rational, got 0.5"),
    ],
    ids=["negative_delta", "zero_delta", "c1_above_1", "float_draw"],
)
def test_superadditivity_refuses_a_window_that_does_not_exist(monkeypatch, draw, message):
    # WindowQuery validates each draw's part windows, whatever the atoms
    monkeypatch.setattr(counter, "_miller", None)  # any count would raise TypeError
    good = (1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 10))
    for spec in (TORUS, BROKEN):
        for args in (draw, [list(pair) for pair in zip(good, draw)]):  # scalar and columns
            with pytest.raises(ValueError, match=message) as refused:
                check_superadditivity(spec, *args)
            assert not isinstance(refused.value, SpectrumError)


def test_fekete_on_presets():
    for spec in (CIRCLE, TORUS):
        for c, delta in ((Fraction(1, 2), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 10))):
            report = check_fekete(spec, c, delta, 64)
            assert report.law == "fekete_limit"
            assert report.passed, report.violations
            assert report.instances_checked > 40


def test_law_checks_read_the_torus_under_any_common_denom():
    # A denom of 3 misplaces the torus atom at 1/2 (it counted 18998 where
    # the torus gives 24310), so it does not build; a multiple of 2 places
    # every atom, and the checks read the same under it.
    for build in (lambda: CriticalSpectrum(TORUS.atoms, 3), lambda: TORUS._replace(denom=3)):
        with pytest.raises(SpectrumError, match="denom must be a positive multiple of 2, got 3") as raised:
            build()
        assert raised.value.violation == "denom_invalid"
    wide = TORUS._replace(denom=6)
    centres, delta = (Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10)
    assert check_fekete(wide, centres, delta, 2000, cap=100000) == check_fekete(
        TORUS, centres, delta, 2000, cap=100000
    )
    windows = [WindowQuery(Fraction(1, 2), Fraction(1, 4))]
    assert check_domination(wide, 8, windows) == check_domination(TORUS, 8, windows)
    draw = (3, 5, Fraction(1, 4), Fraction(3, 4), Fraction(1, 8))
    assert check_superadditivity(wide, *draw) == check_superadditivity(TORUS, *draw)
    query = [WindowQuery(Fraction(1, 2), Fraction(1, 16), Kind.BETTI.boundary)]
    assert window_counts(wide, 8, Kind.BETTI, query) == window_counts(TORUS, 8, Kind.BETTI, query) == (24310,)


def test_fekete_preconditions():
    with pytest.raises(ValueError, match="n_max"):
        check_fekete(CIRCLE, Fraction(1, 2), Fraction(1, 10), 23)
    with pytest.raises(ValueError, match="delta"):
        check_fekete(CIRCLE, Fraction(1, 2), Fraction(0), 64)
    for centre, delta in ((0.5, Fraction(1, 10)), (Fraction(1, 2), 0.1)):
        with pytest.raises(ValueError, match="expected an exact rational"):
            check_fekete(CIRCLE, centre, delta, 64)
    # the windows are checked before the n_max floor
    with pytest.raises(ValueError, match=r"misses \[0, 1\]"):
        check_fekete(TORUS, 5, Fraction(1, 10), 23)


def test_fekete_collects_violations_instead_of_raising(monkeypatch):
    # BROKEN's empty window at 0, counted by the oracle; no spectrum can
    # hold its atoms, since the check's certificates rest on them
    report = full_sweep_check_fekete(BROKEN, (Fraction(0),), Fraction(1, 20), 45)
    assert not report.passed
    tags = [dict(v.inputs)["sub_check"] for v in report.violations]
    assert tags.count("unit_floor") == 5
    assert tags.count("rate_vs_limit") == 1
    assert len(tags) == 6
    refused(BROKEN_ENTRIES, "betti_weight at extreme value 0 must be >= 1")
    # a wrong count on a validated spectrum is reported per centre, in order
    monkeypatch.setattr(laws, "window_counts", lambda spec, n, kind, queries, cap: (1,) * len(queries))
    centres = (Fraction(0), Fraction(1, 2), Fraction(1, 20))
    shared = check_fekete(TORUS, centres, Fraction(1, 20), 45)
    assert [dict(v.inputs)["c"] for v in shared.violations] == ["0", "1/2", "1/20"]
    assert {v.lhs for v in shared.violations} == {0.0}
    assert shared == merge_reports(*(check_fekete(TORUS, c, Fraction(1, 20), 45) for c in centres))


def _fekete_cases():
    yield CIRCLE, (Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10), 64
    yield TORUS, (Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10), 64
    for seed in range(6):
        rng = random.Random(seed)
        spec = random_spectrum(rng)
        centres = tuple(Fraction(rng.randint(0, 60), 60) for _ in range(3))
        yield spec, centres, Fraction(rng.randint(2, 8), 40), 85


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


def _counting(monkeypatch, name):
    """Replace ``laws.<name>`` by a wrapper that records its positional arguments."""
    calls = []
    original = getattr(laws, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(laws, name, counted)
    return calls


def test_fekete_matches_the_full_sweep_oracle():
    cases = list(_fekete_cases())
    centres = tuple(map(Fraction, ("0", "1/4", "37/100", "1/2", "2/3", "1")))
    sizes = ((Fraction(1, 10), 64), (Fraction(1, 20), 120), (Fraction(1, 12), 200))
    for spec in (CIRCLE, TORUS):
        for delta, n_max in sizes:
            cases.append((spec, centres, delta, n_max))
    for spec, centres, delta, n_max in cases:
        assert check_fekete(spec, centres, delta, n_max) == full_sweep_check_fekete(
            spec, centres, delta, n_max
        )


def test_verify_fekete_reads_exact_counts_only_where_its_laws_do(monkeypatch, capsys):
    # the pairs are read from the atoms, so the only exact count is
    # rate_vs_limit's, at n_max = 64, for both centres in one call
    powers = _counting(monkeypatch, "window_counts")
    assert cli.run(["verify", "--preset", "torus", "--suite", "fekete"]) == 0
    assert capsys.readouterr().out == "PASS fekete_limit instances=138 violations=0\n"
    assert [(n, kind, len(queries)) for spec, n, kind, queries in powers] == [(64, Kind.BETTI, 2)]
    assert len(fekete_pairs(Fraction(1, 10), 64)) == 24  # still counted as instances


def test_fekete_checks_the_cap_before_building_any_distribution(monkeypatch, capsys):
    monkeypatch.setattr(counter, "_miller", None)  # any count would raise TypeError
    with pytest.raises(ResourceCapError, match="128 exceeds cap 127"):
        check_fekete(TORUS, (Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10), 64, cap=127)
    for suite in ("fekete", "all"):
        assert cli.run(["verify", "--preset", "torus", "--suite", suite, "--cap", "127"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sum grid n*denom = 128 exceeds cap 127\n"


# Atoms that break the premise of the law certificates, one invariant
# each, with the tag and message of the SpectrumError that names it.
PREMISE_BREAKS = {
    "negative_betti": (
        ((0, 1, 1), (Fraction(1, 2), 1, -3), (1, 1, 1)),
        "betti_weight_invalid",
        "betti_weight at value 1/2 must be >= 0, got -3",
    ),
    "negative_multiplicity": (
        ((0, 1, 1), (Fraction(1, 2), -1, -1), (1, 1, 1)),
        "multiplicity_invalid",
        "multiplicity at value 1/2 must be >= 1, got -1",
    ),
    "betti_above_multiplicity": (
        ((0, 1, 1), (Fraction(1, 2), 1, 5), (1, 1, 1)),
        "betti_weight_exceeds_multiplicity",
        "betti_weight 5 > multiplicity 1 at value 1/2",
    ),
    "betti_zero_at_an_extreme": (
        ((0, 1, 0), (Fraction(1, 2), 1, 1), (1, 1, 1)),
        "extreme_betti_weight_zero",
        "betti_weight at extreme value 0 must be >= 1",
    ),
    "no_atom_at_0": (((Fraction(1, 3), 1, 1), (1, 1, 1)), "missing_minimum", "no atom at value 0"),
    "no_atom_at_1": (((0, 1, 1), (Fraction(1, 2), 2, 2)), "missing_maximum", "no atom at value 1"),
}


@pytest.mark.parametrize("entries, tag, message", PREMISE_BREAKS.values(), ids=PREMISE_BREAKS)
def test_every_broken_premise_raises_at_construction(entries, tag, message):
    # The law checks read their certificates off the atoms, so no spectrum
    # may hold atoms that break the premise: building one raises, through
    # the records and through validate_spectrum alike.
    assert refused(entries, message) == tag
    with pytest.raises(SpectrumError, match=message) as raised:
        validate_spectrum(entries)
    assert raised.value.violation == tag


def test_unit_floor_certificate_holds_on_random_spectra():
    # Windows on the 1/60 x 1/40 grids of verify: the oracle counts every
    # n from the first n > 2/delta up, and no window is ever empty.
    for seed in range(40):
        rng = random.Random(seed)
        spec = random_spectrum(rng)
        for window in random_windows(rng, 4):
            n_max = math.ceil(2 / window.delta) + 4
            report = full_sweep_check_fekete(spec, (window.c,), window.delta, n_max, cap=1 << 30)
            assert "unit_floor" not in {dict(v.inputs)["sub_check"] for v in report.violations}
            assert check_fekete(spec, window.c, window.delta, n_max, cap=1 << 30) == report


def test_unit_floor_needs_an_atom_at_each_extreme():
    # no atom at 1: every tuple mean is at most 1/2, so the window around 1
    # is empty at every n, which the premise rules out
    entries = PREMISE_BREAKS["no_atom_at_1"][0]
    spec = unvalidated_spectrum(*entries)
    report = full_sweep_check_fekete(spec, (Fraction(1),), Fraction(1, 10), 24)
    floors = [v for v in report.violations if dict(v.inputs)["sub_check"] == "unit_floor"]
    assert [(dict(v.inputs)["n"], v.lhs) for v in floors] == [(str(n), 0) for n in range(21, 25)]
    refused(entries, "no atom at value 1")


# weight -1 at 1/2 lets a count go negative, so products can beat the whole
SIGNED = unvalidated_spectrum(*PREMISE_BREAKS["negative_multiplicity"][0])


def _verify_draws(seed, windows=25, instances=50):
    """The superadditivity draws of ``verify --seed SEED``, as five columns."""
    rng = random.Random(seed)
    random_windows(rng, windows)  # the domination suite draws first
    draws = [
        (
            rng.randint(1, 8),
            rng.randint(1, 8),
            Fraction(rng.randint(0, 60), 60),
            Fraction(rng.randint(0, 60), 60),
            Fraction(rng.randint(1, 20), 40),
        )
        for _ in range(instances)
    ]
    return [list(column) for column in zip(*draws)]


def test_batched_superadditivity_equals_single_draws(monkeypatch):
    for seed in (0, 7, 11):
        draws = _verify_draws(seed)
        for spec in (TORUS, random_spectrum(random.Random(seed))):
            singles = merge_reports(
                *(check_superadditivity(spec, *draw) for draw in zip(*draws))
            )
            powers = _counting(monkeypatch, "window_counts")
            batched = check_superadditivity(spec, *draws)
            monkeypatch.undo()
            assert batched == singles
            assert powers == []
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert check_superadditivity(TORUS, [1], [1], [half], [half], [quarter]) == (
        check_superadditivity(TORUS, 1, 1, half, half, quarter)
    )
    with pytest.raises(ValueError, match="draw"):
        check_superadditivity(TORUS, [], [], [], [], [])
    with pytest.raises(ValueError):
        check_superadditivity(TORUS, [1, 2], [1], [half], [half], [quarter])
    with pytest.raises(ValueError, match=">= 1"):
        check_superadditivity(TORUS, [1, 0], [1, 1], [0, 0], [0, 0], [Fraction(1, 4)] * 2)


def test_signed_superadditivity_reports_match_miller_counts():
    # The oracle's swept counts against window_counts, the independent
    # Miller engine: SIGNED's negative weight makes many instances fail,
    # so every lhs and rhs below is a count the sweep read.
    reports = [
        swept_check_superadditivity(SIGNED, *_verify_draws(seed), cap=1 << 20)
        for seed in (0, 7, 11)
    ]
    digest = hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()
    assert digest == "b601a5a6291915cff659dfd51320731ecd03a439347f2cdf7c370af8e7b428aa"
    assert [len(report.violations) for report in reports] == [48, 60, 54]
    for report in reports:
        for violation in report.violations:
            tags = dict(violation.inputs)
            kind = Kind(tags["kind"])
            n1, n2 = int(tags["n1"]), int(tags["n2"])
            c1, c2, delta = (Fraction(tags[key]) for key in ("c1", "c2", "delta"))
            c_mix = (n1 * c1 + n2 * c2) / (n1 + n2)
            whole, part1, part2 = (
                window_counts(SIGNED, n, kind, [WindowQuery(c, delta, kind.boundary)])[0]
                for n, c in ((n1 + n2, c_mix), (n1, c1), (n2, c2))
            )
            assert (violation.lhs, violation.rhs) == (whole, part1 * part2)


def test_superadditivity_counts_a_negative_multiplicity():
    # Every homology weight is >= 0, but the multiplicity -1 at 1/2 makes
    # critical counts negative: the oracle counts the failures, and no
    # spectrum can hold the multiplicity
    entries = ((0, 1, 1), (Fraction(1, 2), -1, 1), (1, 1, 1))
    spec = unvalidated_spectrum(*entries)
    reports = [swept_check_superadditivity(spec, *_verify_draws(seed)) for seed in (0, 7, 11)]
    assert [len(report.violations) for report in reports] == [24, 29, 27]
    for report in reports:
        assert {dict(v.inputs)["kind"] for v in report.violations} == {"critical"}
    refused(entries, "multiplicity at value 1/2 must be >= 1, got -1")


def test_superadditivity_reads_no_cap(monkeypatch, capsys):
    # The draws reach n1 + n2 = 16, past a cap of 15 on the circle's grid
    # 16 * 1 and 12 on the torus's 16 * 2, but the certificate counts
    # nothing: every seed passes, whatever --cap says.
    monkeypatch.setattr(counter, "_miller", None)  # any count would raise TypeError
    for seed, (preset, cap) in itertools.product(range(8), (("circle", "15"), ("torus", "12"))):
        args = ["verify", "--preset", preset, "--suite", "superadditivity", "--seed", str(seed)]
        assert cli.run([*args, "--cap", cap]) == 0
        captured = capsys.readouterr()
        assert captured.out == "PASS window_count_superadditivity instances=100 violations=0\n"
        assert captured.err == ""


def test_verify_traces_one_superadditivity_call(monkeypatch, capsys):
    powers = _counting(monkeypatch, "window_counts")
    calls = []
    check = cli.check_superadditivity
    monkeypatch.setattr(
        cli, "check_superadditivity", lambda *a, **k: calls.append(a) or check(*a, **k)
    )
    assert cli.run(["verify", "--preset", "torus", "--suite", "superadditivity"]) == 0
    out = capsys.readouterr().out
    assert out == "PASS window_count_superadditivity instances=100 violations=0\n"
    assert len(calls) == 1
    assert calls[0][1:] == tuple(_verify_draws(0, windows=0))
    assert powers == []  # the torus's atoms prove the law


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
    report = check_bounds_and_max(HEAVY, 21)
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
