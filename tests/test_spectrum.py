"""Spectrum ingestion: presets, merging, ordering, named violations."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morse_entropy import (
    CriticalSpectrum,
    SpectrumAtom,
    SpectrumError,
    as_rational,
    entry_multiset,
    preset,
    preset_names,
    validate_spectrum,
)
from morse_entropy.spectrum import _lcm


def test_circle_preset():
    spec = preset("circle")
    assert [(a.value, a.multiplicity, a.betti_weight) for a in spec.atoms] == [
        (0, 1, 1),
        (1, 1, 1),
    ]
    assert spec.p == 2
    assert spec.total_betti == 2
    assert spec.denom == 1


def test_sphere_is_the_circle_spectrum():
    assert preset("sphere") == preset("circle")


def test_torus_preset_matches_enumerated_critical_points():
    # The torus height (2 - cos a - cos b) / 4 has critical points exactly
    # at a, b in {0, pi}; tally their values directly.
    tally = Counter()
    for ca in (1, -1):
        for cb in (1, -1):
            tally[Fraction(2 - ca - cb, 4)] += 1
    spec = preset("torus")
    assert {a.value: a.multiplicity for a in spec.atoms} == dict(tally)
    # all four points carry homology for this height
    assert all(a.betti_weight == a.multiplicity for a in spec.atoms)
    assert spec.denom == 2
    assert spec.p == 4
    assert spec.total_betti == 4


def test_unknown_preset():
    with pytest.raises(SpectrumError) as err:
        preset("klein-bottle")
    assert err.value.violation == "unknown_preset"
    assert "circle" in str(err.value)


def test_preset_names_sorted():
    assert preset_names() == ("circle", "sphere", "torus")


def test_duplicate_values_merge_by_summing():
    spec = validate_spectrum(
        [(0, 1, 1), ("1/2", 1, 0), (Fraction(2, 4), 1, 1), (1, 1, 1)]
    )
    middle = spec.atoms[1]
    assert middle.value == Fraction(1, 2)
    assert middle.multiplicity == 2
    assert middle.betti_weight == 1


def test_input_order_is_irrelevant():
    shuffled = validate_spectrum([(1, 1, 1), ("1/2", 2, 2), (0, 1, 1)])
    assert shuffled == preset("torus")


def test_validation_is_idempotent():
    spec = validate_spectrum([(0, 2, 1), ("1/3", 1, 0), (1, 1, 1)])
    again = validate_spectrum(
        [(a.value, a.multiplicity, a.betti_weight) for a in spec.atoms]
    )
    assert again == spec


@pytest.mark.parametrize(
    "raw, violation",
    [
        ([], "empty_spectrum"),
        ([(0, 1, 2), (1, 1, 1)], "betti_weight_exceeds_multiplicity"),
        ([(0, 1, 1)], "missing_maximum"),
        ([(1, 1, 1)], "missing_minimum"),
        ([("1/2", 1, 1), (1, 1, 1)], "missing_minimum"),
        ([(0, 1, 1), (1, 1, 0)], "extreme_betti_weight_zero"),
        ([(0, 1, 0), (1, 1, 1)], "extreme_betti_weight_zero"),
        ([(0, 0, 0), (1, 1, 1)], "multiplicity_invalid"),
        ([(0, "2", 1), (1, 1, 1)], "multiplicity_invalid"),
        ([(0, 1, -1), (1, 1, 1)], "betti_weight_invalid"),
        ([(0, 1, True), (1, 1, 1)], "betti_weight_invalid"),
        ([(0.0, 1, 1), (1, 1, 1)], "value_not_rational"),
        ([("nonsense", 1, 1)], "value_not_rational"),
        ([("3/2", 1, 1), (0, 1, 1)], "value_out_of_range"),
        ([("-1/2", 1, 1), (1, 1, 1)], "value_out_of_range"),
        ([(0, 1), (1, 1, 1)], "malformed_entry"),
    ],
)
def test_named_violations(raw, violation):
    with pytest.raises(SpectrumError) as err:
        validate_spectrum(raw)
    assert err.value.violation == violation


TORUS_ATOMS = preset("torus").atoms


@pytest.mark.parametrize(
    "atoms, denom, violation",
    [
        ((), 1, "empty_spectrum"),
        (TORUS_ATOMS[::-1], 2, "values_not_increasing"),
        ((TORUS_ATOMS[0], TORUS_ATOMS[0], TORUS_ATOMS[2]), 1, "values_not_increasing"),
        (TORUS_ATOMS, 3, "denom_invalid"),
        (TORUS_ATOMS, 0, "denom_invalid"),
        (TORUS_ATOMS, -2, "denom_invalid"),
        (TORUS_ATOMS, 2.0, "denom_invalid"),
        (TORUS_ATOMS, True, "denom_invalid"),
        (TORUS_ATOMS, "2", "denom_invalid"),
    ],
)
def test_a_spectrum_built_directly_checks_its_cross_atom_rules(atoms, denom, violation):
    with pytest.raises(SpectrumError) as err:
        CriticalSpectrum(atoms, denom)
    assert err.value.violation == violation


def test_valid_atoms_pass_through_construction():
    torus = preset("torus")
    assert CriticalSpectrum(torus.atoms, 2) == torus
    assert CriticalSpectrum(torus.atoms, 6).denom == 6  # any multiple of the lcm
    assert SpectrumAtom("1/2", 2, 1) == SpectrumAtom(Fraction(1, 2), 2, 1)
    assert type(SpectrumAtom(1, 1, 1).value) is Fraction


def test_lcm_equals_the_sequential_fold():
    rng = random.Random(5)
    for size in (0, 1, 2, 3, 7, 64, 101):
        numbers = [rng.randint(1, 10**6) for _ in range(size)]
        assert _lcm(numbers) == math.lcm(*numbers)


def test_betti_excess_error_names_the_value():
    with pytest.raises(SpectrumError, match="value 0"):
        validate_spectrum([(0, 1, 2), (1, 1, 1)])


def test_as_rational():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(" 1/2 ") == Fraction(1, 2)
    assert as_rational(2) == 2
    assert as_rational(Fraction(5, 6)) == Fraction(5, 6)
    for bad in (0.5, True, "1/0", "x", None):
        with pytest.raises(ValueError):
            as_rational(bad)


def test_as_rational_returns_a_fraction_as_it_is():
    f = Fraction(5, 6)
    assert as_rational(f) is f
    for exact, want in ((7, Fraction(7)), (-3, Fraction(-3)), ("7/21", Fraction(1, 3))):
        got = as_rational(exact)
        assert type(got) is Fraction and got == want
    for bad in (0.5, 1.0, float("nan"), True, False):
        with pytest.raises(ValueError, match="exact rational"):
            as_rational(bad)


def test_as_rational_refuses_an_exponent_over_the_digit_limit():
    # Fraction would build 10**exponent; an exponent over int()'s digit
    # limit is refused before it does, and a limit of 0 keeps no bound.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert as_rational("1e4300") == 10**4300
        assert as_rational("1e-4300") == Fraction(1, 10**4300)
        for bad in ("1e4301", "1e-4301", " 2.5E+99999999 ", "1e99_999_999"):
            with pytest.raises(ValueError, match="exponent over 4300") as refused:
                as_rational(bad)
            assert "PYTHONINTMAXSTRDIGITS=0" in str(refused.value)
        sys.set_int_max_str_digits(0)
        assert as_rational("1e4301") == 10**4301
    finally:
        sys.set_int_max_str_digits(limit)


def test_entry_multiset_drops_silent_atoms():
    spec = validate_spectrum([(0, 1, 1), ("1/2", 2, 0), ("2/3", 3, 2), (1, 1, 1)])
    entries = entry_multiset(spec)
    assert entries == ((Fraction(0), 1), (Fraction(2, 3), 2), (Fraction(1), 1))
    assert sum(w for _, w in entries) == spec.total_betti


@st.composite
def raw_spectra(draw):
    interior = draw(
        st.sets(
            st.fractions(min_value=0, max_value=1, max_denominator=10).filter(
                lambda v: 0 < v < 1
            ),
            max_size=3,
        )
    )
    raw = []
    for value in [Fraction(0), Fraction(1), *interior]:
        mult = draw(st.integers(1, 4))
        low = 1 if value in (0, 1) else 0
        raw.append((value, mult, draw(st.integers(low, mult))))
    return draw(st.permutations(raw))


@given(raw_spectra())
def test_valid_input_invariants(raw):
    spec = validate_spectrum(raw)
    values = [a.value for a in spec.atoms]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert values[0] == 0 and values[-1] == 1
    assert spec.p >= 2 and spec.total_betti >= 2
    assert spec.atoms[0].betti_weight >= 1 and spec.atoms[-1].betti_weight >= 1
    for atom in spec.atoms:
        assert 0 <= atom.betti_weight <= atom.multiplicity
        # every value sits on the common grid
        assert (atom.value * spec.denom).denominator == 1
    assert validate_spectrum(
        [(a.value, a.multiplicity, a.betti_weight) for a in spec.atoms]
    ) == spec
