"""Finite critical-value spectra of a fixed Morse function.

A spectrum records the distinct critical values of one closed factor,
rescaled to [0, 1], together with how many critical points sit at each
value (``multiplicity``) and how many of those contribute a basis class
to the homology of the sublevel filtration (``betti_weight``).  Every
downstream computation (exact tuple counting, growth-rate solvers, law
checks) consumes these atoms, so values are kept as ``Fraction`` and the
two counting fields as plain integers.  Floats are rejected on ingestion:
``Fraction(0.1)`` would silently pick up the binary approximation.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

RawAtom = Tuple[Union[int, str, Fraction], int, int]


class SpectrumError(ValueError):
    """Invalid atom data.  ``violation`` is a stable machine-readable tag."""

    def __init__(self, violation: str, message: str):
        super().__init__(message)
        self.violation = violation


def as_rational(x: Union[int, str, Fraction]) -> Fraction:
    """Convert an exact input ("3/4", 1, Fraction) to Fraction.

    A Fraction is returned as it is.  Floats raise ValueError rather than
    importing their binary expansion.  So does a string with a run of
    digits longer than int()'s limit, too long to echo, or an exponent e
    over that limit, for which Fraction would build 10**e.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"expected an exact rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # int()'s digit limit, 0 for none
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", x, re.I)
        if limit and (re.search(rf"\d{{{limit + 1}}}", x) or exponent and abs(int(exponent[1])) > limit):
            raise ValueError(
                f"cannot parse rational: over {limit} digits in a row or an exponent over {limit},"
                " Python's limit for int(); PYTHONINTMAXSTRDIGITS=0 lifts it"
            )
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational {x!r}") from exc
    raise ValueError(f"expected an exact rational, got {type(x).__name__}")


class _ValidatedRecord:
    """Base, listed first, of the NamedTuple records whose ``__new__`` validates.

    namedtuple's own ``_make``, which ``_replace`` calls, builds the tuple
    without ``__new__``; this one calls the class, so a replaced record is
    validated, and rebuilt, as a new one is.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _check_count(raw_value: object, what: str, minimum: int, tag: str) -> None:
    if isinstance(raw_value, bool) or not isinstance(raw_value, int):
        raise SpectrumError(tag, f"{what} must be an integer, got {raw_value!r}")
    if raw_value < minimum:
        raise SpectrumError(tag, f"{what} must be >= {minimum}, got {raw_value}")


def _lcm(numbers: Sequence[int]) -> int:
    """Least common multiple up a balanced tree; ``math.lcm(*numbers)`` folds left, in quadratic time."""
    while len(numbers) > 1:
        numbers = [math.lcm(*numbers[i : i + 2]) for i in range(0, len(numbers), 2)]
    return numbers[0] if numbers else 1


class SpectrumAtom(
    _ValidatedRecord,
    NamedTuple("SpectrumAtom", [("value", Fraction), ("multiplicity", int), ("betti_weight", int)])
):
    """One critical value with its point count and homology count.

    ``value`` is read by :func:`as_rational` and lies in [0, 1];
    ``multiplicity`` >= 1 and 0 <= ``betti_weight`` <= ``multiplicity``.
    """

    __slots__ = ()

    def __new__(cls, value: Union[int, str, Fraction], multiplicity: int, betti_weight: int):
        try:
            value = as_rational(value)
        except ValueError as exc:
            raise SpectrumError("value_not_rational", str(exc)) from exc
        if not 0 <= value <= 1:
            raise SpectrumError("value_out_of_range", f"critical value {value} outside [0, 1]")
        _check_count(multiplicity, f"multiplicity at value {value}", 1, "multiplicity_invalid")
        _check_count(betti_weight, f"betti_weight at value {value}", 0, "betti_weight_invalid")
        if betti_weight > multiplicity:
            message = f"betti_weight {betti_weight} > multiplicity {multiplicity} at value {value}"
            raise SpectrumError("betti_weight_exceeds_multiplicity", message)
        return super().__new__(cls, value, multiplicity, betti_weight)


class CriticalSpectrum(
    _ValidatedRecord,
    NamedTuple("CriticalSpectrum", [("atoms", Tuple[SpectrumAtom, ...]), ("denom", int)])
):
    """The atoms of a surjective Morse function onto [0, 1], and a grid 1/denom for their values.

    Atom values strictly increase from 0 to 1, the atoms at both extremes
    have ``betti_weight`` >= 1, and ``denom`` is a positive multiple of
    every value's denominator (:func:`validate_spectrum` gives their lcm).
    Each rule raises a tagged :class:`SpectrumError`, so every spectrum meets them.
    """

    __slots__ = ()

    def __new__(cls, atoms: Tuple[SpectrumAtom, ...], denom: int):
        if not atoms:
            raise SpectrumError("empty_spectrum", "a spectrum needs at least its two extreme values")
        if any(a.value >= b.value for a, b in pairwise(atoms)):
            raise SpectrumError("values_not_increasing", "atom values must strictly increase")
        if atoms[0].value != 0:
            raise SpectrumError("missing_minimum", "no atom at value 0")
        if atoms[-1].value != 1:
            raise SpectrumError("missing_maximum", "no atom at value 1")
        for atom in (atoms[0], atoms[-1]):
            if atom.betti_weight < 1:
                message = f"betti_weight at extreme value {atom.value} must be >= 1"
                raise SpectrumError("extreme_betti_weight_zero", message)
        lcm = _lcm([a.value.denominator for a in atoms])
        if isinstance(denom, bool) or not isinstance(denom, int) or denom < 1 or denom % lcm:
            raise SpectrumError("denom_invalid", f"denom must be a positive multiple of {lcm}, got {denom!r}")
        return super().__new__(cls, atoms, denom)

    @property
    def p(self) -> int:
        """Total number of critical points of the single factor."""
        return sum(a.multiplicity for a in self.atoms)

    @property
    def total_betti(self) -> int:
        """Total homology dimension contributed by the single factor."""
        return sum(a.betti_weight for a in self.atoms)

    def values(self) -> Tuple[Fraction, ...]:
        return tuple(a.value for a in self.atoms)

    def multiplicities(self) -> Tuple[int, ...]:
        return tuple(a.multiplicity for a in self.atoms)


def validate_spectrum(raw: Iterable[RawAtom]) -> CriticalSpectrum:
    """The spectrum of raw ``(value, multiplicity, betti_weight)`` triples.

    Each triple is read as a :class:`SpectrumAtom`, triples sharing a value
    merge by summing both counts, and ``denom`` is the lcm of the value
    denominators.  Feeding back the atoms of a spectrum rebuilds it exactly.
    """
    merged: dict = {}
    for entry in raw:
        try:
            atom = SpectrumAtom(*entry)
        except TypeError as exc:  # not three fields
            raise SpectrumError("malformed_entry", f"expected (value, multiplicity, betti_weight), got {entry!r}") from exc
        old_m, old_b = merged.get(atom.value, (0, 0))
        merged[atom.value] = (old_m + atom.multiplicity, old_b + atom.betti_weight)
    atoms = tuple(SpectrumAtom(v, m, b) for v, (m, b) in sorted(merged.items()))
    return CriticalSpectrum(atoms, _lcm([a.value.denominator for a in atoms]))


# Height functions on the model surfaces, rescaled to [0, 1].  The circle
# and the sphere share one minimum and one maximum, each carrying a unit
# of homology; the flat torus adds two middle saddles, both homologically
# essential.
_PRESETS: dict = {
    "circle": ((0, 1, 1), (1, 1, 1)),
    "sphere": ((0, 1, 1), (1, 1, 1)),
    "torus": ((0, 1, 1), (Fraction(1, 2), 2, 2), (1, 1, 1)),
}


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS))

def preset(name: str) -> CriticalSpectrum:
    """Return a built-in spectrum: ``circle``, ``sphere``, or ``torus``."""
    try:
        raw = _PRESETS[name]
    except KeyError:
        raise SpectrumError("unknown_preset", f"unknown preset {name!r}; have {', '.join(preset_names())}") from None
    return validate_spectrum(raw)


def entry_multiset(spec: CriticalSpectrum) -> Tuple[Tuple[Fraction, int], ...]:
    """Values where homology enters the filtration, with their weights.

    Atoms of betti_weight zero are dropped; the weights sum to the total
    homology dimension of the factor.
    """
    return tuple((a.value, a.betti_weight) for a in spec.atoms if a.betti_weight > 0)
