"""Exact distributions of tuple means over product spectra.

Averaging n independent copies of a spectrum with common denominator D
puts every achievable mean on the grid s / (n*D), s = 0 .. n*D.  The
number of n-tuples of critical points at each grid value is an integer,
the coefficient of x**s in the n-th power of the single-site histogram.
One power comes straight from J.C.P. Miller's recurrence; a sweep over
every n up to some n_max rolls one convolution per step instead.  Whether
a window holds any tuple at all needs no counts: :func:`occupied_windows`
steps the support of the n-fold sum as one bitmask.  Counts stay Python
integers throughout; the only float in this module is the final
``log(count) / n`` of :func:`finite_rate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .spectrum import CriticalSpectrum, as_rational

#: Largest sum grid (n * denom) built without an explicit override.
DEFAULT_CAP = 16384


class ResourceCapError(RuntimeError):
    """A requested sum grid exceeds the configured cap."""


class Kind(enum.Enum):
    """Which per-atom weight drives the count."""

    CRITICAL = "critical"   # multiplicity: every critical point
    BETTI = "betti"         # betti_weight: homologically essential ones

    @property
    def boundary(self) -> Boundary:
        """The window convention this kind is counted with; see :class:`Boundary`."""
        return Boundary.CLOSED_CLOSED if self is Kind.CRITICAL else Boundary.CLOSED_OPEN


class Boundary(enum.Enum):
    """Window endpoint convention.

    Critical-point counts use the closed window; homology counts use the
    half-open one (:attr:`Kind.boundary` holds this rule for every
    caller), which is what keeps domination and superadditivity
    exact on rational grids.  Tests flip the flag to measure how much the
    boundary convention matters.
    """

    CLOSED_CLOSED = "closed"
    CLOSED_OPEN = "half-open"


@dataclass(frozen=True)
class MeanDistribution:
    """Counts of n-tuples by mean value, on the grid s / grid_denom."""

    n: int
    grid_denom: int
    counts: Tuple[int, ...]
    kind: Kind

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.counts) != self.grid_denom + 1:
            raise ValueError(
                f"counts length {len(self.counts)} does not match grid 0..{self.grid_denom}"
            )

    @property
    def total(self) -> int:
        """Total weighted tuple count (p**n or B**n for valid spectra)."""
        return sum(self.counts)


@dataclass(frozen=True)
class WindowQuery:
    """A value window [c - delta, c + delta] with an endpoint convention."""

    c: Fraction
    delta: Fraction
    boundary: Boundary = Boundary.CLOSED_CLOSED

    def __post_init__(self):
        object.__setattr__(self, "c", as_rational(self.c))
        object.__setattr__(self, "delta", as_rational(self.delta))
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (self.c - self.delta < 1 and self.c + self.delta > 0):
            raise ValueError(f"window around {self.c} +- {self.delta} misses [0, 1]")


def _check_cap(spec: CriticalSpectrum, n: int, cap: Optional[int]) -> None:
    limit = DEFAULT_CAP if cap is None else cap
    if n * spec.denom > limit:
        raise ResourceCapError(f"sum grid n*denom = {n * spec.denom} exceeds cap {limit}")


def _site_histogram(spec: CriticalSpectrum, kind: Kind) -> Tuple[int, ...]:
    site = [0] * (spec.denom + 1)
    for atom in spec.atoms:
        offset = atom.value.numerator * (spec.denom // atom.value.denominator)
        weight = atom.multiplicity if kind is Kind.CRITICAL else atom.betti_weight
        site[offset] += weight
    return tuple(site)


def _convolve(counts: Tuple[int, ...], site: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * (len(counts) + len(site) - 1)
    first = True
    for offset, w in enumerate(site):
        if w:
            end = offset + len(counts)
            scaled = counts if w == 1 else map(mul, counts, repeat(w))
            # the first atom lands on zeros, so it is stored, not added
            out[offset:end] = scaled if first else map(add, out[offset:end], scaled)
            first = False
    return tuple(out)


def _power(site: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """Coefficients of P(x)**n, P given by its coefficients ``site``.

    J.C.P. Miller's recurrence: with P = x**low * Q and q_0 = Q(0) != 0,
    the coefficients of Q**n satisfy
    k * q_0 * a_k = sum_j ((n + 1) * j - k) * q_j * a_(k-j),
    an exact division, summed over the nonzero q_j only.  Each term keeps
    (n + 1) * j * q_j, and the terms run in order of j, so the sum stops at
    the first j > k.
    """
    nonzero = [j for j, w in enumerate(site) if w]
    if not nonzero:
        return (0,) * (n * (len(site) - 1) + 1)
    low, q0 = nonzero[0], site[nonzero[0]]
    terms = [(j - low, (n + 1) * (j - low) * site[j], site[j]) for j in nonzero[1:]]
    a = [q0 ** n]
    for k in range(1, n * (len(site) - 1 - low) + 1):
        total = 0
        for j, nq, q in terms:
            if j > k:
                break
            total += (nq - k * q) * a[k - j]
        a.append(total // (k * q0))
    return (0,) * (n * low) + tuple(a)


def mean_distribution(
    spec: CriticalSpectrum,
    n: int,
    kind: Kind,
    *,
    cap: Optional[int] = None,
) -> MeanDistribution:
    """Exact mean distribution of n-tuples, as one power of the site histogram.

    The power comes from J.C.P. Miller's recurrence, in O(n * denom)
    big-integer steps per nonzero atom, holding one distribution.  ``cap``
    bounds the sum grid n * denom (default :data:`DEFAULT_CAP`); exceeding
    it raises :class:`ResourceCapError` before any work is done.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_cap(spec, n, cap)
    counts = _power(_site_histogram(spec, kind), n)
    return MeanDistribution(n=n, grid_denom=n * spec.denom, counts=counts, kind=kind)


def mean_distributions(
    spec: CriticalSpectrum,
    kind: Kind,
    n_max: int,
    *,
    cap: Optional[int] = None,
) -> Iterator[MeanDistribution]:
    """The mean distributions for n = 1 .. n_max, in order.

    Each step is one convolution with the site histogram, and only the
    current distribution is held.  The cap is checked for n_max before
    the first distribution is built.
    """
    _check_cap(spec, n_max, cap)
    site = _site_histogram(spec, kind)
    counts = (1,)
    for n in range(1, n_max + 1):
        counts = _convolve(counts, site)
        yield MeanDistribution(n=n, grid_denom=n * spec.denom, counts=counts, kind=kind)


def window_range(query: WindowQuery, grid_denom: int) -> range:
    """Grid indices s whose value s / grid_denom falls in the window.

    Window edges are compared as rationals; nothing is rounded.  The
    range is empty when the window misses the grid 0 .. grid_denom.
    """
    lo = max(math.ceil((query.c - query.delta) * grid_denom), 0)
    hi_edge = (query.c + query.delta) * grid_denom
    if query.boundary is Boundary.CLOSED_CLOSED:
        hi = math.floor(hi_edge)
    else:
        # strict upper edge: largest s with s < hi_edge
        hi = math.ceil(hi_edge) - 1
    return range(lo, max(lo, min(hi, grid_denom) + 1))


def count_window(dist: MeanDistribution, query: WindowQuery) -> int:
    """Exact number of tuples whose mean falls in the window; see :func:`window_range`."""
    span = window_range(query, dist.grid_denom)
    return sum(dist.counts[span.start : span.stop])


def occupied_windows(
    spec: CriticalSpectrum,
    kind: Kind,
    n_max: int,
    queries: Sequence[WindowQuery],
    *,
    cap: Optional[int] = None,
) -> List[Tuple[bool, ...]]:
    """Whether each window holds any n-tuple, for n = 1 .. n_max.

    Entry n - 1 holds, per query, ``count_window(mean_distribution(spec,
    n, kind), query) >= 1``, exactly, without building a count.  Weights
    are never negative (validation ensures it), so every coefficient is a
    sum of positive products and is nonzero exactly on the support of the
    n-fold sum of the atoms of nonzero weight.  That support is one
    integer used as a bitmask, stepped from n - 1 to n by OR-ing its
    shifts by the atom offsets.  The cap is checked for n_max before any
    work.
    """
    _check_cap(spec, n_max, cap)
    offsets = [s for s, w in enumerate(_site_histogram(spec, kind)) if w]
    support = 1
    out = []
    for n in range(1, n_max + 1):
        step = 0
        for offset in offsets:
            step |= support << offset
        support = step
        spans = [window_range(query, n * spec.denom) for query in queries]
        out.append(tuple(bool(support >> s.start & ((1 << len(s)) - 1)) for s in spans))
    return out


def finite_rate(count: int, n: int) -> float:
    """Per-site log of a count; 0 maps to -inf."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return float("-inf")
    return math.log(count) / n
