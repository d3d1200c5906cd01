"""Exact distributions of tuple means over product spectra.

Averaging n independent copies of a spectrum with common denominator D
puts every achievable mean on the grid s / (n*D), s = 0 .. n*D.  The
number of n-tuples of critical points at each grid value is an integer,
the coefficient of x**s in the n-th power of the single-site histogram.
One power comes from J.C.P. Miller's recurrence, streamed one
coefficient at a time, each needing only the D before it.
:func:`window_counts` sums the stream from the grid end nearer its
windows, stops at the farthest window edge and holds those D
coefficients plus one prefix sum per window edge, never the n*D + 1 of
the whole grid; :func:`mean_distribution` keeps every coefficient.
Counts stay Python integers throughout; the only float in this module
is the final ``log(count) / n`` of :func:`finite_rate`.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

from .spectrum import CriticalSpectrum, _ValidatedRecord, as_rational

#: Largest sum grid (n * denom) built without an explicit override.
DEFAULT_CAP = 16384


class ResourceCapError(RuntimeError):
    """A requested sum grid exceeds the configured cap."""


class Kind(enum.Enum):
    """Which per-atom weight drives the count, chosen only in :meth:`family`.

    CRITICAL, the Morse entropy's, weighs each atom by its ``multiplicity``;
    BETTI, the Betti number entropy's, by its ``betti_weight``.
    """

    CRITICAL = "critical"
    BETTI = "betti"

    def family(self, spec: CriticalSpectrum) -> Tuple[Tuple[Fraction, ...], Tuple[int, ...]]:
        """The values of the atoms this kind weighs and their weights, atoms of weight 0 left out."""
        critical = self is Kind.CRITICAL
        weighed = [(a.value, a.multiplicity if critical else a.betti_weight) for a in spec.atoms]
        return tuple(zip(*[(v, w) for v, w in weighed if w]))

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


class MeanDistribution(
    _ValidatedRecord,
    NamedTuple(
        "MeanDistribution",
        [("n", int), ("grid_denom", int), ("counts", Tuple[int, ...]), ("kind", Kind)],
    )
):
    """Counts of n-tuples by mean value, on the grid s / grid_denom."""

    __slots__ = ()

    def __new__(cls, n: int, grid_denom: int, counts: Tuple[int, ...], kind: Kind):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if len(counts) != grid_denom + 1:
            raise ValueError(
                f"counts length {len(counts)} does not match grid 0..{grid_denom}"
            )
        return super().__new__(cls, n, grid_denom, counts, kind)

    @property
    def total(self) -> int:
        """Total weighted tuple count (p**n or B**n for valid spectra)."""
        return sum(self.counts)


class WindowQuery(
    _ValidatedRecord,
    NamedTuple("WindowQuery", [("c", Fraction), ("delta", Fraction), ("boundary", Boundary)])
):
    """A value window [c - delta, c + delta] with an endpoint convention.

    ``c`` and ``delta`` are read by :func:`~.spectrum.as_rational`; ``delta``
    must be positive and the window must meet [0, 1].
    """

    __slots__ = ()

    def __new__(cls, c: Fraction, delta: Fraction, boundary: Boundary = Boundary.CLOSED_CLOSED):
        c, delta = as_rational(c), as_rational(delta)
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if not -delta < c < 1 + delta:
            raise ValueError(f"window around {c} +- {delta} misses [0, 1]")
        return super().__new__(cls, c, delta, boundary)


def _check_cap(spec: CriticalSpectrum, n: int, cap: Optional[int]) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    limit = DEFAULT_CAP if cap is None else cap
    grid = n * spec.denom
    if grid > limit:
        try:
            shown = str(grid)
        except ValueError:  # past CPython's digit limit for int-to-str
            shown = f"a {grid.bit_length()}-bit integer"
        raise ResourceCapError(f"sum grid n*denom = {shown} exceeds cap {limit}")


def _site_histogram(spec: CriticalSpectrum, kind: Kind) -> Tuple[int, ...]:
    site = [0] * (spec.denom + 1)
    for value, weight in zip(*kind.family(spec)):
        site[value.numerator * (spec.denom // value.denominator)] += weight
    return tuple(site)


def _miller(site: Tuple[int, ...], n: int) -> Iterator[int]:
    """The coefficients of P(x)**n, lowest first, P given by its coefficients ``site``.

    J.C.P. Miller's recurrence: with q_0 = ``site[0]`` != 0 and ``span`` =
    len(site) - 1, the coefficients of P**n satisfy
    k * q_0 * a_k = sum_j ((n + 1) * j - k) * q_j * a_(k-j),
    an exact division, summed over the nonzero q_j only, so a_k reads only
    the ``span`` coefficients before it.  Each term keeps (n + 1) * j * q_j.
    Those ``span`` coefficients are all the generator holds: ``before``
    starts as ``span`` zeros, which stand for the a_(k-j) with j > k, and
    drops its oldest as each a_k joins.  The site of a spectrum, and its
    reverse, start with the weight of an extreme atom, which is never 0.
    A one-coefficient site has span 0: its power is the one term q_0**n,
    and ``before`` is never read.
    """
    q0, span = site[0], len(site) - 1
    terms = [(-j, (n + 1) * j * q, q) for j, q in enumerate(site) if j and q]
    before = deque(repeat(0, span), maxlen=span)
    a_k = q0 ** n
    yield a_k
    for k in range(1, n * span + 1):
        before.append(a_k)
        total = 0
        for back, nq, q in terms:
            total += (nq - k * q) * before[back]
        a_k = total // (k * q0)
        yield a_k


def mean_distribution(
    spec: CriticalSpectrum,
    n: int,
    kind: Kind,
    *,
    cap: Optional[int] = None,
) -> MeanDistribution:
    """Exact mean distribution of n-tuples, as one power of the site histogram.

    The power is every coefficient of Miller's recurrence (see
    :func:`_miller`), in O(n * denom) big-integer steps per nonzero atom.
    ``n`` must be at least 1, and ``cap`` bounds the sum grid n * denom
    (default :data:`DEFAULT_CAP`); both are checked before any work, and
    exceeding the cap raises :class:`ResourceCapError`.
    To count windows, :func:`window_counts` holds far less.
    """
    _check_cap(spec, n, cap)
    counts = tuple(_miller(_site_histogram(spec, kind), n))
    return MeanDistribution(n=n, grid_denom=n * spec.denom, counts=counts, kind=kind)


def window_counts(
    spec: CriticalSpectrum,
    n: int,
    kind: Kind,
    queries: Sequence[WindowQuery],
    *,
    cap: Optional[int] = None,
) -> Tuple[int, ...]:
    """Exact count of n-tuples in each window, without building the distribution.

    Equals ``tuple(count_window(mean_distribution(spec, n, kind, cap=cap),
    q) for q in queries)``.  Miller's recurrence streams from the grid end
    nearer the windows (from the top on the reversed site, whose n-th
    power holds the coefficients in reverse order) and is summed between
    the sorted window edges, up to the farthest one.  So this holds the
    denom coefficients the recurrence reads plus one prefix sum per window
    edge.  ``n`` and the cap are checked as in :func:`mean_distribution`,
    before any work.
    """
    _check_cap(spec, n, cap)
    site = _site_histogram(spec, kind)
    grid = n * spec.denom
    spans = [window_range(query, grid) for query in queries]
    cuts = sorted({edge for span in spans if span for edge in (span.start, span.stop)})
    if not cuts:
        return (0,) * len(spans)
    if cuts[-1] > grid + 1 - cuts[0]:  # the top end is nearer: count s from it
        site = site[::-1]
        spans = [range(grid + 1 - span.stop, grid + 1 - span.start) for span in spans]
        cuts = [grid + 1 - cut for cut in reversed(cuts)]
    coeffs, below, done = _miller(site, n), {0: 0}, 0
    for cut in cuts:
        below[cut] = below[done] + sum(islice(coeffs, cut - done))
        done = cut
    return tuple(below[span.stop] - below[span.start] if span else 0 for span in spans)


def window_range(query: WindowQuery, grid_denom: int) -> range:
    """Grid indices s whose value s / grid_denom falls in the window.

    The window edges are exact fractions, so nothing is rounded.  The
    range is empty when the window misses the grid 0 .. grid_denom.
    """
    lo = max(math.ceil((query.c - query.delta) * grid_denom), 0)
    top = (query.c + query.delta) * grid_denom
    if query.boundary is Boundary.CLOSED_CLOSED:
        hi = math.floor(top)
    else:
        hi = math.ceil(top) - 1  # strict upper edge: largest s below it
    return range(lo, max(lo, min(hi, grid_denom) + 1))


def count_window(dist: MeanDistribution, query: WindowQuery) -> int:
    """Exact number of tuples whose mean falls in the window; see :func:`window_range`."""
    span = window_range(query, dist.grid_denom)
    return sum(dist.counts[span.start : span.stop])


def finite_rate(count: int, n: int) -> float:
    """Per-site log of a count; 0 maps to -inf."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return float("-inf")
    return math.log(count) / n
