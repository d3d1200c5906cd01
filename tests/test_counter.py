"""Exact mean distributions and window counts, pinned to brute force."""

import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morse_entropy import (
    DEFAULT_CAP,
    Boundary,
    Kind,
    MeanDistribution,
    ResourceCapError,
    WindowQuery,
    check_fekete,
    count_window,
    finite_rate,
    mean_distribution,
    preset,
    validate_spectrum,
)
from morse_entropy import counter
from morse_entropy.counter import _miller, _site_histogram, window_counts, window_range
from _oracles import _convolve, _sweep, brute_window_count, random_spectrum, tuple_mean_counts

CIRCLE = preset("circle")
TORUS = preset("torus")


def test_circle_two_copies_critical_counts():
    # enumeration oracle: (0,0) -> 0, (0,1) and (1,0) -> 1/2, (1,1) -> 1
    dist = mean_distribution(CIRCLE, 2, Kind.CRITICAL)
    assert dist.counts == (1, 2, 1)
    assert dist.grid_denom == 2
    assert dist.total == CIRCLE.p ** 2


def test_single_copy_is_the_site_histogram():
    dist = mean_distribution(TORUS, 1, Kind.CRITICAL)
    assert dist.counts == (1, 2, 1)
    assert mean_distribution(TORUS, 1, Kind.BETTI).counts == (1, 2, 1)


def test_matches_enumeration_on_presets():
    for spec in (CIRCLE, TORUS):
        for kind in Kind:
            for n in range(1, 6):
                dist = mean_distribution(spec, n, kind)
                expected = tuple_mean_counts(spec, n, kind)
                for s, count in enumerate(dist.counts):
                    assert count == expected.get(Fraction(s, dist.grid_denom), 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4), kind=st.sampled_from(Kind))
def test_matches_enumeration_on_random_spectra(seed, n, kind):
    spec = random_spectrum(random.Random(seed))
    dist = mean_distribution(spec, n, kind, cap=1 << 20)
    expected = tuple_mean_counts(spec, n, kind)
    assert dist.total == sum(expected.values())
    for s, count in enumerate(dist.counts):
        assert count == expected.get(Fraction(s, dist.grid_denom), 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
def test_mass_identity(seed, n):
    spec = random_spectrum(random.Random(seed))
    crit = mean_distribution(spec, n, Kind.CRITICAL, cap=1 << 20)
    bet = mean_distribution(spec, n, Kind.BETTI, cap=1 << 20)
    assert crit.total == spec.p ** n
    assert bet.total == spec.total_betti ** n
    assert crit.counts[0] >= 1 and crit.counts[-1] >= 1
    assert bet.counts[0] >= 1 and bet.counts[-1] >= 1
    # pointwise domination on the shared grid
    assert all(b <= c for b, c in zip(bet.counts, crit.counts))


def test_window_count_examples():
    dist = mean_distribution(CIRCLE, 2, Kind.CRITICAL)
    assert count_window(dist, WindowQuery(Fraction(1, 2), Fraction(1, 4))) == 2
    # whole space
    assert count_window(dist, WindowQuery(Fraction(1, 2), Fraction(1, 2))) == 4
    # empty window between grid points
    assert count_window(dist, WindowQuery(Fraction(1, 5), Fraction(1, 100))) == 0

    betti = mean_distribution(CIRCLE, 2, Kind.BETTI)
    assert (
        count_window(
            betti, WindowQuery(Fraction(1, 2), Fraction(1, 2), Boundary.CLOSED_OPEN)
        )
        == 3
    )


def test_boundary_conventions_differ_exactly_on_grid_edges():
    dist = mean_distribution(CIRCLE, 2, Kind.CRITICAL)
    # upper edge lands on the grid: closed keeps mean 1/2, half-open drops it
    closed = count_window(dist, WindowQuery(Fraction(1, 4), Fraction(1, 4)))
    half = count_window(
        dist, WindowQuery(Fraction(1, 4), Fraction(1, 4), Boundary.CLOSED_OPEN)
    )
    assert closed == 3
    assert half == 1
    # lower edge is closed under both conventions
    at_zero = count_window(
        dist, WindowQuery(Fraction(0), Fraction(1, 2), Boundary.CLOSED_OPEN)
    )
    assert at_zero == 1


def test_windows_clip_to_the_grid():
    dist = mean_distribution(CIRCLE, 2, Kind.CRITICAL)
    assert count_window(dist, WindowQuery(Fraction(0), Fraction(3, 4))) == 3
    assert count_window(dist, WindowQuery(Fraction(1), Fraction(3, 4))) == 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    n=st.integers(1, 4),
    kind=st.sampled_from(Kind),
    c_num=st.integers(0, 24),
    d_num=st.integers(1, 12),
    half=st.booleans(),
)
def test_window_count_matches_brute_force(seed, n, kind, c_num, d_num, half):
    spec = random_spectrum(random.Random(seed))
    c, delta = Fraction(c_num, 24), Fraction(d_num, 24)
    dist = mean_distribution(spec, n, kind, cap=1 << 20)
    boundary = Boundary.CLOSED_OPEN if half else Boundary.CLOSED_CLOSED
    got = count_window(dist, WindowQuery(c, delta, boundary))
    assert got == brute_window_count(spec, n, kind, c, delta, half)


def test_convolution_splits_across_copy_counts():
    # counts for a+b copies = convolution of the a- and b-copy counts
    for spec in (CIRCLE, TORUS):
        for a, b in ((1, 1), (2, 3), (4, 2)):
            left = mean_distribution(spec, a, Kind.CRITICAL).counts
            right = mean_distribution(spec, b, Kind.CRITICAL).counts
            conv = [0] * (len(left) + len(right) - 1)
            for i, x in enumerate(left):
                for j, y in enumerate(right):
                    conv[i + j] += x * y
            assert tuple(conv) == mean_distribution(spec, a + b, Kind.CRITICAL).counts


def test_unit_floor_at_exact_grid_centres():
    for n in (1, 5, 12):
        dist = mean_distribution(TORUS, n, Kind.BETTI)
        for k in range(n + 1):
            query = WindowQuery(
                Fraction(k, n), Fraction(1, 2 * n), Boundary.CLOSED_OPEN
            )
            assert count_window(dist, query) >= 1


def test_finite_rate():
    import math

    assert finite_rate(0, 7) == float("-inf")
    assert finite_rate(1, 3) == 0.0
    assert finite_rate(2 ** 64, 64) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(ValueError):
        finite_rate(-1, 3)
    with pytest.raises(ValueError):
        finite_rate(5, 0)


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        mean_distribution(CIRCLE, 32, Kind.CRITICAL, cap=31)
    # n * denom, not n, is what the cap bounds
    mean_distribution(TORUS, 16, Kind.CRITICAL, cap=32)
    with pytest.raises(ResourceCapError):
        mean_distribution(TORUS, 17, Kind.CRITICAL, cap=32)


def test_cap_rejects_before_computing():
    with pytest.raises(ResourceCapError):
        mean_distribution(CIRCLE, 1 << 30, Kind.CRITICAL)
    with pytest.raises(ResourceCapError):
        window_counts(CIRCLE, 1 << 30, Kind.CRITICAL, [WindowQuery(Fraction(1, 2), Fraction(1, 4))])


def _assert_three_way(spec, kind, n_max):
    """Miller recurrence, rolling sweep and tuple enumeration give one answer."""
    swept = list(_sweep(spec, kind, n_max, 1 << 20))
    assert len(swept) == n_max
    for n, counts in enumerate(swept, 1):
        grid = n * spec.denom
        assert mean_distribution(spec, n, kind, cap=1 << 20) == (n, grid, counts, kind)
        expected = tuple_mean_counts(spec, n, kind)
        assert counts == tuple(expected.get(Fraction(s, grid), 0) for s in range(grid + 1))


def test_recurrence_sweep_and_enumeration_agree_on_presets():
    for spec in (CIRCLE, TORUS):
        for kind in Kind:
            _assert_three_way(spec, kind, 9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(Kind))
def test_recurrence_sweep_and_enumeration_agree_on_random_spectra(seed, kind):
    _assert_three_way(random_spectrum(random.Random(seed)), kind, 4)


def _assert_power_matches_sweep(site, n_max):
    counts = (1,)
    for n in range(1, n_max + 1):
        counts = _convolve(counts, site)
        assert tuple(_miller(site, n)) == counts, (site, n)


def test_miller_power_matches_the_convolution_sweep():
    # the next nonzero offset after q0 = 3 is 3, so for k < 3 the sum reads
    # only the zeros ahead of a_0
    _assert_power_matches_sweep((3, 0, 0, 2, 0, 5, 1), 40)
    # span 0, and a site whose only nonzero coefficient is q0
    for site in ((5,), (2, 0, 0)):
        _assert_power_matches_sweep(site, 40)
    for seed in range(6):
        spec = random_spectrum(random.Random(seed))
        for kind in Kind:
            site = _site_histogram(spec, kind)
            _assert_power_matches_sweep(site, 40)
            _assert_power_matches_sweep(site[::-1], 40)


def test_closed_forms_at_the_default_cap():
    # torus: (1 + 2x + x^2)^n = (1 + x)^(2n); circle: (1 + x)^n
    size = DEFAULT_CAP
    binomials = [1]
    for s in range(size):
        binomials.append(binomials[-1] * (size - s) // (s + 1))
    for s in (0, 1, 777, size // 2, size - 1, size):
        assert binomials[s] == math.comb(size, s)
    torus = mean_distribution(TORUS, DEFAULT_CAP // TORUS.denom, Kind.CRITICAL)
    assert torus.n == 8192
    assert list(torus.counts) == binomials
    circle = mean_distribution(CIRCLE, DEFAULT_CAP // CIRCLE.denom, Kind.BETTI)
    assert circle.n == 16384
    assert list(circle.counts) == binomials


def test_memory_holds_one_distribution():
    # Allocation guard, not a timing assert: a cache of every n' <= n
    # peaks near 14 MB and 1.2 GB on these two calls.
    mb = 1 << 20
    tracemalloc.start()
    try:
        check_fekete(TORUS, Fraction(1, 2), Fraction(1, 10), 400)
        fekete_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mean_distribution(TORUS, 2048, Kind.CRITICAL)
        power_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fekete_peak < 2 * mb
    assert power_peak < 16 * mb


def test_concurrent_queries_agree():
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            pool.submit(mean_distribution, CIRCLE, 64, Kind.CRITICAL) for _ in range(6)
        ]
        results = [future.result(timeout=60).counts for future in futures]
    assert all(r == results[0] for r in results)
    assert sum(results[0]) == 2 ** 64


def _fraction_range(query, grid_denom):
    """``window_range`` as rational arithmetic on the window edges."""
    lo = max(math.ceil((query.c - query.delta) * grid_denom), 0)
    hi_edge = (query.c + query.delta) * grid_denom
    if query.boundary is Boundary.CLOSED_CLOSED:
        hi = math.floor(hi_edge)
    else:
        hi = math.ceil(hi_edge) - 1
    return range(lo, max(lo, min(hi, grid_denom) + 1))


def test_window_range_equals_the_rational_formula():
    rng = random.Random(5)
    cases = []
    for _ in range(3000):
        grid = rng.randint(1, 400)
        c = Fraction(rng.randint(-40, 160), rng.randint(1, 120))
        delta = Fraction(rng.randint(1, 90), rng.randint(1, 120))
        cases.append((grid, c, delta))
    # edges exactly on grid points, and windows hanging past 0 or 1
    for grid in (1, 2, 7, 12, 60):
        for s in range(grid + 1):
            cases += [
                (grid, Fraction(s, grid), Fraction(1, grid)),
                (grid, Fraction(s, grid), Fraction(s + 1, grid)),
                (grid, Fraction(2 * s + 1, 2 * grid), Fraction(1, 2 * grid)),
            ]
    cases += [
        (10, Fraction(0), Fraction(3)),
        (10, Fraction(1), Fraction(1, 10)),
        (9, Fraction(-1, 4), Fraction(1, 3)),
    ]
    checked = 0
    for grid, c, delta in cases:
        for boundary in Boundary:
            try:
                query = WindowQuery(c, delta, boundary)
            except ValueError:
                continue  # the window misses [0, 1]
            checked += 1
            assert window_range(query, grid) == _fraction_range(query, grid), (query, grid)
    assert checked > 4000


def _probe_queries(rng, count):
    """Windows of every width in both conventions, some past the grid, some empty."""
    queries = []
    while len(queries) < count:
        c = Fraction(rng.randint(-30, 150), 120)
        delta = Fraction(1, rng.choice((1, 2, 5, 16, 61, 400, 5000)))
        try:
            queries.append(WindowQuery(c, delta, rng.choice(list(Boundary))))
        except ValueError:
            pass
    return queries


def _assert_window_counts_match(spec, n, kind, queries):
    dist = mean_distribution(spec, n, kind, cap=1 << 22)
    expected = tuple(count_window(dist, query) for query in queries)
    assert window_counts(spec, n, kind, queries, cap=1 << 22) == expected, (spec, n, kind)


def test_window_counts_equal_counts_of_the_full_distribution():
    rng = random.Random(3)
    spectra = [CIRCLE, TORUS]
    spectra += [random_spectrum(random.Random(seed)) for seed in range(12)]
    for spec in spectra:
        for kind in Kind:
            for n in (1, 2, 3, rng.randint(4, 40), rng.randint(200, 600)):
                _assert_window_counts_match(spec, n, kind, _probe_queries(rng, 8))
                _assert_window_counts_match(spec, n, kind, _probe_queries(rng, 1))
    # an empty window (between two grid points), alone and among others
    gap = WindowQuery(Fraction(1, 4), Fraction(1, 100))
    assert window_counts(CIRCLE, 1, Kind.CRITICAL, [gap]) == (0,)
    top = WindowQuery(Fraction(1), Fraction(1, 4))
    assert window_counts(CIRCLE, 2, Kind.CRITICAL, [gap, top]) == (0, 1)
    assert window_counts(CIRCLE, 2, Kind.CRITICAL, []) == ()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 60), kind=st.sampled_from(Kind))
def test_window_counts_equal_counts_on_random_spectra(seed, n, kind):
    rng = random.Random(seed)
    _assert_window_counts_match(random_spectrum(rng), n, kind, _probe_queries(rng, 5))


def test_window_counts_run_from_the_nearer_grid_end(monkeypatch):
    sites = []
    miller = counter._miller

    def recorded(site, n):
        sites.append(site)
        return miller(site, n)

    monkeypatch.setattr(counter, "_miller", recorded)
    spec = random_spectrum(random.Random(4))
    site = _site_histogram(spec, Kind.CRITICAL)
    assert site != site[::-1]
    low = WindowQuery(Fraction(1, 5), Fraction(1, 10))
    high = WindowQuery(Fraction(4, 5), Fraction(1, 10))
    for queries, route in (([low], site), ([high], site[::-1]), ([low, high], site)):
        _assert_window_counts_match(spec, 300, Kind.CRITICAL, queries)
        assert sites[-1] == route
    # the top route on a BETTI site with zero weight next to both ends
    spec = validate_spectrum([(0, 1, 1), (Fraction(1, 6), 2, 0), (Fraction(5, 6), 3, 0), (1, 2, 2)])
    _assert_window_counts_match(spec, 50, Kind.BETTI, [high])
    assert sites[-1] == _site_histogram(spec, Kind.BETTI)[::-1] == (2, 0, 0, 0, 0, 0, 1)


def test_window_counts_check_n_and_the_cap_before_any_work(monkeypatch):
    monkeypatch.setattr(counter, "_miller", None)  # any call would raise TypeError
    query = WindowQuery(Fraction(1, 2), Fraction(1, 16))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        window_counts(TORUS, 0, Kind.CRITICAL, [query])
    with pytest.raises(ResourceCapError, match="sum grid n\\*denom = 16386 exceeds cap 16384"):
        window_counts(TORUS, 8193, Kind.CRITICAL, [query])
    with pytest.raises(ResourceCapError, match="= 34 exceeds cap 32"):
        window_counts(TORUS, 17, Kind.CRITICAL, [query], cap=32)


def test_window_count_holds_a_span_of_coefficients():
    # Allocation guard, not a timing assert: the full distribution behind
    # this count (torus, n = 8192, at the default cap) takes about 25 MB,
    # and holding 256 coefficients of about 2 KB each beyond the span of 2
    # peaks near 569 KB; the span alone peaks near 18 KB.
    query = WindowQuery(Fraction(1, 2), Fraction(1, 16))
    tracemalloc.start()
    try:
        (count,) = window_counts(TORUS, 8192, Kind.CRITICAL, [query])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    term, total = math.comb(16384, 7168), 0
    for s in range(7168, 9217):  # the binomials C(16384, s) inside the window
        total += term
        term = term * (16384 - s) // (s + 1)
    assert count == total
    assert peak < 64 << 10


def test_window_query_validation():
    with pytest.raises(ValueError):
        WindowQuery(Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        WindowQuery(Fraction(1, 2), Fraction(-1, 4))
    with pytest.raises(ValueError):
        WindowQuery(Fraction(2), Fraction(1, 2))  # entirely above [0, 1]
    with pytest.raises(ValueError):
        WindowQuery(Fraction(-2), Fraction(1, 2))
    with pytest.raises(ValueError):
        WindowQuery(0.5, Fraction(1, 4))  # floats are not exact
    # rational strings are fine
    q = WindowQuery("1/2", "1/4")
    assert q.c == Fraction(1, 2) and q.delta == Fraction(1, 4)


def test_mean_distribution_structure_checks():
    with pytest.raises(ValueError):
        MeanDistribution(n=0, grid_denom=0, counts=(1,), kind=Kind.CRITICAL)
    with pytest.raises(ValueError):
        MeanDistribution(n=2, grid_denom=2, counts=(1, 2), kind=Kind.CRITICAL)
    with pytest.raises(ValueError):
        mean_distribution(CIRCLE, 0, Kind.CRITICAL)


def test_distributions_for_invalid_bypassed_spectra_still_count():
    # No spectrum holds these weights, but Miller's recurrence counts their
    # sites all the same: betti weight 3 above multiplicity 1 at 1/2, and a
    # weight of -1 there, whose powers have coefficients of either sign.
    # The division stays exact for signed coefficients since q0 != 0.
    assert tuple(_miller((1, 3, 1), 1)) == (1, 3, 1)
    assert tuple(_miller((1, 3, 1), 2)) == (1, 6, 11, 6, 1)
    for site in ((1, 3, 1), (1, -1, 1), (-2, 0, 3, -1)):
        _assert_power_matches_sweep(site, 40)
        _assert_power_matches_sweep(site[::-1], 40)
