"""Seeded inputs and exact references for the benchmark.

Nothing here imports ``morse_entropy``: window counts come from binomial
sums and from a Kronecker-substituted polynomial power, rate curves from
the binary entropy, and the circle partition function from the modified
Bessel function I0.  ``test_bench_references.py`` checks every routine
against brute-force tuple enumeration at tiny n.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# (value, multiplicity, betti_weight) with an exact rational value.
Atom = Tuple[Fraction, int, int]

TORUS: Tuple[Atom, ...] = ((Fraction(0), 1, 1), (Fraction(1, 2), 2, 2), (Fraction(1), 1, 1))
CIRCLE: Tuple[Atom, ...] = ((Fraction(0), 1, 1), (Fraction(1), 1, 1))


def seeded_spectrum(seed: int) -> Tuple[Atom, ...]:
    """A non-preset spectrum of 6 atoms with common denominator in [80, 90].

    Values vary with the seed; the multiplicities are a shuffle of one
    fixed multiset and exactly one interior atom has betti weight 0, so the
    cost of every op on the spectrum changes little from seed to seed.
    """
    rng = random.Random(seed)
    while True:
        target = rng.randint(80, 90)
        interior = set()
        while len(interior) < 4:
            interior.add(Fraction(rng.randint(1, target - 1), target))
        values = sorted({Fraction(0), Fraction(1)} | interior)
        if 80 <= common_denominator(values) <= 90:
            break
    mults = [1, 2, 2, 3, 3, 4]
    rng.shuffle(mults)
    no_homology = rng.randint(1, 4)
    atoms = []
    for i, (v, mult) in enumerate(zip(values, mults)):
        atoms.append((v, mult, 0 if i == no_homology else rng.randint(1, mult)))
    return tuple(atoms)


def spectrum_records(atoms: Sequence[Atom]) -> List[Dict[str, object]]:
    """The ``--spectrum-file`` JSON records for a spectrum."""
    return [{"value": str(v), "multiplicity": m, "betti_weight": b} for v, m, b in atoms]


def common_denominator(values: Sequence[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in values))


def window_range(grid: int, c: Fraction, delta: Fraction, half_open: bool) -> Tuple[int, int]:
    """Indices s with s/grid in [c - delta, c + delta] (or [.., ..) when half-open)."""
    lo = max(math.ceil((c - delta) * grid), 0)
    top = (c + delta) * grid
    hi = math.ceil(top) - 1 if half_open else math.floor(top)
    return lo, min(hi, grid)


def binomial_window_sum(total: int, lo: int, hi: int) -> int:
    """sum of C(total, s) for lo <= s <= hi, stepping C(N, s+1) from C(N, s)."""
    if hi < lo:
        return 0
    term = math.comb(total, lo)
    acc = term
    for s in range(lo, hi):
        term = term * (total - s) // (s + 1)
        acc += term
    return acc


def kronecker_coefficients(atoms: Sequence[Atom], n: int, betti: bool) -> List[int]:
    """Coefficients of P(x)**n, P the single-site histogram, via P(2**b)**n.

    Each coefficient is at most (sum of weights)**n, so b bits (rounded up
    to whole bytes) keep neighbouring coefficients from overlapping.
    """
    denom = common_denominator([v for v, _, _ in atoms])
    weights = [(int(v * denom), b if betti else m) for v, m, b in atoms]
    width = ((sum(w for _, w in weights) ** n).bit_length() + 8) // 8
    packed = sum(w << (8 * width * offset) for offset, w in weights) ** n
    raw = packed.to_bytes(width * (n * denom + 1), "little")
    return [
        int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(n * denom + 1)
    ]


def window_count(
    atoms: Sequence[Atom], n: int, betti: bool, c: Fraction, delta: Fraction, half_open: bool
) -> int:
    """Exact count of weighted n-tuples with mean in the window."""
    grid = n * common_denominator([v for v, _, _ in atoms])
    lo, hi = window_range(grid, c, delta, half_open)
    return sum(kronecker_coefficients(atoms, n, betti)[lo:hi + 1]) if hi >= lo else 0


def binary_entropy(c: float) -> float:
    """-c log c - (1-c) log(1-c), accurate for tiny c."""
    if c <= 0.0 or c >= 1.0:
        return 0.0
    return -c * math.log(c) - (1.0 - c) * math.log1p(-c)


def scaled_i0(x: float) -> float:
    """exp(-x) * I0(x) for x >= 0: power series below 30, asymptotic series above."""
    if x < 30.0:
        term, acc, k = 1.0, 1.0, 0
        while term > 1e-17 * acc:
            k += 1
            term *= (x / 2.0) ** 2 / (k * k)
            acc += term
        return acc * math.exp(-x)
    term, acc, k = 1.0, 1.0, 0
    while True:
        k += 1
        nxt = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if nxt < 1e-17 * acc or nxt > term:
            break
        term = nxt
        acc += term
    return acc / math.sqrt(2.0 * math.pi * x)


def circle_g(beta: float) -> float:
    """-log(Z)/beta for Z the circle average of exp(-beta (1 - cos t)/2).

    Z(beta) = exp(-beta/2) I0(beta/2).
    """
    return -math.log(scaled_i0(beta / 2.0)) / beta


def circle_thermo_row(beta: float) -> Tuple[float, float, float]:
    """Free energy, Gibbs mean and mass at 0 for the circle's two atoms."""
    tail = math.exp(-beta)
    return math.log1p(tail), tail / (1.0 + tail), 1.0 / (1.0 + tail)
