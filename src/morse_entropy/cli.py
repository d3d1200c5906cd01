"""Command-line interface: spectra, counts, curves, law checks, thermodynamics.

Exit codes: 0 success, 1 bad input, 2 a checked law reported violations,
3 a numeric routine failed to converge, 4 a resource limit was exceeded:
the cap, a curve grid over 16384 points, or Python's digit limit for
printing an integer (PYTHONINTMAXSTRDIGITS=0 lifts it).
The cap (largest sum grid n * denom) defaults to 16384 and is set only
with --cap.

Curve output is byte-stable: a fixed header ``c,epsilon,betti,log_p_bound``,
12 significant digits, ``-inf`` spelled literally, and newline-terminated
rows, so repeated runs diff clean.  CSV rows are written 256 at a time, so
memory does not grow with the printed text; JSON is still built whole.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterable, Iterator, List, Optional, Sequence

from .counter import (
    Boundary,
    DEFAULT_CAP,
    Kind,
    ResourceCapError,
    WindowQuery,
    window_counts,
)
from .laws import (
    LawReport,
    check_bounds_and_max,
    check_domination,
    check_fekete,
    check_superadditivity,
    random_windows,
)
from .rate import ConvergenceError, Curve, betti_curve, epsilon_curve
from .spectrum import (
    CriticalSpectrum,
    SpectrumError,
    as_rational,
    preset,
    preset_names,
    validate_spectrum,
)
from .thermo import gibbs, laplace_check


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Raise instead of exiting so run() can map parse failures to code 1.
    def error(self, message):
        raise _ArgumentError(message)


def _json_value(x: float):
    text = format(x, ".12g")  # inf, -inf and nan stay strings
    return float(text) if math.isfinite(x) else text


_CHUNK_ROWS = 256  # CSV rows per write: few syscalls, and no whole text in memory


def emit_curve(
    epsilon: Optional[Curve],
    betti: Optional[Curve],
    log_p_bound: float,
    fmt: str = "csv",
) -> str:
    """Serialise curves on a shared grid as text; see the module docstring for the format."""
    return "".join(_curve_chunks(epsilon, betti, log_p_bound, fmt))


def _curve_chunks(epsilon, betti, log_p_bound, fmt) -> Iterator[str]:
    """emit_curve's text in pieces: the CSV header, then ``_CHUNK_ROWS`` rows at a time."""
    if epsilon is None and betti is None:
        raise ValueError("need at least one curve to emit")
    if epsilon is not None and betti is not None and epsilon.grid != betti.grid:
        raise ValueError("epsilon and betti curves must share a grid")
    grid = (epsilon if epsilon is not None else betti).grid

    if fmt == "csv":
        def column(curve):
            return repeat("") if curve is None else (f"{r:.12g}" for r in curve.rates)

        if betti is epsilon:  # one curve in both columns: format each rate once
            rates = (f"{r},{r}" for r in column(epsilon))
        else:
            rates = (f"{e},{b}" for e, b in zip(column(epsilon), column(betti)))
        bound = f"{log_p_bound:.12g}"
        # c.numerator / c.denominator rounds once, as float(c) does
        rows = (
            f"{c.numerator / c.denominator:.12g},{pair},{bound}\n" for c, pair in zip(grid, rates)
        )
        yield "c,epsilon,betti,log_p_bound\n"
        while chunk := "".join(islice(rows, _CHUNK_ROWS)):
            yield chunk
        return
    if fmt == "json":
        import json

        eps = [_json_value(r) for r in epsilon.rates] if epsilon is not None else None
        bet = [_json_value(r) for r in betti.rates] if betti is not None else None
        payload = {
            "c": [_json_value(c.numerator / c.denominator) for c in grid],
            "epsilon": eps,
            "betti": bet,
            "log_p_bound": _json_value(log_p_bound),
        }
        yield json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        return
    raise ValueError(f"unknown format {fmt!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="morse-entropy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: _Parser):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", choices=preset_names(), help="built-in spectrum")
        group.add_argument("--spectrum-file", help="JSON file with value/multiplicity/betti_weight records")

    p_spec = sub.add_parser("spectrum", help="validate or dump a spectrum")
    p_spec.add_argument("action", choices=("validate", "dump"))
    add_source(p_spec)
    p_spec.add_argument("--out", help="write output to this path instead of stdout")

    p_curve = sub.add_parser("curve", help="rate curves on a uniform grid")
    add_source(p_curve)
    p_curve.add_argument("--grid", type=int, default=101, help="number of grid points (default 101)")
    p_curve.add_argument("--kind", choices=("both", "epsilon", "betti"), default="both")
    p_curve.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_curve.add_argument("--out", help="write output to this path instead of stdout")

    p_count = sub.add_parser("count", help="exact window count at one n")
    add_source(p_count)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--c", required=True, help="window centre, rational like 1/2")
    p_count.add_argument("--delta", required=True, help="window half-width, rational like 1/20")
    p_count.add_argument("--kind", choices=("critical", "betti"), default="critical")
    p_count.add_argument(
        "--boundary",
        choices=tuple(b.value for b in Boundary),
        help="endpoint convention; defaults to closed for critical, half-open for betti",
    )
    p_count.add_argument("--cap", type=int, help="maximum sum grid n*denom")

    p_verify = sub.add_parser("verify", help="run law checks and report violations")
    add_source(p_verify)
    p_verify.add_argument(
        "--suite",
        choices=("all", "domination", "superadditivity", "fekete", "bounds"),
        default="all",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n-max", type=int, default=12, help="largest n the domination check covers")
    p_verify.add_argument("--fekete-n-max", type=int, default=64)
    p_verify.add_argument("--cap", type=int, help="maximum sum grid n*denom")

    p_thermo = sub.add_parser("thermo", help="free energy and Gibbs weights over a beta grid")
    add_source(p_thermo)
    p_thermo.add_argument("--beta", required=True, help="comma-separated list, e.g. 0,1,10")
    p_thermo.add_argument("--laplace", action="store_true", help="also run the circle quadrature check")

    return parser


def _load_spectrum(args) -> CriticalSpectrum:
    if args.preset is not None:
        return preset(args.preset)
    import json

    with open(args.spectrum_file, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SpectrumError("invalid_json", f"{args.spectrum_file}: {exc}") from exc
    if not isinstance(data, list):
        raise SpectrumError("schema", "spectrum file must hold a list of records")
    raw = []
    for record in data:
        if not isinstance(record, dict) or set(record) != {"value", "multiplicity", "betti_weight"}:
            raise SpectrumError(
                "schema",
                f"each record needs exactly the keys value, multiplicity, betti_weight; got {record!r}",
            )
        raw.append((record["value"], record["multiplicity"], record["betti_weight"]))
    return validate_spectrum(raw)


def _decimal(number: int, what: str) -> str:
    """``number`` as decimal text; past CPython's digit limit, a ResourceCapError naming ``what``."""
    try:
        return str(number)
    except ValueError:
        raise ResourceCapError(
            f"the {what} has more digits than Python's limit of {sys.get_int_max_str_digits()}"
            " for printing an integer; set PYTHONINTMAXSTRDIGITS=0 to print it"
        ) from None


def _write_output(chunks: Iterable[str], out: Optional[str]) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _cmd_spectrum(args) -> int:
    spec = _load_spectrum(args)
    rows = [
        (str(a.value), _decimal(a.multiplicity, f"multiplicity at {a.value}"),
         _decimal(a.betti_weight, f"betti_weight at {a.value}"))
        for a in spec.atoms
    ]
    if args.action == "dump":  # the records as json.dumps(records, indent=2) writes them
        records = ",\n".join(
            f'  {{\n    "value": "{v}",\n    "multiplicity": {m},\n    "betti_weight": {b}\n  }}'
            for v, m, b in rows
        )
        _write_output([f"[\n{records}\n]\n"], args.out)
        return 0
    p, b, denom = _decimal(spec.p, "p"), _decimal(spec.total_betti, "B"), _decimal(spec.denom, "denom")
    lines = [f"ok atoms={len(spec.atoms)} p={p} B={b} denom={denom}", *map(" ".join, rows)]
    _write_output(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_curve(args) -> int:
    if args.grid > DEFAULT_CAP:
        raise ResourceCapError(f"curve grid of {args.grid} points exceeds the limit {DEFAULT_CAP}")
    spec = _load_spectrum(args)
    eps = epsilon_curve(spec, args.grid) if args.kind in ("both", "epsilon") else None
    if args.kind == "both" and Kind.CRITICAL.family(spec) == Kind.BETTI.family(spec):
        bet = eps  # a perfect Morse function: both curves solve one family
    else:
        bet = betti_curve(spec, args.grid) if args.kind in ("both", "betti") else None
    _write_output(_curve_chunks(eps, bet, math.log(spec.p), args.fmt), args.out)
    return 0


def _cmd_count(args) -> int:
    spec = _load_spectrum(args)
    kind = Kind(args.kind)
    boundary = kind.boundary if args.boundary is None else Boundary(args.boundary)
    query = WindowQuery(args.c, args.delta, boundary)
    (count,) = window_counts(spec, args.n, kind, [query], cap=args.cap)
    print(_decimal(count, "count"))
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spectrum(args)
    rng = random.Random(args.seed)
    reports: List[LawReport] = []

    if args.suite in ("all", "domination"):
        reports.append(check_domination(spec, args.n_max, random_windows(rng, 25)))
    if args.suite in ("all", "superadditivity"):
        draws = ([], [], [], [], [])  # n1, n2, c1, c2, delta per draw
        for _ in range(50):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            c1 = Fraction(rng.randint(0, 60), 60)
            c2 = Fraction(rng.randint(0, 60), 60)
            delta = Fraction(rng.randint(1, 20), 40)
            for column, value in zip(draws, (n1, n2, c1, c2, delta)):
                column.append(value)
        reports.append(check_superadditivity(spec, *draws))
    if args.suite in ("all", "fekete"):
        centres = (Fraction(1, 2), Fraction(1, 4))
        reports.append(check_fekete(spec, centres, Fraction(1, 10), args.fekete_n_max, cap=args.cap))
    if args.suite in ("all", "bounds"):
        reports.append(check_bounds_and_max(spec, 21))

    lines = []  # all formatted before any is printed: a number too long to print exits 4
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        instances = _decimal(report.instances_checked, "instance count")
        lines.append((sys.stdout, f"{status} {report.law} instances={instances} violations={len(report.violations)}"))
        for violation in report.violations[:5]:
            detail = " ".join(f"{k}={v}" for k, v in violation.inputs)
            lines.append((sys.stderr, f"  {detail} lhs={violation.lhs} rhs={violation.rhs}"))
    for stream, line in lines:
        print(line, file=stream)
    return 0 if all(report.passed for report in reports) else 2


def _parse_betas(text: str) -> List[float]:
    betas = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            beta = float(token)
        except ValueError:
            try:
                beta = float(as_rational(token))
            except OverflowError:  # a rational too large for a float
                beta = math.inf
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {token}")
        betas.append(beta)
    if not betas:
        raise ValueError("empty beta list")
    return betas


def _cmd_thermo(args) -> int:
    spec = _load_spectrum(args)
    betas = _parse_betas(args.beta)
    # a bad Laplace grid or an unsettled quadrature raises before any row is printed
    report = laplace_check(betas) if args.laplace else None
    print("beta,free_energy,gibbs_mean,mass_at_value_0")
    for beta in betas:
        state = gibbs(spec, beta)
        print(f"{beta:.12g},{state.free_energy:.12g},{state.mean:.12g},{state.p[0]:.12g}")
    if report is not None:
        print("beta,g,points")
        for row in report.rows:
            print(f"{row.beta:.12g},{row.g:.12g},{row.points}")
        if report.violations:
            print("laplace FAIL", file=sys.stderr)
            for violation in report.violations:
                print(f"  {violation}", file=sys.stderr)
            return 2
        print("laplace PASS")
    return 0


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "curve": _cmd_curve,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "thermo": _cmd_thermo,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, execute, and map failures to the exit-code contract."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return 0 if exc.code in (None, 0) else 1

    try:
        return _DISPATCH[args.command](args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
