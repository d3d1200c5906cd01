"""Command-line interface: spectra, counts, curves, law checks, thermodynamics.

Exit codes: 0 success, 1 bad input, 2 a checked law reported violations,
3 a numeric routine failed to converge, 4 a resource limit was exceeded:
the cap, or Python's digit limit for printing a count
(PYTHONINTMAXSTRDIGITS=0 lifts it).
The cap (largest sum grid n * denom) defaults to 16384 and can be set
with --cap or the MORSE_ENTROPY_CAP environment variable; the flag wins.

Curve output is byte-stable: a fixed header ``c,epsilon,betti,log_p_bound``,
12 significant digits, ``-inf`` spelled literally, and newline-terminated
rows, so repeated runs diff clean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .counter import (
    Boundary,
    DEFAULT_CAP,
    Kind,
    ResourceCapError,
    WindowQuery,
    count_window,
    mean_distribution,
)
from .laws import (
    LawReport,
    check_bounds_and_max,
    check_domination,
    check_fekete,
    check_superadditivity,
    merge_reports,
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


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every subcommand."""

    command: str
    preset: Optional[str]
    spectrum_file: Optional[str]
    out: Optional[str]
    fmt: str
    seed: int
    cap: int


def _fmt12(x: float) -> str:
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".12g")


def _json_value(x: float):
    if math.isfinite(x):
        return float(format(x, ".12g"))
    return _fmt12(x)


def emit_curve(
    epsilon: Optional[Curve],
    betti: Optional[Curve],
    log_p_bound: float,
    fmt: str = "csv",
) -> bytes:
    """Serialise curves on a shared grid; see the module docstring for the format."""
    if epsilon is None and betti is None:
        raise ValueError("need at least one curve to emit")
    if epsilon is not None and betti is not None and epsilon.grid != betti.grid:
        raise ValueError("epsilon and betti curves must share a grid")
    grid = (epsilon if epsilon is not None else betti).grid

    if fmt == "csv":
        lines = ["c,epsilon,betti,log_p_bound"]
        for i, c in enumerate(grid):
            lines.append(
                ",".join(
                    (
                        _fmt12(float(c)),
                        _fmt12(epsilon.rates[i]) if epsilon is not None else "",
                        _fmt12(betti.rates[i]) if betti is not None else "",
                        _fmt12(log_p_bound),
                    )
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        payload = {
            "c": [_json_value(float(c)) for c in grid],
            "epsilon": [_json_value(r) for r in epsilon.rates] if epsilon is not None else None,
            "betti": [_json_value(r) for r in betti.rates] if betti is not None else None,
            "log_p_bound": _json_value(log_p_bound),
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
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
    p_verify.add_argument("--n-max", type=int, default=12, help="largest n for domination sweeps")
    p_verify.add_argument("--windows", type=int, default=25, help="windows per domination sweep")
    p_verify.add_argument("--instances", type=int, default=50, help="superadditivity draws")
    p_verify.add_argument("--grid-points", type=int, default=21, help="grid for the bounds check")
    p_verify.add_argument("--fekete-n-max", type=int, default=64)
    p_verify.add_argument("--cap", type=int, help="maximum sum grid n*denom")

    p_thermo = sub.add_parser("thermo", help="free energy and Gibbs weights over a beta grid")
    add_source(p_thermo)
    p_thermo.add_argument("--beta", required=True, help="comma-separated list, e.g. 0,1,10")
    p_thermo.add_argument("--laplace", action="store_true", help="also run the circle quadrature check")
    p_thermo.add_argument("--quad-points", type=int, default=256)

    return parser


def _resolve_cap(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("MORSE_ENTROPY_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MORSE_ENTROPY_CAP must be an integer, got {env!r}") from None
    return DEFAULT_CAP


def _load_spectrum(config: RunConfig) -> CriticalSpectrum:
    if config.preset is not None:
        return preset(config.preset)
    with open(config.spectrum_file, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpectrumError("invalid_json", f"{config.spectrum_file}: {exc}") from exc
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


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_spectrum(config: RunConfig, args) -> int:
    spec = _load_spectrum(config)
    if args.action == "dump":
        records = [
            {
                "value": str(a.value),
                "multiplicity": a.multiplicity,
                "betti_weight": a.betti_weight,
            }
            for a in spec.atoms
        ]
        _write_output(json.dumps(records, indent=2) + "\n", config.out)
        return 0
    lines = [f"ok atoms={len(spec.atoms)} p={spec.p} B={spec.total_betti} denom={spec.denom}"]
    for a in spec.atoms:
        lines.append(f"{a.value} {a.multiplicity} {a.betti_weight}")
    _write_output("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_curve(config: RunConfig, args) -> int:
    spec = _load_spectrum(config)
    eps = epsilon_curve(spec, args.grid) if args.kind in ("both", "epsilon") else None
    bet = betti_curve(spec, args.grid) if args.kind in ("both", "betti") else None
    for curve in (eps, bet):
        if curve is not None and any(math.isnan(r) for r in curve.rates):
            raise ConvergenceError("rate solver failed to converge on the grid")
    data = emit_curve(eps, bet, math.log(spec.p), config.fmt)
    if config.out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(config.out, "wb") as handle:
            handle.write(data)
    return 0


def _cmd_count(config: RunConfig, args) -> int:
    spec = _load_spectrum(config)
    kind = Kind.CRITICAL if args.kind == "critical" else Kind.BETTI
    if args.boundary is None:
        boundary = Boundary.CLOSED_CLOSED if kind is Kind.CRITICAL else Boundary.CLOSED_OPEN
    else:
        boundary = Boundary(args.boundary)
    query = WindowQuery(as_rational(args.c), as_rational(args.delta), boundary)
    count = count_window(mean_distribution(spec, args.n, kind, cap=config.cap), query)
    try:
        text = str(count)
    except ValueError:  # CPython's int-to-str digit limit
        raise ResourceCapError(
            f"the count has more digits than Python's limit of {sys.get_int_max_str_digits()}"
            " for printing an integer; set PYTHONINTMAXSTRDIGITS=0 to print it"
        ) from None
    print(text)
    return 0


def _cmd_verify(config: RunConfig, args) -> int:
    spec = _load_spectrum(config)
    rng = random.Random(config.seed)
    reports: List[LawReport] = []

    if args.suite in ("all", "domination"):
        reports.append(
            check_domination(spec, args.n_max, random_windows(rng, args.windows), cap=config.cap)
        )
    if args.suite in ("all", "superadditivity"):
        parts = []
        for _ in range(args.instances):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            c1 = Fraction(rng.randint(0, 60), 60)
            c2 = Fraction(rng.randint(0, 60), 60)
            delta = Fraction(rng.randint(1, 20), 40)
            parts.append(check_superadditivity(spec, n1, n2, c1, c2, delta, cap=config.cap))
        reports.append(merge_reports(*parts))
    if args.suite in ("all", "fekete"):
        centres = (Fraction(1, 2), Fraction(1, 4))
        reports.append(check_fekete(spec, centres, Fraction(1, 10), args.fekete_n_max, cap=config.cap))
    if args.suite in ("all", "bounds"):
        reports.append(check_bounds_and_max(spec, args.grid_points))

    failed = False
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.law} instances={report.instances_checked} violations={len(report.violations)}")
        for violation in report.violations[:5]:
            detail = " ".join(f"{k}={v}" for k, v in violation.inputs)
            print(f"  {detail} lhs={violation.lhs} rhs={violation.rhs}", file=sys.stderr)
        failed = failed or not report.passed
    return 2 if failed else 0


def _parse_betas(text: str) -> List[float]:
    betas = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            betas.append(float(token))
        except ValueError:
            betas.append(float(as_rational(token)))
    if not betas:
        raise ValueError("empty beta list")
    return betas


def _cmd_thermo(config: RunConfig, args) -> int:
    spec = _load_spectrum(config)
    betas = _parse_betas(args.beta)
    print("beta,free_energy,gibbs_mean,mass_at_value_0")
    for beta in betas:
        state = gibbs(spec, beta)
        print(
            ",".join(
                (
                    _fmt12(beta),
                    _fmt12(state.free_energy),
                    _fmt12(state.mean_value(spec)),
                    _fmt12(state.p[0]),
                )
            )
        )
    if args.laplace:
        report = laplace_check(betas, args.quad_points)
        print("beta,g,points")
        for row in report.rows:
            print(",".join((_fmt12(row.beta), _fmt12(row.g), str(row.points))))
        if not report.converged:
            print("laplace FAIL (quadrature unsettled)", file=sys.stderr)
            return 3
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
        config = RunConfig(
            command=args.command,
            preset=getattr(args, "preset", None),
            spectrum_file=getattr(args, "spectrum_file", None),
            out=getattr(args, "out", None),
            fmt=getattr(args, "fmt", "csv"),
            seed=getattr(args, "seed", 0),
            cap=_resolve_cap(getattr(args, "cap", None)) if hasattr(args, "cap") else DEFAULT_CAP,
        )
        return _DISPATCH[args.command](config, args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpectrumError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
