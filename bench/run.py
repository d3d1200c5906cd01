#!/usr/bin/env python3
"""Benchmark for morse-entropy: three CLI workloads with checked outputs.

Run from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

NAME is ``count_oneshot``, ``verify_sweep``, ``curve_dense`` or ``all``.
Each workload is a closed loop: this process runs its list of CLI
operations one child interpreter at a time (``python -m morse_entropy``
with ``PYTHONPATH=src``), each child under a 2 GiB address-space limit,
and repeats the list while S seconds last.  Every output is checked
against a reference computed before the timed passes (``references.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (median over passes of the summed spawn-to-reap times),
``peak_rss_mb`` (median over passes of the largest child ``ru_maxrss``)
and ``setup_s`` (median of several children that start the interpreter,
import the package and validate the seeded spectrum).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics:
span self times and counts from ``tracer.py``, medians over traced passes.

After each workload's summary lines comes one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, so the last line of
standard output is always a result.  An op fails when
it exits with an unexpected code, is killed, prints a traceback or fails
its check; ``correct`` is false only when an op delivered a wrong answer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import references as refs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MEMORY_LIMIT = 2 * 1024**3
CPU_LIMIT_S = 120
SETUP_PER_PASS = 3
# The CLI's default cap on n*D; the seeded count op uses the largest n within it.
COUNT_GRID = 16384
THERMO_BETAS = "10,100,1000,10000,100000,1000000"

WORKLOADS = ("count_oneshot", "verify_sweep", "curve_dense")


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


@dataclass
class Op:
    """A CLI invocation, or with ``library`` a ``child.py`` mode (args[0])."""

    name: str
    args: List[str]
    # Returns None when the output is right, else (wrong_answer, reason).
    check: Callable[[Outcome], Optional[Tuple[bool, str]]]
    library: bool = False


@dataclass
class PassResult:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    setup_s: List[float] = field(default_factory=list)
    per_op: Dict[str, Outcome] = field(default_factory=dict)
    reasons: List[str] = field(default_factory=list)
    traces: List[dict] = field(default_factory=list)


class Children:
    """Runs child interpreters one at a time through ``launcher.py``.

    Each child gets the address-space and CPU limits, ``PYTHONPATH=src``
    and the default cap, and writes its stdout and stderr to files in
    ``work``.  Its rusage comes from its own ``wait4`` in the launcher.
    """

    def __init__(self, work: Path):
        self.work = work
        self._env = dict(os.environ, PYTHONPATH=str(SRC))
        self._env.pop("MORSE_ENTROPY_CAP", None)
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def spawn(self, argv: List[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        job = {
            "argv": [sys.executable, *argv], "env": self._env, "cwd": str(ROOT),
            "stdout": str(out_path), "stderr": str(err_path),
            "memory_limit": MEMORY_LIMIT, "cpu_limit": CPU_LIMIT_S,
        }
        self._launcher.stdin.write(json.dumps(job) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise SystemExit("launcher process ended unexpectedly")
        code, maxrss_kb, wall = json.loads(reply)
        return Outcome(
            code=code,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            wall_s=wall,
            maxrss_mb=maxrss_kb / 1024.0,
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()


def _op_argv(op: Op, trace_path: Optional[Path]) -> List[str]:
    if trace_path is None and not op.library:
        return ["-m", "morse_entropy", *op.args]
    child = [str(BENCH / "child.py")]
    if trace_path is not None:
        child += ["--trace", str(trace_path)]
    return [*child, *(op.args if op.library else ["cli", *op.args])]


# ---------------------------------------------------------------- checks


def _crashed(out: Outcome) -> Optional[str]:
    if out.code < 0:
        return f"killed by signal {-out.code}"
    if "Traceback (most recent call last)" in out.stderr:
        return f"traceback: {out.stderr.strip().splitlines()[-1]}"
    return None


def check_count(expected: int, cap_edge: bool):
    def check(out: Outcome):
        if out.code == 0:
            got = out.stdout.strip()
            return None if got == str(expected) else (True, f"count {got[:40]} != reference")
        if cap_edge and out.code == 4 and out.stderr.startswith("error:"):
            return None
        return False, _crashed(out) or f"exit {out.code}"
    return check


def check_setup(out: Outcome):
    return None if out.code == 0 and out.stdout.startswith("ok atoms=") else (False, "setup")


def check_exit_0(out: Outcome):
    return None if out.code == 0 else (False, _crashed(out) or f"exit {out.code}")


PROBE = Op("layer_probe", ["probe"], check_exit_0, library=True)


def check_verify(out: Outcome):
    lines = out.stdout.splitlines()
    if out.code in (0, 2) and lines:
        failing = [line for line in lines if not line.startswith("PASS ")]
        if out.code == 0 and not failing and len(lines) == 4:
            return None
        return True, f"law report: {(failing or lines)[0]}"
    return False, _crashed(out) or f"exit {out.code}"


def check_curve(grid: int, epsilon: List[float], betti: List[float], log_p: float, tol: float):
    def check(out: Outcome):
        if out.code != 0:
            return False, _crashed(out) or f"exit {out.code}"
        lines = out.stdout.splitlines()
        if lines[:1] != ["c,epsilon,betti,log_p_bound"] or len(lines) != grid + 1:
            return True, "curve header or row count"
        for j, line in enumerate(lines[1:]):
            c, eps, bet, bound = (float(x) for x in line.split(","))
            if (abs(c - j / (grid - 1)) > 1e-11 or abs(eps - epsilon[j]) > tol
                    or abs(bet - betti[j]) > tol or abs(bound - log_p) > 1e-11):
                return True, f"curve row {j}: {line}"
        return None
    return check


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) + 1e-300


def check_thermo(out: Outcome):
    if out.code != 0:
        return False, _crashed(out) or f"exit {out.code}"
    betas = [float(b) for b in THERMO_BETAS.split(",")]
    lines = out.stdout.splitlines()
    rows = len(betas)
    if (len(lines) != 2 * rows + 3 or lines[0] != "beta,free_energy,gibbs_mean,mass_at_value_0"
            or lines[rows + 1] != "beta,g,points" or lines[-1] != "laplace PASS"):
        return True, "thermo layout"
    for beta, line in zip(betas, lines[1:rows + 1]):
        got_beta, got_f, got_mean, got_mass = (float(x) for x in line.split(","))
        free_energy, mean, mass = refs.circle_thermo_row(beta)
        # The free energy is a log, checked absolutely like the rate curves;
        # the Gibbs weights are probabilities, checked relatively.
        if not (_close(got_beta, beta, 1e-11) and abs(got_f - free_energy) <= 1e-12
                and _close(got_mean, mean, 1e-9) and _close(got_mass, mass, 1e-9)):
            return True, f"thermo row {line}"
    for beta, line in zip(betas, lines[rows + 2:-1]):
        b, g, points = line.split(",")
        if not (_close(float(b), beta, 1e-11) and _close(float(g), refs.circle_g(beta), 1e-8)
                and int(points) >= 256):
            return True, f"laplace row {line} (exact g {refs.circle_g(beta):.12g})"
    return None


def _entropy_curve(scale: float, grid: int) -> List[float]:
    return [scale * refs.binary_entropy(j / (grid - 1)) for j in range(grid)]


def edge_rel_errors(values: dict) -> Dict[str, float]:
    """Largest relative error of each route at c = 10**-k against the closed forms."""
    worst = {"maxent": 0.0, "legendre": 0.0}
    for name, scale in (("circle", 1.0), ("torus", 2.0)):
        for k, (m, l) in enumerate(zip(values[name]["edge_maxent"], values[name]["edge_legendre"]), 1):
            exact = scale * refs.binary_entropy(10.0**-k)
            for route, got in (("maxent", m), ("legendre", l)):
                err = math.inf if got is None else abs(got - exact) / exact
                worst[route] = max(worst[route], err)
    return worst


def check_crosscheck(out: Outcome):
    if out.code != 0:
        return False, _crashed(out) or f"exit {out.code}"
    values = json.loads(out.stdout)
    for name, scale in (("circle", 1.0), ("torus", 2.0)):
        exact = _entropy_curve(scale, len(values[name]["grid_maxent"]))
        for route in ("grid_maxent", "grid_legendre"):
            got = values[name][route]
            if len(got) != len(exact) or any(abs(a - b) > 1e-9 for a, b in zip(got, exact)):
                return True, f"{name} {route} off the closed form"
    return None


# ------------------------------------------------------------- workloads


def _package():
    """The package under test, imported into this process for untimed references."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import morse_entropy

    return morse_entropy


def _seeded_legendre(atoms, grid: int) -> Tuple[List[float], List[float]]:
    """The seeded spectrum's curves by the Legendre route, for the two-route check."""
    me = _package()
    spec = me.validate_spectrum(atoms)
    entries = me.CriticalSpectrum(
        atoms=tuple(me.SpectrumAtom(a.value, a.betti_weight, a.betti_weight)
                    for a in spec.atoms if a.betti_weight > 0),
        denom=spec.denom,
    )
    cs = [Fraction(j, grid - 1) for j in range(grid)]
    return ([me.legendre_epsilon(spec, c) for c in cs],
            [me.legendre_epsilon(entries, c) for c in cs])


def build_ops(workload: str, atoms, spec_file: str, seed: int) -> List[Op]:
    denom = refs.common_denominator([v for v, _, _ in atoms])
    half, window = Fraction(1, 2), Fraction(1, 16)
    window_args = ["--c", "1/2", "--delta", "1/16"]
    if workload == "count_oneshot":
        n_seeded = COUNT_GRID // denom
        def torus_count(n):
            return refs.binomial_window_sum(2 * n, *refs.window_range(2 * n, half, window, False))
        return [
            Op("torus_n1024", ["count", "--preset", "torus", "--n", "1024", *window_args],
               check_count(torus_count(1024), cap_edge=False)),
            Op(f"seeded_n{n_seeded}",
               ["count", "--spectrum-file", spec_file, "--n", str(n_seeded), *window_args],
               check_count(refs.window_count(atoms, n_seeded, False, half, window, False),
                           cap_edge=False)),
            Op("torus_n8192_cap_edge", ["count", "--preset", "torus", "--n", "8192", *window_args],
               check_count(torus_count(8192), cap_edge=True)),
        ]
    if workload == "verify_sweep":
        return [
            Op("torus_fekete2000", ["verify", "--preset", "torus", "--fekete-n-max", "2000",
                                    "--cap", "100000"], check_verify),
            Op("seeded_fekete150", ["verify", "--spectrum-file", spec_file, "--seed", str(seed),
                                    "--fekete-n-max", "150", "--n-max", "40",
                                    "--cap", str(150 * denom)], check_verify),
        ]
    if workload == "curve_dense":
        torus = _entropy_curve(2.0, 5001)
        seeded_eps, seeded_betti = _seeded_legendre(atoms, 2001)
        log_p = math.log(sum(m for _, m, _ in atoms))
        return [
            Op("torus_grid5001", ["curve", "--preset", "torus", "--grid", "5001"],
               check_curve(5001, torus, torus, math.log(4), 1e-9)),
            Op("seeded_grid2001", ["curve", "--spectrum-file", spec_file, "--grid", "2001"],
               check_curve(2001, seeded_eps, seeded_betti, log_p, 1e-8)),
            Op("circle_thermo_laplace", ["thermo", "--preset", "circle", "--beta", THERMO_BETAS,
                                         "--laplace"], check_thermo),
            Op("library_crosscheck", ["crosscheck"], check_crosscheck, library=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ runs


def _run_setup(setup: Op, children: Children, trace_path: Optional[Path]) -> Outcome:
    out = children.spawn(_op_argv(setup, trace_path))
    if setup.check(out) is not None:
        raise SystemExit(f"{setup.name} child failed (exit {out.code}): {out.stderr.strip()[-300:]}")
    return out


def _read_trace(trace_path: Path, name: str, result: PassResult) -> None:
    try:
        result.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError) as exc:
        result.reasons.append(f"{name}: no trace ({type(exc).__name__})")
    trace_path.unlink(missing_ok=True)


def run_pass(ops: List[Op], setup: Op, children: Children, traced: bool) -> PassResult:
    """The op list once, after set-up children: several timed, or one traced
    plus the layer probe (see ``child.probe``)."""
    result = PassResult()
    trace_path = children.work / "spans.json" if traced else None
    if traced:
        for extra in (setup, PROBE):
            _run_setup(extra, children, trace_path)
            _read_trace(trace_path, extra.name, result)
    else:
        result.setup_s = [_run_setup(setup, children, None).wall_s for _ in range(SETUP_PER_PASS)]
    for op in ops:
        out = children.spawn(_op_argv(op, trace_path))
        result.wall_s += out.wall_s
        result.peak_rss_mb = max(result.peak_rss_mb, out.maxrss_mb)
        result.attempted += 1
        result.per_op[op.name] = out
        try:
            verdict = op.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdict = True, f"unparseable output ({type(exc).__name__}: {exc})"
        if verdict is not None:
            wrong, reason = verdict
            result.failed += 1
            result.wrong += wrong
            result.reasons.append(f"{op.name}: {reason}")
        if traced:
            _read_trace(trace_path, op.name, result)
    return result


def run_passes(ops, setup, children, seconds, traced_pairs: bool) -> Tuple[List[PassResult], List[PassResult]]:
    """Untraced passes (and, with ``traced_pairs``, traced ones) until ``seconds`` run out.

    One unmeasured set-up child runs first so that bytecode caches exist.
    A pass is started only when the median pass so far still fits, and at
    least one pass (or pair) always runs.
    """
    _run_setup(setup, children, None)
    plain, traced = [], []
    start = time.perf_counter()
    lengths: List[float] = []
    while True:
        began = time.perf_counter()
        plain.append(run_pass(ops, setup, children, traced=False))
        if traced_pairs:
            traced.append(run_pass(ops, setup, children, traced=True))
        lengths.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return plain, traced


def layer_metrics(traces: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its children.

    ``calls``, ``iterations`` and ``nonconverged`` count outermost calls
    only, since ``maxent_rate`` recurses through its traced global.
    ``max_coeff_bits`` is the maximum over calls; ``rss_growth_mb`` sums
    the peak-RSS growth over the calls of one child and takes the largest
    child, as ``peak_rss_mb`` does; ``cli.import_s`` is the median import
    time over the children.
    """
    m: Dict[str, float] = defaultdict(float)
    imports = []
    for trace in traces:
        imports.append(trace["meta"]["import_s"])
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        growth: Dict[str, float] = defaultdict(float)
        for i, (parent, name, start, end, attrs) in enumerate(spans):
            outermost = parent < 0 or spans[parent][1] != name
            m[f"{name}.self_s"] += (end - start) - covered[i]
            m[f"{name}.errors"] += "error" in attrs
            if outermost:
                m[f"{name}.calls"] += 1
                m[f"{name}.iterations"] += attrs.get("iterations", 0)
                m[f"{name}.nonconverged"] += attrs.get("converged", True) is False
            for key in ("grid_cells", "instances", "quadrature_points"):
                m[f"{name}.{key}"] += attrs.get(key, 0)
            if "max_coeff_bits" in attrs:
                key = f"{name}.max_coeff_bits"
                m[key] = max(m[key], attrs["max_coeff_bits"])
            growth[f"{name}.rss_growth_mb"] += attrs.get("rss_growth_mb", 0.0)
            m["laws.violations"] += attrs.get("violations", 0)
        for key, value in growth.items():
            m[key] = max(m[key], value)
    m["cli.import_s"] = statistics.median(imports)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result line plus the details behind it."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    children = Children(work)
    try:
        atoms = refs.seeded_spectrum(seed)
        spec_file = work / "spectrum.json"
        spec_file.write_text(json.dumps(refs.spectrum_records(atoms)), encoding="utf-8")
        ops = build_ops(workload, atoms, str(spec_file), seed)
        setup = Op("setup", ["spectrum", "validate", "--spectrum-file", str(spec_file)],
                   check_setup)
        plain, traced = run_passes(ops, setup, children, seconds, traced_pairs=trace)
        passes = plain + traced
        setup_samples = [t for p in plain for t in p.setup_s]
        details = {
            "workload": workload,
            "seed": seed,
            "spectrum": refs.spectrum_records(atoms),
            "passes": len(plain),
            "setup_s_samples": setup_samples,
            "wall_s_samples": [p.wall_s for p in plain],
            "peak_rss_mb_samples": [p.peak_rss_mb for p in plain],
            "failures": sorted({r for p in passes for r in p.reasons}),
            "ops": {
                op.name: {
                    "wall_s": statistics.median(p.per_op[op.name].wall_s for p in plain),
                    "maxrss_mb": max(p.per_op[op.name].maxrss_mb for p in plain),
                    "exit_codes": sorted({p.per_op[op.name].code for p in plain}),
                }
                for op in ops
            },
        }
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        details["error_rate"] = failed / attempted
        cross = [p.per_op["library_crosscheck"] for p in plain if "library_crosscheck" in p.per_op]
        if cross and cross[0].code == 0:
            details["rate_edge_rel_err"] = edge_rel_errors(json.loads(cross[0].stdout))
        if trace:
            rows = [layer_metrics(p.traces) for p in traced]
            metrics = {m["name"]: statistics.median(row[m["name"]] for row in rows)
                       for m in spec["per_layer"]}
            metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                           - statistics.median(p.wall_s for p in plain))
            edge = edge_rel_errors(_library_edge_values())
            metrics["rate.maxent_rate.edge_rel_err"] = edge["maxent"]
            metrics["thermo.legendre_epsilon.edge_rel_err"] = edge["legendre"]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics = {
                "wall_s": statistics.median(details["wall_s_samples"]),
                "peak_rss_mb": statistics.median(details["peak_rss_mb_samples"]),
                "setup_s": statistics.median(setup_samples),
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        details["result"] = {
            "correct": not any(p.wrong for p in passes),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return details
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def _library_edge_values() -> dict:
    """Edge-point values of both routes, computed in this process."""
    from child import edge_values

    me = _package()

    out = {}
    for name in ("circle", "torus"):
        maxent, legendre = edge_values(me, me.preset(name))
        out[name] = {"edge_maxent": maxent, "edge_legendre": legendre}
    return out


def provenance(seed: int, seconds: float, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_memory_limit_bytes": MEMORY_LIMIT,
        "child_cpu_limit_s": CPU_LIMIT_S,
        "run_seconds": seconds,
        "trace": trace,
    }


def summarize(details: dict, trace: bool) -> List[str]:
    """Human-readable lines: each metric by name, unit and sample count."""
    w = details["workload"]
    lines = [f"# {w} seed={details['seed']} passes={details['passes']}"]
    res = details["result"]
    if not trace:
        lines.append(f"{w} wall_s {res['metrics']['wall_s']['value']:.4f} s "
                     f"(median of {details['passes']} passes)")
        lines.append(f"{w} peak_rss_mb {res['metrics']['peak_rss_mb']['value']:.1f} MB "
                     f"(median of {details['passes']} passes)")
        lines.append(f"{w} setup_s {res['metrics']['setup_s']['value']:.4f} s "
                     f"(median of {len(details['setup_s_samples'])} children)")
    lines.append(f"{w} error_rate {details['error_rate']:.4f} ratio "
                 f"({res['failed']} of {res['attempted']} ops)")
    if "rate_edge_rel_err" in details:
        edge = details["rate_edge_rel_err"]
        lines.append(f"{w} rate_edge_rel_err {max(edge.values()):.4g} ratio (1 sample; "
                     f"maxent {edge['maxent']:.4g}, legendre {edge['legendre']:.4g})")
    for name, op in details["ops"].items():
        lines.append(f"  op {name}: wall {op['wall_s']:.3f} s, rss {op['maxrss_mb']:.0f} MB, "
                     f"exit {op['exit_codes']}")
    if trace:
        for name, metric in res["metrics"].items():
            lines.append(f"  {name} {metric['value']:.6g} {metric['unit']}")
    for reason in details["failures"]:
        lines.append(f"  FAILED {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results record (JSON) here")
    args = parser.parse_args(argv)

    if not (SRC / "morse_entropy" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {"provenance": provenance(args.seed, args.seconds, trace), "workloads": {}}
    for name in names:
        details = run_workload(name, args.seed, args.seconds, trace, spec)
        record["workloads"][name] = details
        print("\n".join(summarize(details, trace)))
        print(json.dumps(details["result"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
