"""Record types, what importing the CLI loads, unused imports, who validates, and what the benchmark probe calls."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import morse_entropy
from morse_entropy import (
    Boundary,
    CriticalSpectrum,
    Curve,
    GibbsState,
    Kind,
    LaplaceReport,
    LaplaceRow,
    LawReport,
    MaxEntProblem,
    MaxEntSolution,
    MeanDistribution,
    SpectrumAtom,
    SpectrumError,
    Violation,
    WindowQuery,
    legendre_epsilon,
    maxent_rate,
    preset,
    validate_spectrum,
    window_counts,
)
from morse_entropy import rate
from morse_entropy.counter import window_range

ROOT = Path(__file__).resolve().parents[1]
HALF, TENTH = Fraction(1, 2), Fraction(1, 10)
TORUS = preset("torus")
CIRCLE = preset("circle")
ROW = LaplaceRow(10.0, 0.25, 0.14, 512, True)

# Each record type with its fields, in declaration order, set to two valid
# sets of values that differ in every field.
RECORDS = [
    (SpectrumAtom, {"value": (HALF, TENTH), "multiplicity": (2, 3), "betti_weight": (2, 1)}),
    (CriticalSpectrum, {"atoms": (TORUS.atoms, CIRCLE.atoms), "denom": (2, 3)}),
    (
        MeanDistribution,
        {
            "n": (2, 1),
            "grid_denom": (2, 1),
            "counts": ((1, 2, 1), (1, 1)),
            "kind": (Kind.CRITICAL, Kind.BETTI),
        },
    ),
    (
        WindowQuery,
        {
            "c": (HALF, Fraction(1, 4)),
            "delta": (TENTH, HALF),
            "boundary": (Boundary.CLOSED_OPEN, Boundary.CLOSED_CLOSED),
        },
    ),
    (
        MaxEntProblem,
        {
            "values": ((Fraction(0), HALF, Fraction(1)), (Fraction(0), Fraction(1))),
            "weights": ((1.0, 2.0, 1.0), (3.0, 1.0)),
            "target": (Fraction(1, 4), Fraction(1, 3)),
        },
    ),
    (
        MaxEntSolution,
        {
            "lam": (0.5, -1.0),
            "p": ((0.25, 0.75), (0.5, 0.5)),
            "rate": (-0.5, 0.25),
            "converged": (True, False),
            "iterations": (6, 200),
        },
    ),
    (
        Curve,
        {
            "grid": ((Fraction(0), Fraction(1)), (Fraction(0), HALF, Fraction(1))),
            "rates": ((0.0, 0.0), (0.0, 0.5, 0.0)),
            "kind": ("epsilon", "betti"),
        },
    ),
    (GibbsState, {"beta": (1.0, 2.0), "p": ((0.7, 0.3), (0.9, 0.1)), "free_energy": (0.5, 0.1)}),
    (
        LaplaceRow,
        {
            "beta": (10.0, 100.0),
            "z": (0.25, 0.08),
            "g": (0.14, 0.025),
            "points": (512, 1024),
            "converged": (True, False),
        },
    ),
    (LaplaceReport, {"rows": ((ROW,), ()), "violations": ((), ("g not decreasing",))}),
    (
        Violation,
        {"inputs": ((("n", "3"),), (("n", "4"),)), "lhs": (5, 0), "rhs": (4, 1)},
    ),
    (
        LawReport,
        {"law": ("fekete_limit", "other"), "instances_checked": (3, 4), "violations": ((), (None,))},
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, fields):
    names = tuple(fields)
    first = {name: pair[0] for name, pair in fields.items()}
    second = {name: pair[1] for name, pair in fields.items()}
    record = cls(*first.values())

    assert cls(**first) == record
    assert tuple(getattr(record, name) for name in names) == tuple(first.values())
    assert hash(cls(**first)) == hash(record)
    assert cls(**second) != record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, second[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**first)
    body = ", ".join(f"{name}={value!r}" for name, value in first.items())
    assert repr(record) == f"{cls.__name__}({body})"


def test_window_query_default_boundary_and_rational_inputs():
    query = WindowQuery("2/4", 1)
    assert query == WindowQuery(HALF, Fraction(1), Boundary.CLOSED_CLOSED)
    assert type(query.c) is Fraction and type(query.delta) is Fraction


@pytest.mark.parametrize(
    "record, change, message",
    [
        (WindowQuery(HALF, TENTH), {"delta": 0}, "delta must be positive"),
        (WindowQuery(HALF, TENTH), {"c": 2}, "misses"),
        (MeanDistribution(1, 1, (1, 1), Kind.BETTI), {"n": 0}, "n must be >= 1"),
        (MeanDistribution(1, 1, (1, 1), Kind.BETTI), {"counts": (1,)}, "does not match"),
        (Curve((0, 1), (0.0, 0.0), "epsilon"), {"rates": (0.0,)}, "equal length"),
        (MaxEntProblem((0, 1), (1.0, 1.0), HALF), {"weights": (1.0, 0.0)}, "positive"),
        (SpectrumAtom(HALF, 2, 1), {"betti_weight": 3}, "betti_weight 3 > multiplicity 2"),
        (SpectrumAtom(HALF, 2, 1), {"value": 2}, r"outside \[0, 1\]"),
        (TORUS, {"denom": 3}, "denom must be a positive multiple of 2, got 3"),
        (TORUS, {"atoms": TORUS.atoms[1:]}, "no atom at value 0"),
    ],
)
def test_replace_validates_like_construction(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_spectrum_builds_under_any_multiple_of_its_lcm():
    # The benchmark's two-route check builds the Betti sub-spectrum of its
    # seed-20 spectrum with that spectrum's denom 90, twice the lcm 45 of
    # the sub-spectrum's own values: it builds, and counts and solves as
    # the sub-spectrum under its lcm does.
    atoms = _bench_module("references").seeded_spectrum(20)
    parent = validate_spectrum(atoms)
    sub = [SpectrumAtom(v, b, b) for v, _, b in atoms if b > 0]
    wide, lean = CriticalSpectrum(tuple(sub), parent.denom), validate_spectrum(sub)
    assert (wide.denom, lean.denom) == (90, 45) and wide.atoms == lean.atoms
    centres = (Fraction(1, 4), HALF, Fraction(4, 5))
    for kind in Kind:
        queries = [WindowQuery(c, Fraction(1, 16), kind.boundary) for c in centres]
        assert window_counts(wide, 60, kind, queries) == window_counts(lean, 60, kind, queries)
    for c in (Fraction(1, 90), Fraction(1, 3), HALF, Fraction(89, 90), 0.7):
        assert legendre_epsilon(wide, c) == legendre_epsilon(lean, c)
    with pytest.raises(SpectrumError, match="multiple of 45, got 60"):
        lean._replace(denom=60)


def test_replace_rebuilds_what_validation_keeps():
    query = WindowQuery(HALF, TENTH)._replace(boundary=Boundary.CLOSED_OPEN)
    fresh = WindowQuery(HALF, TENTH, Boundary.CLOSED_OPEN)
    assert query == fresh and window_range(query, 10) == window_range(fresh, 10)
    family = MaxEntProblem((0, HALF, 1), (1.0, 2.0, 1.0), 0)
    moved = family._replace(target=Fraction(1, 4))
    fresh = MaxEntProblem((0, HALF, 1), (1.0, 2.0, 1.0), Fraction(1, 4))
    assert moved == family.at(Fraction(1, 4)) == fresh
    assert maxent_rate(moved) == maxent_rate(family.at(Fraction(1, 4)))


def test_records_keep_only_what_solves_read(monkeypatch):
    # A window keeps its three fields and nothing else: its edges are
    # derived where a count reads them.
    assert not hasattr(WindowQuery(HALF, TENTH), "__dict__")
    # Building a family evaluates it nowhere; a solve from lam = 0 makes
    # that evaluation itself, and counts one iteration per evaluation.
    lams = []
    family = rate._family
    monkeypatch.setattr(rate, "_family", lambda *args: lams.append(args[2]) or family(*args))
    problem = MaxEntProblem((0, HALF, 1), (1.0, 2.0, 1.0), Fraction(1, 4))
    assert lams == []
    solution = maxent_rate(problem)
    assert lams[0] == 0.0 and len(lams) == solution.iterations
    lams.clear()
    warm = maxent_rate(problem, solution.lam)
    assert lams[0] == solution.lam and len(lams) == warm.iterations - 1


# The public API, pinned: a name added to the package, or a test-only
# helper moved back into it, fails here until this list says so.
PUBLIC_API = [
    "Boundary",
    "ConvergenceError",
    "CriticalSpectrum",
    "Curve",
    "DEFAULT_CAP",
    "GibbsState",
    "Kind",
    "LaplaceReport",
    "LaplaceRow",
    "LawReport",
    "MaxEntProblem",
    "MaxEntSolution",
    "MeanDistribution",
    "ResourceCapError",
    "SpectrumAtom",
    "SpectrumError",
    "Violation",
    "WindowQuery",
    "as_rational",
    "betti_curve",
    "check_bounds_and_max",
    "check_domination",
    "check_fekete",
    "check_superadditivity",
    "circle_height",
    "count_window",
    "entry_multiset",
    "epsilon_curve",
    "finite_rate",
    "gibbs",
    "laplace_check",
    "legendre_epsilon",
    "maxent_rate",
    "mean_distribution",
    "preset",
    "preset_names",
    "random_windows",
    "validate_spectrum",
    "window_counts",
    "window_sup_rate",
]


def test_public_api_is_pinned():
    assert sorted(morse_entropy.__all__) == PUBLIC_API
    assert all(hasattr(morse_entropy, name) for name in PUBLIC_API)


def _traced_modules():
    return _bench_module("tracer").TRACED


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "morse_entropy").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    # No linter runs on this tree, so this stands in for its unused-import
    # rule.  Annotations are parsed as expressions, so a use in one counts.
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _callers(tree, name):
    """Names of the functions in ``tree`` that call ``name``, ``<module>`` for top-level calls."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return callers


def test_only_the_spectrum_sources_validate():
    # A CriticalSpectrum checks itself, so nothing re-validates one: only
    # the built-in presets and the CLI's spectrum file are raw triples.
    callers = {
        (path.stem, caller)
        for path in (ROOT / "src" / "morse_entropy").glob("*.py")
        for caller in _callers(ast.parse(path.read_text()), "validate_spectrum")
    }
    assert callers == {("spectrum", "preset"), ("cli", "_load_spectrum")}


def test_cli_import_loads_every_module_and_no_dataclasses_inspect_or_json():
    # -S keeps site-packages start-up hooks out of the module list.
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, morse_entropy.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "inspect", "json"}.isdisjoint(loaded)
    assert {f"morse_entropy.{module}" for module in _traced_modules()} <= loaded


def test_bench_probe_child_traces_every_traced_function(tmp_path):
    # The benchmark's layer probe calls the package API by name; a rename
    # there would crash every traced child.
    trace = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--trace", str(trace), "probe"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
    traced = {f"{module}.{name}" for module, names in _traced_modules().items() for name in names}
    assert {span[1] for span in spans} == traced
