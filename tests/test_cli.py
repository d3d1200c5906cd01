"""End-to-end CLI behaviour: output formats, exit codes, size bounds."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morse_entropy import LawReport, Violation, preset, preset_names, validate_spectrum
from morse_entropy import cli as cli_module
from morse_entropy import thermo as thermo_module
from morse_entropy.cli import emit_curve, run
from morse_entropy import rate as rate_module
from morse_entropy.rate import Curve, betti_curve, epsilon_curve

LOG2 = "0.69314718056"
README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(argv, stdout) of every fenced README block opening with ``$ morse-entropy``."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        command, _, output = block.partition("\n")
        if command.startswith("$ morse-entropy "):
            examples.append((shlex.split(command)[2:], output))
    return examples


README_EXAMPLES = _readme_examples()


def _child_env(**env):
    """The environment of a child that imports ``morse_entropy`` from this source tree."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **env}


def _module_run(*args, preexec_fn=None, **env):
    """Run ``python -m morse_entropy`` on this source tree in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "morse_entropy", *args],
        capture_output=True,
        text=True,
        env=_child_env(**env),
        preexec_fn=preexec_fn,
    )


def test_curve_csv_small_grid(capsys):
    assert run(["curve", "--preset", "circle", "--grid", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "c,epsilon,betti,log_p_bound",
        f"0,0,0,{LOG2}",
        f"0.5,{LOG2},{LOG2},{LOG2}",
        f"1,0,0,{LOG2}",
    ]


def test_curve_output_is_byte_stable(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        code = run(
            ["curve", "--preset", "torus", "--grid", "101", "--out", str(target)]
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert len(lines) == 102
    assert lines[0] == "c,epsilon,betti,log_p_bound"
    assert first.read_text().endswith("\n")


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--preset", "torus", "--grid", "5001"],
            "0863512ef924e3c9fef1e955ba47440d29b6d3f5a134976522fe752f9e54bd2a",
        ),
        (
            ["--preset", "torus", "--grid", "5001", "--format", "json"],
            "07f9d4aea29e5205c41f3fe90615c307b6f65849f227b17b795cbf346d7a376b",
        ),
        (
            ["--preset", "circle", "--grid", "1001"],
            "600f24477fbbda7d15c563221a37891bc13d7903b074633843a312f70006aa4e",
        ),
    ],
)
def test_curve_stdout_is_pinned(capsys, args, digest):
    # curve stdout is byte-stable: a solver change that moves any printed
    # digit changes these digests
    assert run(["curve", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# The benchmark's seed-7 spectrum: asymmetric, and not perfect (the atom at
# 4/17 carries no homology), so neither the mirror nor the shared curve applies.
SEED7_RECORDS = [
    {"value": "0", "multiplicity": 2, "betti_weight": 1},
    {"value": "7/85", "multiplicity": 3, "betti_weight": 1},
    {"value": "4/17", "multiplicity": 2, "betti_weight": 0},
    {"value": "3/5", "multiplicity": 4, "betti_weight": 4},
    {"value": "84/85", "multiplicity": 3, "betti_weight": 2},
    {"value": "1", "multiplicity": 1, "betti_weight": 1},
]


# the spectrum bench/references.py draws for seed 0 (D = 87)
BENCH_SEED0_RECORDS = [
    {"value": "0", "multiplicity": 2, "betti_weight": 2},
    {"value": "13/29", "multiplicity": 1, "betti_weight": 0},
    {"value": "46/87", "multiplicity": 3, "betti_weight": 3},
    {"value": "52/87", "multiplicity": 4, "betti_weight": 2},
    {"value": "62/87", "multiplicity": 2, "betti_weight": 2},
    {"value": "1", "multiplicity": 3, "betti_weight": 1},
]


@pytest.fixture
def seed7_file(tmp_path):
    path = tmp_path / "seed7.json"
    path.write_text(json.dumps(SEED7_RECORDS), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "args, digest",
    [
        ([], "97550a5848b1d2bba3f9dfab1d744b39b17c0ca756df05556966d473424d3373"),
        (["--format", "json"], "380fde0f6aa60f95f809e48090d635d3dfa9c4e768b803067a44db7ba071bf84"),
    ],
)
def test_curve_stdout_is_pinned_on_an_asymmetric_imperfect_spectrum(capsys, seed7_file, args, digest):
    assert run(["curve", "--spectrum-file", seed7_file, "--grid", "2001", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("both", "7b97bd0aca34a5e43e458efd9c0dcca902c930f9befe5d3ab0c566a529f561dc"),
        ("epsilon", "7ce7ff36baca9761ccfcd53faf94f3bebafd94b2892742d36c0e1b9e36099a12"),
        ("betti", "c32933224032acf58fc2904ccd20f808a5305f0a54577df9236406f95f8878da"),
    ],
)
def test_curve_kinds_on_a_perfect_spectrum_are_pinned(capsys, kind, digest):
    assert run(["curve", "--preset", "torus", "--grid", "1001", "--kind", kind]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def _count_betti_curves(monkeypatch):
    calls = []

    def counting(spec, grid_points):
        calls.append(grid_points)
        return betti_curve(spec, grid_points)

    monkeypatch.setattr(cli_module, "betti_curve", counting)
    return calls


@pytest.mark.parametrize("name", ["circle", "sphere", "torus"])
def test_curve_both_solves_one_curve_for_a_perfect_morse_function(capsys, monkeypatch, name):
    calls = _count_betti_curves(monkeypatch)
    assert run(["curve", "--preset", name, "--grid", "101"]) == 0
    assert calls == []
    spec = preset(name)
    separate = emit_curve(epsilon_curve(spec, 101), betti_curve(spec, 101), math.log(spec.p))
    assert capsys.readouterr().out == separate


# Every atom carries homology, but the middle one less than its multiplicity
HEAVY_MIDDLE_RECORDS = [
    {"value": "0", "multiplicity": 1, "betti_weight": 1},
    {"value": "1/2", "multiplicity": 3, "betti_weight": 1},
    {"value": "1", "multiplicity": 1, "betti_weight": 1},
]


@pytest.mark.parametrize("records", [SEED7_RECORDS, HEAVY_MIDDLE_RECORDS], ids=["seed7", "heavy_middle"])
def test_curve_both_solves_the_betti_curve_of_an_imperfect_function(tmp_path, capsys, monkeypatch, records):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    calls = _count_betti_curves(monkeypatch)
    assert run(["curve", "--spectrum-file", str(path), "--grid", "101"]) == 0
    assert calls == [101]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curve_stdout_equals_out_file(tmp_path, capsys, fmt):
    args = ["curve", "--preset", "torus", "--grid", "101", "--format", fmt]
    target = tmp_path / f"curve.{fmt}"
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert run([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize(
    "source, grid, kind, fmt",
    [
        ("torus", 5001, "both", "csv"),
        ("torus", 5001, "both", "json"),
        ("seed7", 2001, "both", "csv"),
        ("seed7", 2001, "both", "json"),
        ("torus", 1001, "epsilon", "csv"),
        ("torus", 1001, "betti", "csv"),
    ],
)
def test_curve_stdout_out_file_and_emit_curve_are_byte_identical(
    tmp_path, capsys, seed7_file, source, grid, kind, fmt
):
    # stdout and --out are written chunk by chunk; emit_curve joins the
    # same chunks, and the curves it gets here are solved separately
    if source == "torus":
        spec, flags = preset("torus"), ["--preset", "torus"]
    else:
        spec = validate_spectrum(
            [(r["value"], r["multiplicity"], r["betti_weight"]) for r in SEED7_RECORDS]
        )
        flags = ["--spectrum-file", seed7_file]
    args = ["curve", *flags, "--grid", str(grid), "--kind", kind, "--format", fmt]
    target = tmp_path / "curve.out"
    assert run(args) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert run([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    eps = epsilon_curve(spec, grid) if kind != "betti" else None
    bet = betti_curve(spec, grid) if kind != "epsilon" else None
    emitted = emit_curve(eps, bet, math.log(spec.p), fmt).encode("utf-8")
    assert target.read_bytes() == printed == emitted


class _CountingStream(io.StringIO):
    """A text stream that counts the write calls reaching it."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("grid", [2, 255, 256, 257, 5001])
def test_curve_csv_reaches_its_stream_in_few_writes(monkeypatch, grid):
    # guards the number of writes, not their time: under PYTHONUNBUFFERED=1
    # every write to stdout is a syscall, so one write per row would make
    # one syscall per row
    stream = _CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert run(["curve", "--preset", "torus", "--grid", str(grid)]) == 0
    assert stream.getvalue().count("\n") == grid + 1
    assert stream.writes <= -(-grid // 256) + 1


def test_curve_memory_does_not_grow_with_the_printed_text(tmp_path):
    # Allocation guard, not a timing assert: building the whole CSV text
    # before writing it peaked 2.7 MB above the curve alone (Python 3.11).
    torus = preset("torus")
    target = str(tmp_path / "curve.csv")
    tracemalloc.start()
    try:
        epsilon_curve(torus, 16384)
        curve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = run(["curve", "--preset", "torus", "--grid", "16384", "--out", target])
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert run_peak - curve_peak < (1 << 20) // 2


def test_curve_to_a_closed_pipe_exits_one_without_a_traceback():
    # The reader closes the pipe after 10 bytes; the rest of the curve is
    # still being written.  With PYTHONUNBUFFERED unset stdout is block
    # buffered, so no written bytes may be left for the exit flush to fail on.
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "morse_entropy", "curve", "--preset", "torus", "--grid", "16384"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head == b"c,epsilon,"
    assert code == 1
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_curve_json_single_kind(capsys):
    assert run(
        ["curve", "--preset", "circle", "--grid", "5", "--kind", "epsilon", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"c", "epsilon", "betti", "log_p_bound"}
    assert payload["betti"] is None
    assert payload["c"] == [0, 0.25, 0.5, 0.75, 1]
    assert payload["epsilon"][2] == pytest.approx(float(LOG2), abs=1e-11)


def test_curve_grid_validation(tmp_path, capsys):
    assert run(["curve", "--preset", "circle", "--grid", "1"]) == 1
    assert "error" in capsys.readouterr().err
    # the grid is bounded before the spectrum is read, so a missing file
    # still exits 4
    missing = str(tmp_path / "missing.json")
    for source in (["--preset", "torus"], ["--spectrum-file", missing]):
        for grid in ("16385", "1000000000000"):
            assert run(["curve", *source, "--grid", grid]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: curve grid of {grid} points exceeds the limit 16384\n"
    assert run(["curve", "--preset", "torus", "--grid", "16384"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16385


def test_curve_with_a_point_that_did_not_converge_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(rate_module, "MAX_ITERATIONS", 1)
    assert run(["curve", "--preset", "torus", "--grid", "11"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rate solver failed to converge on the grid\n"


def test_emit_curve_spells_out_nonfinite_values():
    curve = Curve((Fraction(0), Fraction(1, 2), Fraction(1)), (-math.inf, math.inf, math.nan), "epsilon")
    assert emit_curve(curve, None, math.inf) == (
        "c,epsilon,betti,log_p_bound\n0,-inf,,inf\n0.5,inf,,inf\n1,nan,,inf\n"
    )
    assert emit_curve(None, curve, -math.inf, "json") == (
        '{"betti":["-inf","inf","nan"],"c":[0.0,0.5,1.0],"epsilon":null,"log_p_bound":"-inf"}\n'
    )


def test_emit_curve_requires_matching_grids():
    eps = epsilon_curve(preset("circle"), 5)
    bet = betti_curve(preset("circle"), 7)
    with pytest.raises(ValueError, match="share a grid"):
        emit_curve(eps, bet, 0.7)
    with pytest.raises(ValueError, match="at least one"):
        emit_curve(None, None, 0.7)
    with pytest.raises(ValueError, match="format"):
        emit_curve(eps, None, 0.7, fmt="xml")


def test_count_critical_closed(capsys):
    assert run(
        ["count", "--preset", "circle", "--n", "2", "--c", "1/2", "--delta", "1/4"]
    ) == 0
    assert capsys.readouterr().out == "2\n"


def test_count_betti_defaults_to_half_open(capsys):
    assert run(
        ["count", "--preset", "circle", "--n", "2", "--c", "1/2", "--delta", "1/2", "--kind", "betti"]
    ) == 0
    assert capsys.readouterr().out == "3\n"
    assert run(
        [
            "count", "--preset", "circle", "--n", "2", "--c", "1/2", "--delta", "1/2",
            "--kind", "betti", "--boundary", "closed",
        ]
    ) == 0
    assert capsys.readouterr().out == "4\n"


def test_count_cap_flag(capsys):
    code = run(
        ["count", "--preset", "circle", "--n", "100", "--c", "1/2", "--delta", "1/4", "--cap", "50"]
    )
    assert code == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)
def test_count_too_long_to_print_exits_four(capsys):
    # torus n=8192 is admitted by the default cap; its count has 4933 digits
    args = ["count", "--preset", "torus", "--n", "8192", "--c", "1/2", "--delta", "1/16"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "PYTHONINTMAXSTRDIGITS=0" in err
        proc = _module_run(*args, PYTHONINTMAXSTRDIGITS="0")
        assert proc.returncode == 0, proc.stderr
        sys.set_int_max_str_digits(0)
        # the sum of C(16384, s) over the closed window [7/16, 9/16] on the grid s / 16384
        term, want = math.comb(16384, 7168), 0
        for s in range(7168, 9217):
            want += term
            term = term * (16384 - s) // (s + 1)
        assert term == math.comb(16384, 9217)
        assert int(proc.stdout) == want
    finally:
        sys.set_int_max_str_digits(limit)


# Three coprime denominators of 1501 digits each: denom has 4501 digits,
# past CPython's default limit of 4300 for printing an integer.
HUGE_DENOM_RECORDS = [
    {"value": "0", "multiplicity": 1, "betti_weight": 1},
    *({"value": f"1/{10**1500 + k}", "multiplicity": 1, "betti_weight": 1} for k in (7, 3, 1)),
    {"value": "1", "multiplicity": 1, "betti_weight": 1},
]


@pytest.fixture
def huge_denom_file(tmp_path):
    path = tmp_path / "huge_denom.json"
    path.write_text(json.dumps(HUGE_DENOM_RECORDS), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield str(path)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)
def test_a_cap_refusal_past_the_digit_limit_names_the_cap(capsys, huge_denom_file):
    source = ["--spectrum-file", huge_denom_file]
    for args in (
        ["count", *source, "--n", "1", "--c", "1/2", "--delta", "1/2"],
        ["verify", *source, "--suite", "fekete"],
    ):
        assert run(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: sum grid n\*denom = a \d+-bit integer exceeds cap 16384\n", captured.err)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)
def test_spectrum_validate_past_the_digit_limit_names_denom(capsys, huge_denom_file):
    assert run(["spectrum", "validate", "--spectrum-file", huge_denom_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the denom has more digits than Python's limit of 4300")
    assert "PYTHONINTMAXSTRDIGITS=0" in captured.err
    proc = _module_run("spectrum", "validate", "--spectrum-file", huge_denom_file, PYTHONINTMAXSTRDIGITS="0")
    assert proc.returncode == 0, proc.stderr
    denom = (10**1500 + 1) * (10**1500 + 3) * (10**1500 + 7)
    sys.set_int_max_str_digits(0)
    assert proc.stdout.splitlines()[0] == f"ok atoms=5 p=5 B=5 denom={denom}"


# Every int option of the CLI, with what bounds the work it asks for.
# An option missing here fails test_every_int_option_is_bounded; the
# curve grid limit is tested by test_curve_grid_validation.
INT_OPTION_BOUNDS = {
    ("count", "--n"): "cap",
    ("verify", "--n-max"): "nothing: the domination certificate counts nothing",
    ("verify", "--fekete-n-max"): "cap",
    ("curve", "--grid"): "curve grid limit",
    ("count", "--cap"): "the user's own bound",
    ("verify", "--cap"): "the user's own bound",
    ("verify", "--seed"): "harmless: it only seeds the drawn windows",
}

BASE_ARGS = {
    "count": ["count", "--preset", "torus", "--c", "1/2", "--delta", "1/16"],
    "verify": ["verify", "--preset", "torus"],
}


def _int_options():
    parser = cli_module._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.type is int:
                yield command, action.option_strings[0]


def test_every_int_option_is_bounded():
    assert set(_int_options()) == set(INT_OPTION_BOUNDS)
    sizes = {
        key for key, bound in INT_OPTION_BOUNDS.items()
        if not bound.startswith(("the user", "harmless"))
    }
    assert {(argv[0], flag) for flag, argv in SIZE_COMMANDS.items()} == sizes


@pytest.mark.parametrize(
    "command, option",
    [key for key, bound in INT_OPTION_BOUNDS.items() if bound == "cap"],
)
def test_cap_bounded_int_options_refuse_a_huge_value(capsys, command, option):
    assert run([*BASE_ARGS[command], option, "1000000000000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "16384" in captured.err


@pytest.mark.parametrize(
    "command, option",
    [key for key, bound in INT_OPTION_BOUNDS.items() if bound.startswith("nothing")],
)
def test_certificate_sized_int_options_accept_a_huge_value(capsys, command, option):
    # a size that only multiplies a certificate's instance count needs no cap
    assert run([*BASE_ARGS[command], "--suite", "domination", option, "1000000000000"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS betti_dominated_by_critical instances=25000000000000 violations=0\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "command, option",
    [key for key, bound in INT_OPTION_BOUNDS.items() if bound == "the user's own bound"],
)
def test_a_small_cap_refuses_the_default_work(capsys, command, option):
    n = ["--n", "8"] if command == "count" else []
    assert run([*BASE_ARGS[command], *n, option, "8"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sum grid") and captured.err.endswith("exceeds cap 8\n")


# Each size flag with the rest of a command that runs it.
SIZE_COMMANDS = {
    "--n": ["count", "--c", "1/2", "--delta", "1/16"],
    "--n-max": ["verify", "--suite", "domination"],
    "--fekete-n-max": ["verify", "--suite", "fekete"],
    "--grid": ["curve"],
}


@st.composite
def _spectrum_records(draw):
    """At most 8 valid atoms with denominators up to 12, as spectrum-file records."""
    values = {Fraction(0), Fraction(1)}
    for _ in range(draw(st.integers(0, 6))):
        den = draw(st.integers(2, 12))
        values.add(Fraction(draw(st.integers(1, den - 1)), den))
    records = []
    for value in sorted(values):
        mult = draw(st.integers(1, 9))
        betti = draw(st.integers(1 if value in (0, 1) else 0, mult))
        records.append({"value": str(value), "multiplicity": mult, "betti_weight": betti})
    return records


@st.composite
def _size_cases(draw):
    """(argv, records): one size flag drawn log-uniformly up to 10**12, on a preset or a file."""
    flag = draw(st.sampled_from(sorted(SIZE_COMMANDS)))
    size = int(10 ** draw(st.floats(0, 12)))
    argv = [*SIZE_COMMANDS[flag], flag, str(size)]
    if draw(st.booleans()):
        return argv + ["--preset", draw(st.sampled_from(preset_names()))], None
    return argv, draw(_spectrum_records())


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (10, 10))


@settings(max_examples=15, deadline=None)
@given(case=_size_cases())
@example(case=(["verify", "--preset", "circle", "--suite", "domination", "--n-max", "16384"], None))
@example(case=(["verify", "--preset", "torus", "--n-max", "8192"], None))
@example(case=(["count", "--preset", "circle", "--n", "16384", "--c", "1/2", "--delta", "1/16"], None))
@example(case=(["curve", "--preset", "torus", "--grid", "16384"], None))
@example(case=(["count", "--preset", "torus", "--n", "4", "--c", "1e99999999", "--delta", "1/4"], None))
@example(case=(["count", "--preset", "torus", "--n", "4", "--c", "1e-99999999", "--delta", "1/4"], None))
@example(case=(["spectrum", "validate"], [{"value": "1e99999999", "multiplicity": 1, "betti_weight": 1}]))
def test_every_size_ends_in_a_documented_exit_code(case):
    # One child at a time, under 2 GiB of address space and 10 s of CPU:
    # a size the CLI accepts must finish, and any other must be refused.
    argv, records = case
    with tempfile.TemporaryDirectory() as tmp:
        if records is not None:
            path = os.path.join(tmp, "spectrum.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(records, handle)
            argv = [*argv, "--spectrum-file", path]
        proc = _module_run(*argv, preexec_fn=_limit_child)
    assert proc.returncode in (0, 1, 2, 3, 4), (argv, proc.returncode, proc.stderr[-500:])
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--preset", "torus", "--windows", "10"],
        ["verify", "--preset", "torus", "--instances", "10"],
        ["verify", "--preset", "torus", "--suite", "bounds", "--grid-points", "10"],
        ["thermo", "--preset", "circle", "--beta", "10", "--laplace", "--quad-points", "256"],
    ],
    ids=["windows", "instances", "grid_points", "quad_points"],
)
def test_removed_size_flags_are_argument_errors(capsys, args):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments:")


def test_readme_examples_cover_every_command():
    assert {argv[0] for argv, _ in README_EXAMPLES} == {
        "spectrum", "curve", "count", "verify", "thermo",
    }


def test_readme_library_quick_start_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    names = {}
    exec(block, names)
    # the library count equals the README's CLI count of the same window
    assert run(["count", "--preset", "torus", "--n", "8", "--c", "1/2", "--delta", "1/16",
                "--kind", "betti"]) == 0
    assert capsys.readouterr().out == f"{names['n']}\n"
    assert len(names["sweep"]) == 64


@pytest.mark.parametrize(
    "argv, stdout", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES]
)
def test_readme_example_output(capsys, argv, stdout):
    assert run(argv) == 0
    assert capsys.readouterr().out == stdout


def test_spectrum_validate(capsys):
    assert run(["spectrum", "validate", "--preset", "circle"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ok atoms=2 p=2 B=2 denom=1"
    assert out[1:] == ["0 1 1", "1 1 1"]


def test_spectrum_dump_round_trip(tmp_path, capsys):
    dumped = tmp_path / "torus.json"
    assert run(["spectrum", "dump", "--preset", "torus", "--out", str(dumped)]) == 0
    records = json.loads(dumped.read_text())
    assert records == [
        {"value": "0", "multiplicity": 1, "betti_weight": 1},
        {"value": "1/2", "multiplicity": 2, "betti_weight": 2},
        {"value": "1", "multiplicity": 1, "betti_weight": 1},
    ]
    assert run(["spectrum", "validate", "--spectrum-file", str(dumped)]) == 0
    out = capsys.readouterr().out
    assert "ok atoms=3 p=4 B=4 denom=2" in out


def test_spectrum_file_errors(tmp_path, capsys):
    assert run(["spectrum", "validate", "--spectrum-file", str(tmp_path / "missing.json")]) == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(["spectrum", "validate", "--spectrum-file", str(bad_json)]) == 1

    not_list = tmp_path / "dict.json"
    not_list.write_text('{"value": "0"}')
    assert run(["spectrum", "validate", "--spectrum-file", str(not_list)]) == 1

    extra_key = tmp_path / "extra.json"
    extra_key.write_text('[{"value": "0", "multiplicity": 1, "betti_weight": 1, "x": 2}]')
    assert run(["spectrum", "validate", "--spectrum-file", str(extra_key)]) == 1

    float_value = tmp_path / "float.json"
    float_value.write_text(
        '[{"value": 0.5, "multiplicity": 1, "betti_weight": 1},'
        ' {"value": 0, "multiplicity": 1, "betti_weight": 1},'
        ' {"value": 1, "multiplicity": 1, "betti_weight": 1}]'
    )
    assert run(["spectrum", "validate", "--spectrum-file", str(float_value)]) == 1
    capsys.readouterr()


def test_a_deeply_nested_spectrum_file_is_bad_json(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    assert run(["spectrum", "validate", "--spectrum-file", str(nested)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {nested}: ") and captured.err.count("\n") == 1


def test_argument_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["curve"]) == 1
    assert run(["curve", "--preset", "circle", "--spectrum-file", "x.json"]) == 1
    assert run(["count", "--preset", "circle", "--n", "2", "--c", "abc", "--delta", "1/4"]) == 1
    assert run(["spectrum", "validate", "--preset", "klein-bottle"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-max", "0"], "n_max must be >= 1, got 0"),
        (["--n-max", "-2", "--suite", "domination"], "n_max must be >= 1, got -2"),
    ],
)
def test_verify_refuses_a_domination_check_of_nothing(capsys, flags, message):
    assert run(["verify", "--preset", "torus", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_rational_past_the_digit_limit_is_named_not_echoed(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        delta = "1/" + "7" * 5000
        assert run(["count", "--preset", "torus", "--n", "8", "--c", "1/2", "--delta", delta]) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse rational")
    assert "4300 digits" in captured.err and "PYTHONINTMAXSTRDIGITS=0" in captured.err
    assert len(captured.err) < 300


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["curve", "--help"]) == 0
    capsys.readouterr()


def test_verify_bounds_suite(capsys):
    assert run(["verify", "--preset", "circle", "--suite", "bounds"]) == 0
    out = capsys.readouterr().out
    assert out == "PASS rate_bounds_and_peak instances=22 violations=0\n"


def test_verify_all_on_torus(capsys):
    assert run(["verify", "--preset", "torus", "--n-max", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "betti_dominated_by_critical",
        "window_count_superadditivity",
        "fekete_limit",
        "rate_bounds_and_peak",
    ]
    assert all(line.startswith("PASS") for line in lines)


def test_verify_fekete_at_n_2000(capsys):
    args = ["verify", "--preset", "torus", "--fekete-n-max", "2000", "--cap", "100000"]
    assert run(args) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "PASS betti_dominated_by_critical instances=300 violations=0\n"
        "PASS window_count_superadditivity instances=100 violations=0\n"
        "PASS fekete_limit instances=4010 violations=0\n"
        "PASS rate_bounds_and_peak instances=22 violations=0\n"
    )
    assert captured.err == ""


def test_verify_reports_failures_with_exit_two(capsys, monkeypatch):
    failing = LawReport(
        law="rate_bounds_and_peak",
        instances_checked=1,
        violations=(Violation((("bound", "betti_nonnegative"),), -0.5, 0.0),),
    )
    monkeypatch.setattr(cli_module, "check_bounds_and_max", lambda spec, grid_points: failing)
    assert run(["verify", "--preset", "circle", "--suite", "bounds"]) == 2
    captured = capsys.readouterr()
    assert "FAIL rate_bounds_and_peak instances=1 violations=1" in captured.out
    assert "bound=betti_nonnegative lhs=-0.5 rhs=0.0" in captured.err


def test_thermo_rows(capsys):
    assert run(["thermo", "--preset", "circle", "--beta", "0,10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta,free_energy,gibbs_mean,mass_at_value_0"
    assert lines[1] == f"0,{LOG2},0.5,0.5"
    assert len(lines) == 3
    beta, fe, mean, mass = lines[2].split(",")
    assert beta == "10"
    assert float(fe) == pytest.approx(math.log1p(math.exp(-10.0)), abs=1e-12)
    assert float(mean) + float(mass) == pytest.approx(1.0, abs=1e-9)


def test_thermo_free_energy_is_relatively_accurate_at_large_beta(capsys):
    # log(1 + e^-beta) is e^-beta to far below 1e-12 relative here; it
    # read 0 while z = 1 + e^-beta rounded to 1
    assert run(["thermo", "--preset", "circle", "--beta", "50,100,700"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for beta, row in zip((50.0, 100.0, 700.0), rows):
        assert float(row.split(",")[1]) == pytest.approx(math.exp(-beta), rel=1e-11)
        assert thermo_module.gibbs(preset("circle"), beta).free_energy == pytest.approx(
            math.exp(-beta), rel=1e-12
        )


def test_thermo_laplace_pass(capsys):
    assert run(["thermo", "--preset", "circle", "--beta", "10,100", "--laplace"]) == 0
    out = capsys.readouterr().out
    assert "beta,g,points" in out
    assert out.rstrip().endswith("laplace PASS")


def test_thermo_laplace_rejects_nonpositive_beta(capsys):
    assert run(["thermo", "--preset", "circle", "--beta", "0,10", "--laplace"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--beta", "0"], "beta grid must be positive"),
        (["--beta", "10,5"], "beta grid must be strictly increasing"),
        (["--beta", "10,10"], "beta grid must be strictly increasing"),
    ],
    ids=["zero", "decreasing", "repeated"],
)
def test_thermo_laplace_rejects_a_bad_grid_before_printing(capsys, args, message):
    assert run(["thermo", "--preset", "circle", *args, "--laplace"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# thermo stdout is byte-stable, including the Laplace table
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--preset", "circle", "--beta", "10,100,1000,10000,100000,1000000", "--laplace"],
            "159199233b299b651875b55beed757d83de26d7ba8ea6214dd78e23da6f36d14",
        ),
        (
            ["--preset", "torus", "--beta=-700,-40,-1.5,0,1/3,2.5,60,745,1e6"],
            "8b6a1a873cdbf1695927bd0026a0dd20375479e13304d8001f1e6153e418c580",
        ),
    ],
    ids=["circle_laplace", "torus_signed_betas"],
)
def test_thermo_stdout_is_pinned(capsys, args, digest):
    assert run(["thermo", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# verify is byte-stable on stdout, stderr and the exit code, passes and
# refusals alike; SEED7 and SEED0 stand for those spectrum files.  The
# seed0 and torus_fekete2000 cases are the two ops of the benchmark's
# verify_sweep workload; a passing run prints only the laws and their
# instance counts, so seed0 and seed7 share a digest.
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--spectrum-file", "SEED7", "--seed", "7", "--fekete-n-max", "150", "--n-max", "40",
             "--cap", "12750"],
            "13e34328a3e47a0fbb8b82bef1681b51a593af94114afb5961be3e002d87e587",
        ),
        (
            ["--spectrum-file", "SEED0", "--seed", "0", "--fekete-n-max", "150", "--n-max", "40",
             "--cap", str(150 * 87)],
            "13e34328a3e47a0fbb8b82bef1681b51a593af94114afb5961be3e002d87e587",
        ),
        (
            ["--preset", "torus", "--fekete-n-max", "2000", "--cap", "100000"],
            "a1f79be76d7d588bbd9357e674039d9779b3e2a1b79df497cb4ed6c0dc469b2e",
        ),
        (["--preset", "circle"], "7d5740af632b1dffde0bd216ce963ede203394620e0904db4981da3a83ed6dfb"),
        (
            # Fekete's count at n = 64, grid 128: the certificates read no cap
            ["--preset", "torus", "--cap", "12"],
            "593cffe9fd2c8219ca679d8391349c4e25a1d7589ec5c71e69387d49be1a3e5d",
        ),
        (
            ["--preset", "torus", "--fekete-n-max", "23"],
            "0bda1e97a8bc2690f0e9f0a527a3007ea2aab2a84289766c7e33244ed2f54981",
        ),
    ],
    ids=["seed7", "seed0", "torus_fekete2000", "circle", "cap12_refused", "fekete23_refused"],
)
def test_verify_output_is_pinned(capsys, seed7_file, tmp_path, args, digest):
    seed0_file = tmp_path / "seed0.json"
    seed0_file.write_text(json.dumps(BENCH_SEED0_RECORDS), encoding="utf-8")
    files = {"SEED7": seed7_file, "SEED0": str(seed0_file)}
    code = run(["verify", *(files.get(arg, arg) for arg in args)])
    captured = capsys.readouterr()
    record = json.dumps([code, captured.out, captured.err])
    assert hashlib.sha256(record.encode("utf-8")).hexdigest() == digest


# The seed picks verify's windows and draws, but a passing run prints only
# each law and its instance count, so every seed prints the same lines.
@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
@pytest.mark.parametrize("spectrum", [["--preset", "torus"], ["--spectrum-file", "SEED0"]],
                         ids=["torus", "seed0"])
def test_verify_stdout_is_the_same_for_every_seed(capsys, tmp_path, spectrum, seed):
    seed0_file = tmp_path / "seed0.json"
    seed0_file.write_text(json.dumps(BENCH_SEED0_RECORDS), encoding="utf-8")
    args = [str(seed0_file) if arg == "SEED0" else arg for arg in spectrum]
    assert run(["verify", *args, "--seed", seed]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "e619f13a7b02e9cb781ae2967e3087566527d2a840ae042370094aa32f45e831"
    )


# nan, inf and an overflowing float or rational are bad input, with or
# without --laplace; before any row is printed.
NONFINITE_BETAS = ("nan", "inf", "-inf", "1e400", "10,nan", "1" + "0" * 400 + "/1")


@pytest.mark.parametrize("laplace", [False, True], ids=["plain", "laplace"])
@pytest.mark.parametrize("beta", NONFINITE_BETAS, ids=lambda b: b[:8])
def test_thermo_rejects_nonfinite_beta(capsys, beta, laplace):
    argv = ["thermo", "--preset", "circle", f"--beta={beta}"] + ["--laplace"] * laplace
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: beta must be finite, got ")


def test_thermo_refuses_an_empty_beta_list(capsys):
    assert run(["thermo", "--preset", "circle", "--beta", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty beta list\n"


def test_thermo_laplace_violation_exits_two(capsys, monkeypatch):
    row = thermo_module.LaplaceRow(beta=10.0, z=0.25, g=0.125, points=512, converged=True)
    report = thermo_module.LaplaceReport(rows=(row,), violations=("g(10) = 0.125 outside (0, 0.1]",))
    monkeypatch.setattr(cli_module, "laplace_check", lambda betas: report)
    assert run(["thermo", "--preset", "circle", "--beta", "10", "--laplace"]) == 2
    captured = capsys.readouterr()
    assert captured.out.endswith("beta,g,points\n10,0.125,512\n")
    assert captured.err == "laplace FAIL\n  g(10) = 0.125 outside (0, 0.1]\n"


def test_thermo_laplace_unsettled_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(thermo_module, "_QUADRATURE_MAX_POINTS", 256)
    assert run(["thermo", "--preset", "circle", "--beta", "10", "--laplace"]) == 3
    assert "unsettled" in capsys.readouterr().err


def test_module_entry_point():
    proc = _module_run("spectrum", "validate", "--preset", "circle")
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok atoms=2")
