"""End-to-end CLI behaviour: output formats, exit codes, cap resolution."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morse_entropy import LawReport, Violation, preset
from morse_entropy import cli as cli_module
from morse_entropy import thermo as thermo_module
from morse_entropy.cli import emit_curve, run
from morse_entropy.rate import betti_curve, epsilon_curve

LOG2 = "0.69314718056"


def _module_run(*args, **env):
    """Run ``python -m morse_entropy`` on this source tree in a child process."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "morse_entropy", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
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


def test_curve_json_single_kind(capsys):
    assert run(
        ["curve", "--preset", "circle", "--grid", "5", "--kind", "epsilon", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"c", "epsilon", "betti", "log_p_bound"}
    assert payload["betti"] is None
    assert payload["c"] == [0, 0.25, 0.5, 0.75, 1]
    assert payload["epsilon"][2] == pytest.approx(float(LOG2), abs=1e-11)


def test_curve_grid_validation(capsys):
    assert run(["curve", "--preset", "circle", "--grid", "1"]) == 1
    assert "error" in capsys.readouterr().err


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


def test_cap_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("MORSE_ENTROPY_CAP", "50")
    assert run(
        ["count", "--preset", "circle", "--n", "100", "--c", "1/2", "--delta", "1/4"]
    ) == 4
    # the flag wins over the environment
    assert run(
        ["count", "--preset", "circle", "--n", "100", "--c", "1/2", "--delta", "1/4", "--cap", "200"]
    ) == 0
    capsys.readouterr()


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


def test_cap_environment_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("MORSE_ENTROPY_CAP", "plenty")
    assert run(
        ["count", "--preset", "circle", "--n", "2", "--c", "1/2", "--delta", "1/4"]
    ) == 1
    assert "MORSE_ENTROPY_CAP" in capsys.readouterr().err


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


def test_argument_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["curve"]) == 1
    assert run(["curve", "--preset", "circle", "--spectrum-file", "x.json"]) == 1
    assert run(["count", "--preset", "circle", "--n", "2", "--c", "abc", "--delta", "1/4"]) == 1
    assert run(["spectrum", "validate", "--preset", "klein-bottle"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["curve", "--help"]) == 0
    capsys.readouterr()


def test_verify_bounds_suite(capsys):
    assert run(["verify", "--preset", "circle", "--suite", "bounds"]) == 0
    out = capsys.readouterr().out
    assert out == "PASS rate_bounds_and_peak instances=22 violations=0\n"


def test_verify_all_on_torus(capsys):
    assert run(["verify", "--preset", "torus", "--n-max", "6", "--windows", "10", "--instances", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "betti_dominated_by_critical",
        "window_count_superadditivity",
        "fekete_limit",
        "rate_bounds_and_peak",
    ]
    assert all(line.startswith("PASS") for line in lines)


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
        assert thermo_module.free_energy(preset("circle"), beta) == pytest.approx(
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


def test_thermo_laplace_unsettled_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(thermo_module, "_QUADRATURE_MAX_POINTS", 256)
    assert run(["thermo", "--preset", "circle", "--beta", "10", "--laplace"]) == 3
    assert "unsettled" in capsys.readouterr().err


def test_module_entry_point():
    proc = _module_run("spectrum", "validate", "--preset", "circle")
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok atoms=2")
