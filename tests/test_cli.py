import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz_real_zeros import __version__
from hurwitz_real_zeros.bernoulli import even_roots
from hurwitz_real_zeros.cli import main
from hurwitz_real_zeros.hurwitz import EvalParams, Evaluator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- eval

def test_eval_exact_anchor(capsys):
    code, out, _ = run(capsys, "eval", "--sigma", "-1", "--a", "1")
    assert code == 0
    assert "-0.0833333333333" in out


def test_eval_zero_shift_identity(capsys):
    code, out, _ = run(capsys, "eval", "--sigma", "0", "--a", "0.3")
    assert code == 0
    assert "0.2" in out


def test_eval_pole_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--sigma", "1", "--a", "0.5")
    assert code == 2
    assert "pole" in err


def test_eval_bad_shift_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--sigma", "2", "--a", "1.5")
    assert code == 2
    assert "shift" in err


def test_eval_accuracy_failure_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--sigma", "0.5", "--a", "0.9",
                       "--tol", "1e-60")
    assert code == 3
    assert "accuracy" in err


@pytest.mark.parametrize("sigma, code", [
    ("-inf", 2), ("inf", 2), ("nan", 2),
    ("1e308", 3), ("-1e6", 3), ("-150.5", 3),
])
def test_eval_extreme_sigma_exit_code(capsys, sigma, code):
    got, out, err = run(capsys, "eval", f"--sigma={sigma}", "--a=0.3")
    assert (got, out) == (code, "")
    if code == 2:
        assert err == "domain error: sigma must be finite\n"
    else:
        assert err.startswith("accuracy failure: ")


def test_eval_json_embeds_config_and_version(capsys):
    code, out, _ = run(capsys, "eval", "--sigma", "-1", "--a", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert doc["config"]["target_abs_error"] == 1e-10
    assert doc["config"]["deterministic"] is True
    assert doc["value"] == pytest.approx(-1 / 12, abs=1e-10)


# ------------------------------------------------------------------ roots

def test_roots_even(capsys):
    code, out, _ = run(capsys, "roots", "--n", "2")
    assert code == 0
    assert "0.211324865405" in out
    assert "0.788675134595" in out


def test_roots_tolerance_below_float_spacing_returns(capsys):
    # roots always bisect to neighbouring floats and take no --tol: argparse
    # rejects it at once, as it does --grid and --delta
    for option in ("--tol", "--grid", "--delta"):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--n", "4", option, "1e-20", "--format", "json"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "roots", "--n", "4", "--format", "json")
    assert code == 0
    pair = even_roots(4)
    doc = json.loads(out)
    assert (doc["b_minus"], doc["b_plus"]) == (pair.b_minus, pair.b_plus)
    assert doc["config"] == {"deterministic": True, "digits": 12}


@pytest.mark.parametrize("command, options", [
    (["eval", "--sigma", "-1", "--a", "0.3"], {"tol"}),
    (["predict", "--N", "2", "--a", "0.3"], set()),
    (["scan", "--N", "1", "--a", "0.4", "--grid", "64"], {"tol", "grid"}),
    (["verify", "--nmin", "0", "--nmax", "0", "--astep", "0.5", "--grid",
      "16"], {"tol", "grid", "delta"}),
])
def test_commands_take_and_echo_only_the_options_they_read(
        capsys, command, options):
    values = {"tol": "1e-9", "grid": "32", "delta": "0.01"}
    keys = {"tol": "target_abs_error", "grid": "grid_points",
            "delta": "exclusion_delta"}
    for option in set(values) - options:
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--{option}", values[option]])
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, *command, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == {keys[o] for o in options} | {
        "digits", "deterministic"}


def test_roots_odd_exact(capsys):
    code, out, _ = run(capsys, "roots", "--n", "3")
    assert code == 0
    assert "0.5" in out
    assert "exact" in out


def test_roots_csv_rows_match_header(capsys):
    # the odd-n note contains commas, so it must be quoted to stay one field
    for n in ("2", "3"):
        code, out, _ = run(capsys, "roots", "--n", n, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert all(len(row) == 4 for row in rows)


def test_roots_rejects_small_n(capsys):
    code, _, _ = run(capsys, "roots", "--n", "1")
    assert code == 2


# ---------------------------------------------------------------- predict

def test_predict_yes(capsys):
    code, out, _ = run(capsys, "predict", "--N", "0", "--a", "0.1")
    assert code == 0
    assert "yes" in out


def test_predict_no(capsys):
    code, out, _ = run(capsys, "predict", "--N", "0", "--a", "0.3")
    assert code == 0
    assert ": no" in out


def test_predict_boundary(capsys):
    code, out, _ = run(capsys, "predict", "--N", "3", "--a", "1")
    assert code == 0
    assert "boundary" in out


def test_predict_prints_explicit_band_message(capsys):
    # a = b_4^-, so sign_on_unit_interval cannot place a against B_4's roots
    code, out, _ = run(capsys, "predict", "--N", "2",
                       "--a", "0.24033518882038593")
    assert code == 0
    assert out.splitlines()[-1] == (
        "explicit form indeterminate: a=0.24033518882038593 within "
        "1.1102230246251565e-16 of a root of B_4")


# ------------------------------------------------------------------- scan

def test_scan_finds_predicted_zero(capsys):
    code, out, _ = run(capsys, "scan", "--N", "1", "--a", "0.4")
    assert code == 0
    assert "zero at sigma = -1.64" in out


def test_scan_tolerance_below_float_spacing_returns(capsys):
    code, out, _ = run(capsys, "scan", "--N", "0", "--a", "0.1",
                       "--tol", "1e-17", "--format", "json")
    assert code == 0
    (zero,) = json.loads(out)["zeros"]
    sigma, halfwidth = zero["sigma"], zero["bracket_halfwidth"]
    assert halfwidth >= math.ulp(sigma)
    ev = Evaluator(0.1, EvalParams(1e-17))
    signs = {ev(x)[0] > 0.0 for x in (sigma - halfwidth, sigma,
                                      sigma + halfwidth)}
    assert signs == {False, True}


def test_scan_tight_tolerance_keeps_the_grid_inside_the_strip(capsys):
    # the trivial zero at -2 is an end of (-3, -2), not a zero inside it
    code, out, _ = run(capsys, "scan", "--N", "2", "--a", "1",
                       "--tol", "1e-17")
    assert code == 0
    assert "no zeros" in out and "zero at" not in out


def test_scan_riemann_interval_empty(capsys):
    code, out, _ = run(capsys, "scan", "--N", "1", "--a", "1")
    assert code == 0
    assert "no zeros" in out


def test_scan_unit_interval_above_half(capsys):
    code, out, _ = run(capsys, "scan", "--N", "-1", "--a", "0.75")
    assert code == 0
    assert "no zeros" in out


def test_scan_curve_plot_xy(capsys):
    code, out, _ = run(capsys, "scan", "--N", "0", "--a", "0.3", "--curve",
                       "--grid", "32")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 33
    for line in lines[1:]:
        x, y = line.split()
        float(x), float(y)


@pytest.mark.parametrize("grid", ["1", "0"])
def test_scan_curve_rejects_small_grid(capsys, grid):
    code, out, err = run(capsys, "scan", "--N", "0", "--a", "0.3", "--curve",
                         "--grid", grid)
    assert code == 2
    assert out == ""
    assert "domain error: grid_points must be >= 16" in err


@pytest.mark.parametrize("argv, code", [
    (["--N", "0", "--a", "1.5"], 2),
    # the first point, sigma = -4 + 1e-59 = -4.0, is exact; the next fails
    (["--N", "3", "--a", "0.3", "--tol", "1e-60"], 3),
])
def test_scan_curve_failure_prints_nothing(capsys, argv, code):
    got, out, _ = run(capsys, "scan", *argv, "--curve", "--grid", "16")
    assert (got, out) == (code, "")


def test_scan_curve_rejects_bad_interval_index(capsys):
    code, out, err = run(capsys, "scan", "--N", "-2", "--a", "0.3", "--curve")
    assert code == 2
    assert out == ""
    assert "interval index" in err


# ----------------------------------------------------------------- verify

VERIFY_ARGS = ["verify", "--nmin", "0", "--nmax", "1", "--astep", "0.3",
               "--grid", "64"]


def test_verify_exit_zero_and_counts(capsys):
    code, out, _ = run(capsys, *VERIFY_ARGS)
    assert code == 0
    assert "disagree=0" in out


def test_verify_csv_schema(capsys):
    code, out, _ = run(capsys, *VERIFY_ARGS, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "a", "B_left", "B_right", "predicted",
                       "zeros_found", "sigmas", "agrees", "note"]
    assert len(rows) == 1 + 2 * 3  # two N values, a in {0.3, 0.6, 0.9}
    for row in rows[1:]:
        assert "/" in row[2] and "/" in row[3]  # rational p/q serialization


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, *VERIFY_ARGS, "--format", "csv")
    _, second, _ = run(capsys, *VERIFY_ARGS, "--format", "csv")
    assert first == second


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, *VERIFY_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert doc["disagree"] == 0
    assert doc["config"]["grid_points"] == 64
    assert len(doc["cases"]) == 6


def test_verify_skips_boundary_a(capsys):
    code, out, _ = run(capsys, "verify", "--nmin", "0", "--nmax", "0",
                       "--astep", "0.5", "--grid", "64")
    assert code == 0
    assert "skip" in out


def test_verify_uniqueness_flag(capsys):
    code, out, _ = run(capsys, "verify", "--nmin", "4", "--nmax", "5",
                       "--astep", "0.25", "--grid", "128", "--uniqueness")
    assert code == 0
    assert "uniqueness M=2" in out
    assert "FAIL" not in out


def test_verify_rejects_bad_astep(capsys):
    code, _, _ = run(capsys, "verify", "--nmin", "0", "--nmax", "1",
                     "--astep", "1.5")
    assert code == 2


def test_verify_rejects_bad_range(capsys):
    code, _, _ = run(capsys, "verify", "--nmin", "-2", "--nmax", "1",
                     "--astep", "0.3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--sigma", "-2.5", "--a", "0.3", "--tol", "nan"],
    ["eval", "--sigma", "-7.5", "--a", "0.3", "--tol", "nan"],
    ["eval", "--sigma", "-2.5", "--a", "0.3", "--tol", "inf"],
    ["verify", "--nmin", "0", "--nmax", "1", "--astep", "0.3",
     "--delta", "nan"],
    ["verify", "--nmin", "0", "--nmax", "1", "--astep", "0.3",
     "--delta", "inf"],
])
def test_non_finite_tolerances_are_domain_errors(capsys, argv):
    # NaN and inf pass a `<= 0` check: eval then printed a value with a
    # meaningless bound, and verify skipped no cell (nan) or every cell
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("domain error: ") and "finite" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--sigma", "-2.5", "--a", "0.3"],
    ["roots", "--n", "4"],
    ["verify", "--nmin", "0", "--nmax", "0", "--astep", "0.5"],
])
def test_negative_digits_fail_before_any_work(capsys, argv):
    # a negative precision used to fail only when formatting, after the
    # whole computation, with the format spec's own message; 0 printed one
    # digit, as `g` reads precision 0 as 1, so it is refused too
    for digits in ("-1", "0"):
        code, out, err = run(capsys, *argv, "--digits", digits)
        assert (code, out) == (2, "")
        assert err == "domain error: digits must be >= 1\n"
    code, out, _ = run(capsys, *argv, "--digits", "1")
    assert code == 0 and out


# ----------------------------------------------------------------- golden

# stdout and exit code of every command in every --format.  After an
# intended output change, rewrite the changed entries from main(argv).
GOLDEN = json.loads(
    Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["argv"] for c in GOLDEN])
def test_golden_output(capsys, case):
    code, out, _ = run(capsys, *case["argv"].split())
    assert (code, out) == (case["code"], case["out"])


def test_console_entry_point():
    # `python -m hurwitz_real_zeros.cli` runs entry(): main's exit code
    # becomes the process status
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hurwitz_real_zeros.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60)

    argv = "eval --sigma -1 --a 1 --format json"
    (case,) = [c for c in GOLDEN if c["argv"] == argv]
    done = cli(*argv.split())
    assert (done.returncode, done.stdout) == (case["code"], case["out"])
    done = cli("eval", "--sigma", "1", "--a", "0.5")
    assert (done.returncode, done.stdout) == (2, "")
    assert "pole" in done.stderr
