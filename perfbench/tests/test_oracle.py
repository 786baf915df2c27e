"""The benchmark's oracle accepts correct outputs and flags corrupted ones."""

import dataclasses
import json

import pytest

import oracle
from hurwitz_real_zeros import cli
from workloads import Item, run_item


@pytest.fixture(scope="module")
def lib():
    import run
    return run.import_library()


def _cell(lib, N, a):
    return run_item(Item("sweep", (N, N, a)), lib)[0]


def test_cell_with_zero_passes_and_corruptions_fail(lib):
    N, a = 1, 0.4
    case = _cell(lib, N, a)
    assert case.predicted == "yes" and len(case.zeros) == 1
    assert oracle.check_cell(N, a, case) == (None, None)

    flipped = dataclasses.replace(case, predicted="no")
    assert "oracle yes" in oracle.check_cell(N, a, flipped)[0]

    z = case.zeros[0]
    shifted = dataclasses.replace(
        case, zeros=(dataclasses.replace(z, sigma=z.sigma + 1e-3),))
    assert "no sign change" in oracle.check_cell(N, a, shifted)[0]

    missing = dataclasses.replace(case, zeros=())
    assert oracle.check_cell(N, a, missing)[0] == "predicted zero not located"


def test_cell_without_zero_flags_a_spurious_zero(lib):
    N, a = 1, 0.2
    case = _cell(lib, N, a)
    assert case.predicted == "no" and not case.zeros
    assert oracle.check_cell(N, a, case) == (None, None)
    spurious = dataclasses.replace(case, zeros=(
        _cell(lib, 1, 0.4).zeros[0],))
    assert "where none exists" in oracle.check_cell(N, a, spurious)[0]


def test_skips_are_classified(lib):
    case = _cell(lib, 1, 0.5004)   # near the root 1/2
    assert oracle.check_cell(1, 0.5004, case) == (None, "boundary")
    acc = dataclasses.replace(
        case, note="skipped: evaluator accuracy failure (test)")
    assert oracle.check_cell(1, 0.5004, acc) == (
        "evaluator accuracy failure", "accuracy")


def test_deep_cell_zero_is_confirmed_at_30_digits(lib):
    N, a = 3, 0.3
    case = _cell(lib, N, a)
    assert case.zeros
    assert oracle.check_cell(N, a, case) == (None, None)
    z = case.zeros[0]
    shifted = dataclasses.replace(
        case, zeros=(dataclasses.replace(z, sigma=z.sigma - 1e-4),))
    assert oracle.check_cell(N, a, shifted)[0] is not None


def test_bernpoly_matches_mpmath_bernpoly():
    import mpmath

    with mpmath.mp.workdps(50):
        for n in range(0, 16):
            for x in (0.0, 1e-5, 0.2113248654051871, 0.37, 0.5, 0.9999, 1.0):
                ref = mpmath.bernpoly(n, mpmath.mpf(x))
                assert abs(oracle.bernpoly(n, mpmath.mpf(x)) - ref) \
                    < mpmath.mpf(10) ** -40


def test_sweep_checks_every_strip(lib):
    item = Item("sweep", (-1, 2, 0.4))
    cases = run_item(item, lib)
    assert oracle.check(item, cases) == (None, [])
    flipped = dataclasses.replace(cases[2], predicted="no")
    reason, _ = oracle.check(item, cases[:2] + (flipped,) + cases[3:])
    assert reason.startswith("N=1: predicted no")
    assert oracle.check(item, cases[1:])[0].startswith("cases for N")
    near_root = Item("sweep", (-1, 2, 0.5004))
    assert oracle.check(near_root, run_item(near_root, lib))[1]


def test_uniqueness_count_must_be_one():
    assert oracle.check_uniqueness(2, 0.3, 1) is None
    assert "count 0" in oracle.check_uniqueness(2, 0.3, 0)
    assert "count 2" in oracle.check_uniqueness(2, 0.3, 2)


def _query(lib, *argv):
    return argv, run_item(Item("cli", argv), lib)


def test_predict_query_and_flipped_answer(lib):
    argv, (code, out) = _query(lib, "predict", "--N=4", "--a=0.37",
                               "--format=json")
    assert oracle.check_cli(argv, (code, out)) is None
    doc = json.loads(out)
    doc["exists"] = "no" if doc["exists"] == "yes" else "yes"
    assert "oracle" in oracle.check_cli(argv, (code, json.dumps(doc)))
    doc = json.loads(out)
    p, q = doc["b_left"].split("/")
    doc["b_left"] = f"{int(p) + int(p) // 10**12}/{q}"   # 1e-12 relative
    reason = oracle.check_cli(argv, (code, json.dumps(doc)))
    assert "Bernoulli values" in reason


def test_eval_query_and_perturbed_value(lib):
    argv, (code, out) = _query(lib, "eval", "--sigma=-2.5", "--a=0.37",
                               "--format=json")
    assert oracle.check_cli(argv, (code, out)) is None
    doc = json.loads(out)
    doc["value"] += 1e-9
    assert "differs from mpmath" in oracle.check_cli(
        argv, (code, json.dumps(doc)))


def test_failed_query_is_flagged(lib):
    argv, (code, out) = _query(lib, "eval", "--sigma=1", "--a=0.5",
                               "--format=json")
    assert code == cli.EXIT_DOMAIN
    assert oracle.check_cli(argv, (code, out)) == "exit code 2"
    assert oracle.check_cli(("eval",), (0, "not json")).startswith("stdout")
