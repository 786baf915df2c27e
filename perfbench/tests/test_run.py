"""The benchmark's own plumbing: seeded inputs, smoke runs that print every
metric of BENCHMARK.json by name and unit, the tracer, and the refusal to
run without the package sources."""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _prefix(name, seed, n=40):
    return list(itertools.islice(
        workloads.WORKLOADS[name](random.Random(seed)), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    assert _prefix(name, 3) == _prefix(name, 3)
    assert _prefix(name, 3) != _prefix(name, 4)


def test_timed_items_avoid_known_defect_bands():
    for item in _prefix("deep", 1, 900):
        a = item.args[-1]
        assert 0.0 < a <= 1.0
        if item.kind == "uniqueness":
            assert min(a, abs(a - 0.5), 1.0 - a) >= workloads.ENDPOINT_BAND
    for item in _prefix("shallow", 1, 1000):
        assert item.args[:2] == (-1, 2)
        assert item.args[2] >= workloads.POLE_BAND


def test_defect_band_items_lie_in_the_bands():
    band = workloads.defect_band(random.Random(1), 2)
    for item in band:
        a = item.args[-1]
        assert 0.0 < a <= 1.0
        if item.kind == "uniqueness":
            assert min(a, abs(a - 0.5), 1.0 - a) <= workloads.ENDPOINT_BAND
        else:
            assert item.args[:2] == (-1, -1) and a < workloads.POLE_BAND


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "deep", "shallow", "query"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v[0] for k, v in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()}


def _smoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "30", "--trace", str(trace), "--smoke"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", ["deep", "shallow", "query"])
def test_smoke_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = _smoke(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run.SMOKE_ITEMS[workload]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
        assert any(line.split()[:1] == [spec["name"]]
                   and spec["unit"] in line.split() for line in lines)
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_traced_smoke_run_prints_every_per_layer_metric(capsys):
    lines, result = _smoke(capsys, "query", 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert any(line.split()[:1] == [spec["name"]] for line in lines)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # four queries of each kind: eval reaches the evaluator once, predict
    # evaluates two Bernoulli polynomials
    assert m["hurwitz.zeta_calls"] == 4
    assert m["bernoulli.eval_poly_calls"] == 8


def test_tracer_records_nesting_and_restores_bindings():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    lib = types.SimpleNamespace(m=mod)
    tr = Tracer()
    tr._saved.append((mod, "inner", mod.inner))
    mod.inner = tr._wrap(mod.inner, "b.inner", False)
    tr._saved.append((mod, "outer", mod.outer))
    mod.outer = tr._wrap(mod.outer, "a.outer", False)
    with tr:
        assert lib.m.outer(1) == 4
    assert (mod.inner, mod.outer) == original
    assert [tr.names[i] for i in tr.name] == ["a.outer", "b.inner"]
    assert list(tr.parent) == [-1, 0]
    s = tr.summary()
    assert s["calls"] == {"a.outer": 1, "b.inner": 1}
    assert s["self"]["a"] + s["self"]["b"] == pytest.approx(
        tr.end[0] - tr.start[0])
    assert s["children"][0] == {"b.inner": 1}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "hurwitz_real_zeros" in proc.stderr
    assert '"correct"' not in proc.stdout
