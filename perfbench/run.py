#!/usr/bin/env python3
"""Benchmark of hurwitz_real_zeros on three seeded workloads.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 34 --trace 0

Run from the repository root; the package is imported from `src/`.  Each
workload is a closed loop with one client: the next item starts when the
previous one returns, in a single process with no threads.

`--trace 0` times one pass of `--seconds` seconds and reports the
end-to-end metrics.  `--trace 1` runs each item of a fixed,
seed-determined list twice, untraced and with spans recorded around the
public functions of `bernoulli`, `hurwitz`, `zero_analysis` and `cli`, and
reports the per-layer metrics (see METRICS.md).  Every output is checked
against an independent mpmath oracle outside the timed region.  The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a stamped copy of the full result goes to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import inspect
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 5
CHECK_BLOCK = 500
#: Traced runs use a fixed item count, so counts and busy times compare
#: across commits: about half of --seconds at these per-item costs
#: (2-core x86-64, Python 3.11, pure-Python mpmath), in whole rounds.
NOMINAL_ITEM_S = {"deep": 0.3, "shallow": 0.024, "query": 0.002}
ROUND = {"deep": 9, "shallow": 1, "query": 2}
#: The machines this runs on share their cores with other tenants, whose
#: load slows everything by 10-50% for seconds to minutes.  So a fixed loop
#: that does not touch the package is timed every REF_EVERY_S of pass time,
#: with the clock stopped, and each item's latency is scaled by REF_S over
#: the loop's median time within REF_WINDOW_S of the item: pass timings
#: read as on a machine where the loop takes REF_S (this 2-core x86-64 VM
#: when idle).  The report prints the raw figures too.  Set-up time is not
#: scaled: it follows the loop's speed too loosely.
REF_LOOP = 160_000
REF_S = 0.010
REF_EVERY_S = 0.5
REF_WINDOW_S = 2.0
SMOKE_ITEMS = {"deep": 2, "shallow": 2, "query": 8}
BAND_ROUNDS = 2

PROBE_A = 0.37
EXACT_PROBE_N = 9          # zeta(-8, a): the uniqueness endpoint for M = 3
CLI_PROBE = ["predict", "--N=5", "--a=0.37", "--format=json"]

#: name -> (unit, meaning)
END_TO_END = {
    "setup_s": ("s", "cold import + first calls, fresh interpreter"),
    "items_per_s": ("1/s", "items per item-second, at reference speed"),
    "item_p50_ms": ("ms", "median item latency, at reference speed"),
    "item_p90_ms": ("ms", "90th percentile latency, at reference speed"),
    "peak_rss_mb": ("MB", "peak resident memory after the pass"),
}
#: name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "hurwitz.zeta_calls": ("count", "fixed by per-call speed PRs"),
    "hurwitz.zeta_s": ("s", "items_per_s, item_p50_ms on deep, shallow"),
    "hurwitz.zeta_us_per_call": ("us", "items_per_s on deep, shallow"),
    "hurwitz.exact_calls": ("count", "deep: uniqueness endpoints"),
    "hurwitz.accuracy_errors": ("count", "failed on every workload"),
    "hurwitz.float_em_us": ("us", "shallow"),
    "hurwitz.mpf_em_us": ("us", "deep"),
    "hurwitz.exact_us": ("us", "deep"),
    "hurwitz.integral_ms": ("ms", "no workload: cross-check only"),
    "hurwitz.import_s": ("s", "setup_s on every workload"),
    "zero_analysis.refine_calls": ("count", "deep, shallow, at most "
                                            "its share of zeta calls"),
    "zero_analysis.zeros_found": ("count", "fixed: outputs unchanged"),
    "zero_analysis.calls_per_zero": ("calls/zero", "deep, shallow"),
    "zero_analysis.skipped_accuracy": ("count", "failed on deep, shallow"),
    "zero_analysis.skipped_boundary": ("count", "none: not failures"),
    "zero_analysis.self_s": ("s", "shallow: scan loop and bisection"),
    **{f"zero_analysis.locate_ms.N{n}": (
        "ms", "shallow" if n <= 2 else "deep") for n in range(-1, 8)},
    "zero_analysis.uniqueness_ms": ("ms", "deep"),
    "zero_analysis.predict_us": ("us", "query"),
    "zero_analysis.predict_explicit_us": ("us", "query"),
    "zero_analysis.endpoint_miss_frac": (
        "frac", "known defect: zeros next to a scan end are missed"),
    "bernoulli.eval_poly_calls": ("count", "query"),
    "bernoulli.eval_poly_s": ("s", "query"),
    "bernoulli.even_roots_calls": ("count", "query"),
    "cli.self_us": ("us", "query: main minus library calls"),
    "cli.build_parser_ms": ("ms", "query"),
    "cli.import_s": ("s", "setup_s on every workload"),
    "trace.overhead_frac": ("frac", "none: traced over untraced pass - 1"),
}


def import_library() -> SimpleNamespace:
    """The package under test, from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hurwitz_real_zeros
        from hurwitz_real_zeros import bernoulli, cli, hurwitz, zero_analysis
    except ImportError as exc:
        raise SystemExit(f"cannot import hurwitz_real_zeros from {SRC}: "
                         f"{exc}")
    origin = Path(hurwitz_real_zeros.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"hurwitz_real_zeros was imported from {origin}, "
                         f"not from {SRC}")
    return SimpleNamespace(bernoulli=bernoulli, cli=cli, hurwitz=hurwitz,
                           zero_analysis=zero_analysis)


def environment(args) -> dict:
    import mpmath

    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke}


def setup_probe() -> dict:
    """One fresh interpreter: set-up seconds and cumulative import seconds
    of the hurwitz and cli modules from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "setup_probe.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {"setup_s": json.loads(proc.stdout.splitlines()[-1])["setup_s"],
            "hurwitz.import_s": cumulative["hurwitz_real_zeros.hurwitz"],
            "cli.import_s": cumulative["hurwitz_real_zeros.cli"]}


def warm_up(lib) -> None:
    """The same first calls as the set-up probe, so caches the library
    fills on first use are full before timing starts."""
    lib.hurwitz.hurwitz_zeta(-2.5, PROBE_A)
    lib.hurwitz.hurwitz_zeta(-7.5, PROBE_A)
    with contextlib.redirect_stdout(io.StringIO()):
        lib.cli.main(CLI_PROBE)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += (i * i) % 7
    return perf_counter() - t0


def timed_item(lib, item) -> tuple:
    """(output or the exception raised, end time, seconds taken)."""
    t0 = perf_counter()
    try:
        out = workloads.run_item(item, lib)
    except Exception as exc:
        out = exc
    t1 = perf_counter()
    return out, t1, t1 - t0


def run_pass(lib, items, grader, seconds=math.inf, limit=None):
    """Closed loop over `items` until `seconds` of pass time have passed or
    `limit` items are done; an exception is kept as the item's output.

    Every REF_EVERY_S of pass time, or CHECK_BLOCK items, the clock stops:
    the outputs so far go to `grader` and are dropped, so neither the
    oracle's time nor the outputs' memory grows with the pass, and the
    reference loop is timed."""
    kept, outputs, latency, at = [], [], array("d"), array("d")
    ref, ref_at = array("d"), array("d")
    count, elapsed, mark = 0, 0.0, perf_counter()
    for item in items:
        out, t1, took = timed_item(lib, item)
        latency.append(took)
        at.append(elapsed + (t1 - mark))
        kept.append(item)
        outputs.append(out)
        count += 1
        done = elapsed + (t1 - mark) >= seconds or count == limit
        if done or len(kept) == CHECK_BLOCK or t1 - mark >= REF_EVERY_S:
            elapsed += perf_counter() - mark
            grader.check(kept, outputs)
            kept, outputs = [], []
            ref.append(reference_loop())
            ref_at.append(elapsed)
            mark = perf_counter()
        if done:
            break
    return SimpleNamespace(count=count, latency=latency, at=at,
                           elapsed=elapsed, ref=ref, ref_at=ref_at)


def run_paired(lib, items, tracer: Tracer) -> tuple:
    """Each item untraced and traced back to back, the order alternating
    from item to item, so that neither side always runs second, with warm
    caches, or in a different phase of the machine's load."""
    plain, traced = (SimpleNamespace(count=len(items), items=list(items),
                                     outputs=[], elapsed=0.0)
                     for _ in range(2))
    for i, item in enumerate(items):
        for side in (plain, traced) if i % 2 == 0 else (traced, plain):
            if side is traced:
                tracer.current_item = i
                tracer.install(lib)
            try:
                out, _, seconds = timed_item(lib, item)
            finally:
                tracer.uninstall()
            side.outputs.append(out)
            side.elapsed += seconds
    return plain, traced


class Grader:
    """Tallies the oracle's verdicts on outputs: failures and skips."""

    def __init__(self):
        self.count = 0
        self.failures = []
        self.skips = {"accuracy": 0, "boundary": 0}

    def check(self, items, outputs, reference=None):
        """`reference`, if given, holds earlier outputs of the same items,
        which must be identical."""
        for k, (item, out) in enumerate(zip(items, outputs)):
            if isinstance(out, Exception):
                reason, skips = f"raised {type(out).__name__}: {out}", []
            else:
                reason, skips = oracle.check(item, out)
            if reason is None and reference is not None \
                    and reference[k] != out:
                reason = "traced output differs from untraced output"
            for skip in skips:
                self.skips[skip] += 1
            if reason:
                self.failures.append({"item": self.count, "kind": item.kind,
                                      "args": list(item.args),
                                      "reason": reason})
            self.count += 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def at_reference_speed(p) -> list:
    """Each item's latency scaled by REF_S over the median reference-loop
    time within REF_WINDOW_S of pass time around the item's end."""
    scaled = []
    for took, t in zip(p.latency, p.at):
        lo = bisect.bisect_left(p.ref_at, t - REF_WINDOW_S)
        hi = bisect.bisect_right(p.ref_at, t + REF_WINDOW_S)
        near = p.ref[lo:hi] or p.ref[max(0, lo - 1):lo + 1]
        scaled.append(took * REF_S / statistics.median(near))
    return scaled


def end_to_end(p, setups) -> tuple:
    n = p.count
    scaled = at_reference_speed(p)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "items_per_s": n / math.fsum(scaled),
        "item_p50_ms": statistics.median(scaled) * 1e3,
        "item_p90_ms": percentile(scaled, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "items_per_s": f"raw {n / math.fsum(p.latency):.4g}/s: {n} items "
                       f"in {p.elapsed:.3f} s; reference loop median "
                       f"{statistics.median(p.ref) * 1e3:.3f} ms "
                       f"({len(p.ref)} samples)",
        "item_p50_ms": f"n={n}, raw "
                       f"{statistics.median(p.latency) * 1e3:.4g} ms",
        "item_p90_ms": f"n={n}, {n - math.ceil(0.9 * n)} above, raw "
                       f"{percentile(p.latency, 0.9) * 1e3:.4g} ms",
    }
    return metrics, notes


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probes(lib, smoke: bool) -> dict:
    """Single-call timings at fixed inputs, the same on every workload."""
    reps = (lambda n: 1) if smoke else (lambda n: n)
    hz, za, cli = lib.hurwitz, lib.zero_analysis, lib.cli
    a_exact = Fraction(PROBE_A)
    out = {
        "hurwitz.float_em_us": median_time(
            lambda: hz.hurwitz_zeta(-2.5, PROBE_A), reps(300)) * 1e6,
        "hurwitz.mpf_em_us": median_time(
            lambda: hz.hurwitz_zeta(-7.5, PROBE_A), reps(31)) * 1e6,
        "hurwitz.exact_us": median_time(
            lambda: hz.hurwitz_zeta_exact_at_nonpositive_integer(
                EXACT_PROBE_N, a_exact), reps(101)) * 1e6,
        "hurwitz.integral_ms": median_time(
            lambda: hz.integral_representation(-2.5, PROBE_A, 2),
            reps(11)) * 1e3,
        "zero_analysis.uniqueness_ms": median_time(
            lambda: za.uniqueness_check(3, PROBE_A), 1) * 1e3,
        "zero_analysis.predict_us": median_time(
            lambda: za.predict_zero(5, PROBE_A), reps(301)) * 1e6,
        "zero_analysis.predict_explicit_us": median_time(
            lambda: za.predict_zero_explicit(5, PROBE_A), reps(301)) * 1e6,
        "cli.build_parser_ms": median_time(cli.build_parser,
                                           reps(51)) * 1e3,
    }
    for n in range(-1, 8):
        out[f"zero_analysis.locate_ms.N{n}"] = median_time(
            lambda: za.locate_zeros(n, PROBE_A),
            reps(5) if n <= 2 else 1) * 1e3
    queries = reps(51)
    with Tracer().install(lib) as tr:
        for _ in range(queries):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(CLI_PROBE)
    out["cli.self_us"] = tr.summary()["self"]["cli"] / queries * 1e6
    return out


def layer_metrics(lib, tr: Tracer, base, traced, skips) -> dict:
    s = tr.summary()
    grid = inspect.signature(
        lib.zero_analysis.verify_theorem).parameters["grid_points"].default
    locate = [i for i, nid in enumerate(tr.name)
              if tr.names[nid] == "zero_analysis.locate_zeros"]
    scan_calls = sum(s["children"][i]["hurwitz.zeta"] for i in locate)
    refine = sum(s["children"][i]["hurwitz.zeta"] - grid for i in locate
                 if i not in tr.errors)
    zeros = sum(tr.lengths.values())
    zeta_calls = s["calls"]["hurwitz.zeta"]
    return {
        "hurwitz.zeta_calls": zeta_calls,
        "hurwitz.zeta_s": s["busy"]["hurwitz.zeta"],
        "hurwitz.zeta_us_per_call": (s["busy"]["hurwitz.zeta"]
                                     / max(zeta_calls, 1) * 1e6),
        "hurwitz.exact_calls": s["calls"]["hurwitz.exact"],
        "hurwitz.accuracy_errors": s["errors"][("hurwitz.zeta",
                                                "AccuracyError")],
        "zero_analysis.refine_calls": refine,
        "zero_analysis.zeros_found": zeros,
        "zero_analysis.calls_per_zero": scan_calls / zeros if zeros else 0.0,
        "zero_analysis.skipped_accuracy": skips["accuracy"],
        "zero_analysis.skipped_boundary": skips["boundary"],
        "zero_analysis.self_s": s["self"]["zero_analysis"],
        "bernoulli.eval_poly_calls": s["calls"]["bernoulli.eval_poly"],
        "bernoulli.eval_poly_s": s["busy"]["bernoulli.eval_poly"],
        "bernoulli.even_roots_calls": s["calls"]["bernoulli.even_roots"],
        "trace.overhead_frac": traced.elapsed / base.elapsed - 1.0,
    }


def defect_band(lib, rng, rounds: int) -> tuple:
    """Share of known-defect-band items answered wrongly, and their args."""
    band = workloads.defect_band(rng, rounds)
    bad = [item.args for item in band
           if oracle.check(item, workloads.run_item(item, lib))[0]]
    return len(bad) / len(band), bad


def trace_item_count(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return SMOKE_ITEMS[workload]
    rounds = seconds / 2 / NOMINAL_ITEM_S[workload] / ROUND[workload]
    return ROUND[workload] * max(1, math.ceil(rounds))


def run(args) -> dict:
    lib = import_library()
    env = environment(args)
    setups = [setup_probe() for _ in range(1 if args.smoke else SETUP_RUNS)]
    warm_up(lib)
    rng = random.Random(args.seed)
    stream = workloads.WORKLOADS[args.workload](rng)
    result = {"environment": env, "setup_runs": setups}
    if not args.trace:
        limit = SMOKE_ITEMS[args.workload] if args.smoke else None
        grader = Grader()
        p = run_pass(lib, stream, grader, args.seconds, limit)
        metrics, notes = end_to_end(p, setups)
        table = END_TO_END
    else:
        items = list(itertools.islice(stream, trace_item_count(
            args.workload, args.seconds, args.smoke)))
        tr = Tracer()
        base, p = run_paired(lib, items, tr)
        grader = Grader()
        grader.check(p.items, p.outputs, reference=base.outputs)
        metrics = layer_metrics(lib, tr, base, p, grader.skips)
        metrics.update(probes(lib, args.smoke))
        for key in ("hurwitz.import_s", "cli.import_s"):
            metrics[key] = statistics.median(s[key] for s in setups)
        frac, bad = defect_band(lib, rng, 1 if args.smoke else BAND_ROUNDS)
        metrics["zero_analysis.endpoint_miss_frac"] = frac
        notes = {"trace.overhead_frac":
                 f"{len(items)} items: {base.elapsed:.3f} s untraced, "
                 f"{p.elapsed:.3f} s traced, {len(tr.start)} spans",
                 "zero_analysis.endpoint_miss_frac":
                 f"wrong: {bad}"}
        table = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        tr.save(OUT_DIR / f"spans_{args.workload}.npz")
    failures = grader.failures
    result.update(
        correct=not failures, attempted=p.count, failed=len(failures),
        skipped=grader.skips, failures=failures[:50], notes=notes,
        meaning={k: v[1] for k, v in table.items()},
        metrics={k: {"value": metrics[k], "unit": v[0]}
                 for k, v in table.items()})
    return result


def report(result) -> None:
    env = result["environment"]
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{name:<42} {m['value']:>16.6f} {m['unit']:<10} {note}")
    n, bad = result["attempted"], result["failed"]
    print(f"{'failed_frac':<42} {bad / n:>16.6f} {'frac':<10} "
          f"{bad} of {n} items; skipped {result['skipped']}")
    for f in result["failures"][:10]:
        print(f"FAILED item {f['item']} {f['kind']} {f['args']}: "
              f"{f['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few items per pass, one set-up probe")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"BENCH_{label}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
