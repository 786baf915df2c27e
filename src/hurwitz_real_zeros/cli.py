"""Command-line surface: eval, roots, predict, scan, verify.

Exit codes: 0 success, 1 verification disagreement, 2 domain error,
3 evaluator accuracy failure.  Data goes to stdout, diagnostics to stderr;
identical invocations produce byte-identical output.  Each call builds
only the options of the sub-command it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .bernoulli import IndeterminateSign, even_roots
from .hurwitz import (
    AccuracyError,
    EvalParams,
    Evaluator,
    PoleError,
    StripError,
    hurwitz_zeta_detailed,
)
from .zero_analysis import (
    BOUNDARY,
    YES,
    locate_zeros,
    predict_zero,
    predict_zero_explicit,
    scan_grid,
    uniqueness_check,
    verify_theorem,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_DOMAIN = 2
EXIT_ACCURACY = 3


def _fmt(x: float, digits: int) -> str:
    return f"{float(x):.{digits}g}"


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(args, config: dict, fields: dict, header, rows, table,
          plot=None) -> None:
    """Print one command's result in the requested --format.

    json prints `fields` under the version and run `config`; csv
    prints `header` and `rows`; table prints the `table` lines; plot-xy
    prints the `plot` lines, or the table for commands without a plot form.
    """
    if args.format == "json":
        out = {"version": __version__, "config": config}
        out.update(fields)
        print(json.dumps(out, sort_keys=True))
    elif args.format == "csv":
        import csv  # imported here: queries at the default formats skip it

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        lines = plot if args.format == "plot-xy" and plot else table
        for line in lines:
            print(line)


def _cmd_eval(args, config: dict) -> int:
    res = hurwitz_zeta_detailed(args.sigma, args.a, EvalParams(args.tol))
    d = args.digits
    sigma, a, value = _fmt(args.sigma, d), _fmt(args.a, d), _fmt(res.value, d)
    bound = _fmt(res.error_bound, 3)
    _emit(args, config,
          dict(sigma=args.sigma, a=args.a, value=res.value,
               error_bound=res.error_bound),
          ["sigma", "a", "value", "error_bound"], [[sigma, a, value, bound]],
          [f"zeta({sigma}, {a}) = {value}  (error bound {bound})"],
          [f"# zeta(sigma, a={a})", f"{sigma} {value}"])
    return EXIT_OK


def _cmd_roots(args, config: dict) -> int:
    n = args.n
    if n < 2:
        raise ValueError("root query requires n >= 2")
    d = args.digits
    if n % 2 == 1:
        b_minus, b_plus = 0.0, 0.5
        note = "exact: odd-index roots in [0,1/2) and [1/2,1) are 0 and 1/2"
    else:
        pair = even_roots(n)
        b_minus, b_plus = pair.b_minus, pair.b_plus
        note = ""
    lo, hi = _fmt(b_minus, d), _fmt(b_plus, d)
    _emit(args, config, dict(n=n, b_minus=b_minus, b_plus=b_plus, note=note),
          ["n", "b_minus", "b_plus", "note"], [[n, lo, hi, note]],
          [f"b{n}^- = {lo}", f"b{n}^+ = {hi}"] + ([note] if note else []),
          [f"# roots of Bernoulli polynomial n={n}", f"{lo} 0", f"{hi} 0"])
    return EXIT_OK


def _cmd_predict(args, config: dict) -> int:
    pred = predict_zero(args.N, args.a)
    d = args.digits
    explicit = None
    explicit_note = ""
    if args.N >= 0 and 0.0 < args.a < 1.0:
        try:
            explicit = predict_zero_explicit(args.N, args.a)
        except IndeterminateSign as exc:
            explicit_note = f"explicit form indeterminate: {exc}"
    mismatch = (explicit is not None and pred.exists != BOUNDARY
                and explicit != (pred.exists == YES))
    b_left, b_right = _frac_str(pred.b_left), _frac_str(pred.b_right)
    table = [f"interval (-{pred.N + 1}, {-pred.N}): {pred.exists}"]
    for idx, val in ((pred.N + 1, pred.b_left), (pred.N + 2, pred.b_right)):
        # exact p/q only when it is readable; float a inputs produce
        # denominators around 2^52 that help nobody at a terminal
        if val.denominator <= 10 ** 12:
            table.append(f"B_{idx}(a) = {_frac_str(val)} = {_fmt(val, d)}")
        else:
            table.append(f"B_{idx}(a) = {_fmt(val, d)}")
    if explicit is not None:
        table.append(f"explicit range classification: {explicit}")
    if explicit_note:
        table.append(explicit_note)
    if mismatch:
        table.append("WARNING: explicit form disagrees with the product sign")
    _emit(args, config,
          dict(N=pred.N, a=pred.a, exists=pred.exists, b_left=b_left,
               b_right=b_right, explicit=explicit,
               explicit_note=explicit_note, mismatch=mismatch),
          ["N", "a", "exists", "B_left", "B_right", "explicit", "mismatch"],
          # str(): the csv module writes None as an empty cell
          [[pred.N, _fmt(pred.a, d), pred.exists, b_left, b_right,
            str(explicit), mismatch]],
          table)
    return EXIT_OK


def _cmd_scan(args, config: dict) -> int:
    d = args.digits
    params = EvalParams(args.tol)
    a = _fmt(args.a, d)
    if args.curve:
        sigmas = scan_grid(args.N, args.grid, args.tol)
        ev = Evaluator(args.a, params)
        values = [ev(s)[0] for s in sigmas]
        print(f"# zeta(sigma, a={a}) on ({-args.N - 1}, {-args.N})")
        for s, v in zip(sigmas, values):
            print(f"{_fmt(s, d)} {_fmt(v, d)}")
        return EXIT_OK
    zeros = locate_zeros(args.N, args.a, args.grid, params)
    interval = f"(-{args.N + 1}, {-args.N})"
    rows = [[args.N, a, _fmt(z.sigma, d), _fmt(z.bracket_halfwidth, 3),
             _fmt(z.residual, 3)] for z in zeros]
    table = [f"zero at sigma = {sigma}  (bracket +/- {halfwidth}, "
             f"residual {residual})"
             for _, _, sigma, halfwidth, residual in rows]
    _emit(args, config, dict(N=args.N, a=args.a,
                             zeros=[asdict(z) for z in zeros]),
          ["N", "a", "sigma", "bracket_halfwidth", "residual"], rows,
          table or [f"no zeros found in {interval}"],
          [f"# zeros of zeta(sigma, a={a}) in {interval}"]
          + [f"{row[2]} 0" for row in rows])
    return EXIT_OK


def _cmd_verify(args, config: dict) -> int:
    d = args.digits
    if not 0.0 < args.astep < 1.0:
        raise ValueError("a-step must satisfy 0 < astep < 1")
    grid = []
    k = 1
    while k * args.astep < 1.0 - 1e-12:
        grid.append(k * args.astep)
        k += 1
    params = EvalParams(args.tol)
    report = verify_theorem(grid, args.nmin, args.nmax,
                            exclusion_delta=args.delta,
                            grid_points=args.grid, params=params)
    uniq = []
    if args.uniqueness:
        m_lo = max(2, math.ceil(max(args.nmin, 0) / 2))
        m_hi = max(m_lo, (args.nmax - 1) // 2)
        uniq = [(m, a, uniqueness_check(m, a, args.grid, params))
                for m in range(m_lo, m_hi + 1) for a in grid]
    cases, rows = [], []
    table = [f"theorem sweep N in [{args.nmin}, {args.nmax}], "
             f"a step {_fmt(args.astep, d)}"]
    for c in report.cases:
        b_left, b_right = _frac_str(c.b_left), _frac_str(c.b_right)
        sigmas = ";".join(_fmt(z.sigma, d) for z in c.zeros)
        cases.append({"N": c.N, "a": c.a, "B_left": b_left,
                      "B_right": b_right, "predicted": c.predicted,
                      "zeros": [z.sigma for z in c.zeros],
                      "agrees": c.agrees, "note": c.note})
        agrees = "" if c.agrees is None else str(c.agrees).lower()
        rows.append([c.N, _fmt(c.a, d), b_left, b_right, c.predicted,
                     len(c.zeros), sigmas, agrees, c.note])
        flag = ("ok" if c.agrees else
                "skip" if c.agrees is None else "DISAGREE")
        table.append(f"  N={c.N:>2} a={_fmt(c.a, 6):>8} "
                     f"predicted={c.predicted:<8} zeros={len(c.zeros)} "
                     f"[{sigmas}] {flag}")
    table.append(f"agree={report.n_agree} disagree={report.n_disagree} "
                 f"skipped={report.n_skipped}")
    table += [f"  uniqueness M={m} a={_fmt(a, 6)}: count={n} "
              f"{'ok' if n == 1 else 'FAIL'}" for (m, a, n) in uniq]
    _emit(args, config,
          dict(nmin=args.nmin, nmax=args.nmax, astep=args.astep,
               agree=report.n_agree, disagree=report.n_disagree,
               skipped=report.n_skipped, cases=cases,
               uniqueness=[{"M": m, "a": a, "count": n}
                           for (m, a, n) in uniq]),
          ["N", "a", "B_left", "B_right", "predicted", "zeros_found",
           "sigmas", "agrees", "note"], rows, table)
    if report.n_disagree or any(n != 1 for (_, _, n) in uniq):
        return EXIT_DISAGREE
    return EXIT_OK


def build_parser(command=None) -> argparse.ArgumentParser:
    """The hzeta parser with all five sub-commands; only `command`'s
    options are added, or every sub-command's when `command` is None."""
    parser = argparse.ArgumentParser(
        prog="hzeta",
        description="Real zeros of the Hurwitz zeta function: evaluation, "
                    "Bernoulli root data, predictions, and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        """Register sub-command `name`; return its parser if its options
        are to be added, else None."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p if command in (None, name) else None

    def common(p, *options):
        """--digits, --format and the named ones of tol, grid, delta."""
        p.add_argument("--digits", type=int, default=12,
                       help="significant digits in numeric output")
        p.add_argument("--format", choices=["table", "csv", "json",
                                            "plot-xy"], default="table")
        if "tol" in options:
            p.add_argument("--tol", type=float, default=1e-10,
                           help="evaluator target and zero bracket "
                                "half-width")
        if "grid" in options:
            p.add_argument("--grid", type=int, default=512,
                           help="scan grid points per interval")
        if "delta" in options:
            p.add_argument("--delta", type=float, default=1e-3,
                           help="boundary exclusion distance for sweeps")

    p = add("eval", _cmd_eval, "evaluate zeta(sigma, a)")
    if p:
        p.add_argument("--sigma", type=float, required=True,
                       help="real argument; write a negative value in "
                            "exponent form as --sigma=-2.5e-05")
        p.add_argument("--a", type=float, required=True)
        common(p, "tol")

    p = add("roots", _cmd_roots, "roots of the nth Bernoulli polynomial")
    if p:
        p.add_argument("--n", type=int, required=True)
        common(p)

    p = add("predict", _cmd_predict,
            "zero-existence prediction for (-N-1, -N)")
    if p:
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--a", type=float, required=True)
        common(p)

    p = add("scan", _cmd_scan, "locate zeros numerically")
    if p:
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--curve", action="store_true",
                       help="emit the scanned (sigma, zeta) curve instead")
        common(p, "tol", "grid")

    p = add("verify", _cmd_verify,
            "sweep predictions against the numeric harness")
    if p:
        p.add_argument("--nmin", type=int, required=True)
        p.add_argument("--nmax", type=int, required=True)
        p.add_argument("--astep", type=float, required=True)
        p.add_argument("--uniqueness", action="store_true",
                       help="also count zeros per deep interval "
                            "[-2M-2, -2M)")
        common(p, "tol", "grid", "delta")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the first token names the sub-command: the top-level options exit
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if "tol" in args and not 0.0 < args.tol < math.inf:
            raise ValueError("tolerances must be finite and positive")
        if "delta" in args and not 0.0 < args.delta < math.inf:
            raise ValueError("exclusion delta must be finite and positive")
        if args.digits < 1:
            raise ValueError("digits must be >= 1")
        # echoed into every JSON report: the options this command has
        config = {key: getattr(args, name) for name, key in (
            ("tol", "target_abs_error"), ("grid", "grid_points"),
            ("delta", "exclusion_delta")) if name in args}
        config.update(digits=args.digits, deterministic=True)
        return args.func(args, config)
    except (PoleError, StripError, IndeterminateSign, ValueError,
            TypeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
