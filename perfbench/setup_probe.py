"""Set-up cost in a fresh interpreter: cold import of the package and its
CLI, then a first call on each evaluator path and one CLI query.

Run by run.py as `python -X importtime perfbench/setup_probe.py` with the
package's `src` on PYTHONPATH; prints {"setup_s": ...} on stdout.
"""

import contextlib
import io
import json
import time

FIRST_QUERY = ["predict", "--N=3", "--a=0.37", "--format=json"]


def main() -> None:
    t0 = time.perf_counter()
    import hurwitz_real_zeros
    from hurwitz_real_zeros import cli

    hurwitz_real_zeros.hurwitz_zeta(-2.5, 0.37)   # float Euler-Maclaurin
    hurwitz_real_zeros.hurwitz_zeta(-7.5, 0.37)   # guarded mpmath
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(FIRST_QUERY)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"first query exited {code}")
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
