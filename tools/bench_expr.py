"""Time the expression layer, `Expression.eval`, on the expressions the
benchmark's workloads evaluate on grids.

The expressions come from the benchmark's own generator at seed 1
(`perfbench/workloads.py`, written into a scratch directory):

- funceq h: the `solve-fe` right-hand side of `grid-solve`;
- quadratic h: the `solve-ivp` right-hand side on the quadratic
  P-configuration, and its second derivative h'' (what `solve_ivp`
  evaluates on its nodes);
- bvp gGamma: the boundary data of the curved domain of `bvp`, in z.

Each is evaluated at 2**12, 2**15 and 2**18 + 1 points of [-1, 1]. For
each expression and size the script prints the best of 7 `eval` times,
the tracemalloc peak of one `eval` (allocations made during the call,
above what was allocated before it), and the number of statements
(assignments) in the compiled body.

    python tools/bench_expr.py
    python tools/bench_expr.py --root ../parent-checkout

`--root` names the checkout whose `src/` is timed (default: the one
holding this script); the expressions always come from this checkout's
`perfbench/`. BLAS runs on one thread, as the benchmark pins it.
"""

import argparse
import dis
import gc
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SIZES = (2 ** 12, 2 ** 15, 2 ** 18 + 1)
REPEATS = 7


def _sources(out):
    """(label, source, variable, derivatives) of each expression."""
    sys.path.insert(0, str(HERE))
    from perfbench import workloads

    def problem(workload, name):
        workloads.build(workload, 1, out / workload)
        path = out / workload / f"{name}.json"
        return json.loads(path.read_text())["problem"]

    funceq = problem("grid-solve", "funceq")
    quadratic = problem("grid-solve", "pconf-quadratic")
    curved = problem("bvp", "curved")
    return (("funceq h", funceq["h"], "t", 0),
            ("quadratic h", quadratic["h"], "t", 0),
            ("quadratic h''", quadratic["h"], "t", 2),
            ("bvp gGamma", curved["gGamma"], "z", 0))


def _statements(fn):
    """Assignments to the body's value names (v0, v1, ...)."""
    return sum(1 for ins in dis.get_instructions(fn)
               if ins.opname == "STORE_FAST" and ins.argval.startswith("v"))


def _best_s(expr, xs):
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        expr.eval(xs)
        best = min(best, time.perf_counter() - start)
    return best


def _peak_mb(expr, xs):
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    expr.eval(xs)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak / 2 ** 20


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE, type=Path,
                        help="checkout to time (default: this one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sources = _sources(Path(tmp))
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np
    from guided_dynamics.exprlang import differentiate, parse

    for label, source, var, order in sources:
        expr = parse(source, var=var)
        for _ in range(order):
            expr = differentiate(expr)
        expr.eval(0.5)
        statements = _statements(expr._compiled)
        for n in SIZES:
            xs = np.linspace(-1.0, 1.0, n)
            expr.eval(xs)
            print(f"{label} n={n}: {_best_s(expr, xs) * 1e3:.2f} ms, "
                  f"peak {_peak_mb(expr, xs):.1f} MB, "
                  f"{statements} statements")


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
