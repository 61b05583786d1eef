"""Time the CSV output layer, `gds.write_csv`, against `np.savetxt`.

Writes point clouds in the shapes the CLI writes most: 2**18 + 1 rows x 2
columns (`solve-fe --out`, a grid `t,value`), 2**19 + 1 rows x 3 columns
(`overdet --out` on Jensen at eps 2**-18, `t,value,depth`) and 2**14 rows
x 2 columns, one block of `write_csv`, so the cost of its threaded path on
a small CSV shows. Each goes into a scratch directory, and the script
prints ns per number for each writer: the best, the median and the
quartiles of its repeats (a best-of alone hides contention), and the
number of threads `write_csv` formatted blocks on. Both writers write the
same bytes; the script checks that too. On the `t,value,depth` shape it
also times `write_csv` on the two float columns alone and on the integer
`depth` column alone, so each formatting path shows its own cost per
number.

    python tools/bench_csv.py
    python tools/bench_csv.py --root ../parent-checkout

`--root` names the checkout whose `src/` is timed (default: the one
holding this script). BLAS runs on one thread, as the benchmark pins it.
"""

import argparse
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

SHAPES = ((2 ** 14, "t,value"), (2 ** 18 + 1, "t,value"),
          (2 ** 19 + 1, "t,value,depth"))
REPEATS = 7


def _columns(rows, n_columns):
    import numpy as np

    t = np.linspace(-1.0, 1.0, rows)
    depth = np.random.default_rng(1).integers(0, 19, rows)
    return [t, np.sin(3.0 * t) + t * t, depth][:n_columns]


def _ns(write, path, numbers):
    """'best B, median M [Q1-Q3] ns/number' over REPEATS writes."""
    ns = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        write(path)
        ns.append((time.perf_counter() - start) / numbers * 1e9)
    q1, median, q3 = statistics.quantiles(ns, n=4)
    return f"best {min(ns):.0f}, median {median:.0f} [{q1:.0f}-{q3:.0f}]"


def _threads_used(gds, write):
    """Distinct threads that format fields during one write."""
    used = set()
    originals = gds._format_fields, gds._format_ints

    def recorded(original):
        def call(*args):
            used.add(threading.get_ident())
            return original(*args)
        return call

    gds._format_fields, gds._format_ints = map(recorded, originals)
    try:
        write()
    finally:
        gds._format_fields, gds._format_ints = originals
    return len(used)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to time (default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np
    from guided_dynamics import gds
    from guided_dynamics.gds import write_csv

    differ = False
    with tempfile.TemporaryDirectory() as scratch:
        ours, ref = Path(scratch) / "ours.csv", Path(scratch) / "ref.csv"
        for rows, header in SHAPES:
            columns = _columns(rows, header.count(",") + 1)
            numbers = rows * len(columns)
            threads = _threads_used(
                gds, lambda: write_csv(ours, header, columns))
            ns = _ns(lambda p: write_csv(p, header, columns), ours, numbers)
            ref_ns = _ns(lambda p: np.savetxt(
                p, np.column_stack(columns), fmt="%.17g", delimiter=",",
                header=header, comments=""), ref, numbers)
            same = ours.read_bytes() == ref.read_bytes()
            differ |= not same
            print(f"{rows} rows x {len(columns)} columns, write_csv on "
                  f"{threads} thread{'s' if threads > 1 else ''}:\n"
                  f"  write_csv {ns} ns/number\n"
                  f"  np.savetxt {ref_ns} ns/number"
                  f"{'' if same else ' (BYTES DIFFER)'}")
            if len(columns) == 3:
                floats_ns = _ns(lambda p: write_csv(
                    p, "t,value", columns[:2]), ours, 2 * rows)
                int_ns = _ns(lambda p: write_csv(
                    p, "depth", columns[2:]), ours, rows)
                print(f"  write_csv alone: t,value {floats_ns} ns/number\n"
                      f"  write_csv alone: depth {int_ns} ns/number")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
