"""Time the CSV output layer, `gds.write_csv`, against `np.savetxt`.

Writes two point clouds in the shapes the CLI writes most: 2**18 + 1 rows
x 2 columns (`solve-fe --out`, a grid `t,value`) and 2**19 + 1 rows x 3
columns (`overdet --out` on Jensen at eps 2**-18, `t,value,depth`), into a
scratch directory, and prints ns per number for each writer, best of 5.
Both write the same bytes; the script checks that too. On the
`t,value,depth` shape it also times `write_csv` on the two float columns
alone and on the integer `depth` column alone, so each formatting path
shows its own cost per number.

    python tools/bench_csv.py
    python tools/bench_csv.py --root ../parent-checkout

`--root` names the checkout whose `src/` is timed (default: the one
holding this script). BLAS runs on one thread, as the benchmark pins it.
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

SHAPES = ((2 ** 18 + 1, "t,value"), (2 ** 19 + 1, "t,value,depth"))
REPEATS = 5


def _columns(rows, n_columns):
    import numpy as np

    t = np.linspace(-1.0, 1.0, rows)
    depth = np.random.default_rng(1).integers(0, 19, rows)
    return [t, np.sin(3.0 * t) + t * t, depth][:n_columns]


def _best_ns(write, path, numbers):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        write(path)
        best = min(best, time.perf_counter() - start)
    return best / numbers * 1e9


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to time (default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np
    from guided_dynamics.gds import write_csv

    differ = False
    with tempfile.TemporaryDirectory() as scratch:
        ours, ref = Path(scratch) / "ours.csv", Path(scratch) / "ref.csv"
        for rows, header in SHAPES:
            columns = _columns(rows, header.count(",") + 1)
            numbers = rows * len(columns)
            ns = _best_ns(lambda p: write_csv(p, header, columns), ours,
                          numbers)
            ref_ns = _best_ns(lambda p: np.savetxt(
                p, np.column_stack(columns), fmt="%.17g", delimiter=",",
                header=header, comments=""), ref, numbers)
            same = ours.read_bytes() == ref.read_bytes()
            differ |= not same
            print(f"{rows} rows x {len(columns)} columns: write_csv "
                  f"{ns:.0f} ns/number, np.savetxt {ref_ns:.0f} ns/number"
                  f"{'' if same else ' (BYTES DIFFER)'}")
            if len(columns) == 3:
                floats_ns = _best_ns(lambda p: write_csv(
                    p, "t,value", columns[:2]), ours, 2 * rows)
                int_ns = _best_ns(lambda p: write_csv(
                    p, "depth", columns[2:]), ours, rows)
                print(f"  write_csv alone: t,value {floats_ns:.0f} "
                      f"ns/number, depth {int_ns:.0f} ns/number")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
