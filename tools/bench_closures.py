"""Time the batched orbit-closure kernel, `gds._closures`, alone.

Two frontiers on the golden-type circle system: rotations by
2 pi (1 - phi) and by 0.7 turns, guided at {0, pi} and {pi/2, 3 pi/2}
(phi the golden section 0.618...):

- thin: one seed, eps 0.002, fine_mult 8, depth 10**4, keeping the
  representatives, as `orbit --eps 0.002` runs it; a few new cells per
  level, so the fixed cost of a level dominates;
- wide: one seed per eps-cell (629 seeds), eps 0.01, fine_mult 16, depth
  10**5, retiring seeds on full coverage, as `probe --eps 0.01` runs it.

For each it prints the levels run, the candidates made (the seeds plus
every generator image, counted in a separate run), microseconds per level
and candidates per second, best of 5.

    python tools/bench_closures.py
    python tools/bench_closures.py --root ../parent-checkout

`--root` names the checkout whose `src/` is timed (default: the one
holding this script). BLAS runs on one thread, as the benchmark pins it.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

TWO_PI = 2.0 * math.pi
PHI = (math.sqrt(5.0) - 1.0) / 2.0
REPEATS = 5


def _system(gds, parse, counter=None):
    """The golden-type system; with a counter (a one-item list), every
    generator adds the size of its images to it."""
    maps = [gds.map_from(parse(f"t + {TWO_PI * v!r}"), label=i)
            for i, v in enumerate((1.0 - PHI, 0.7))]
    if counter is not None:
        for g in maps:
            def counted(x, fn=g.fn):
                y = fn(x)
                counter[0] += len(y)
                return y
            g.fn = counted
    guiding = [gds.GuidingSet.points([0.0, math.pi]),
               gds.GuidingSet.points([math.pi / 2, 3 * math.pi / 2])]
    return gds.GuidedSystem(gds.CircleSpace(TWO_PI), maps, guiding)


def _cases(gds):
    space = gds.CircleSpace(TWO_PI)
    seeds = space.cell_left_edges(space.cell_count(0.01))
    return (("thin", [0.3], 10 ** 4, 0.002, 8, {"keep_points": True}),
            ("wide", seeds, 10 ** 5, 0.01, 16, {"retire_covered": True}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to time (default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np
    from guided_dynamics import gds
    from guided_dynamics.exprlang import parse

    system = _system(gds, parse)
    for name, seeds, depth, eps, mult, kw in _cases(gds):
        seeds = np.asarray(seeds, dtype=float)
        counter = [len(seeds)]
        *_, levels, _ = gds._closures(_system(gds, parse, counter), seeds,
                                      depth, eps, mult, 500_000, **kw)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            gds._closures(system, seeds, depth, eps, mult, 500_000, **kw)
            best = min(best, time.perf_counter() - start)
        # level 0 absorbs the seeds, so `levels` steps run levels + 1
        print(f"{name}: {len(seeds)} seed(s), {levels + 1} levels, "
              f"{counter[0]} candidates: {best / (levels + 1) * 1e6:.1f} "
              f"us/level, {counter[0] / best:.3g} candidates/s "
              f"({best:.3f} s)")


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
