"""Time the orbit-closure kernel `gds._closures` and its callers.

Four circle systems:

- golden: rotations by 2 pi (1 - phi) and by 0.7 turns, guided at
  {0, pi} and {pi/2, 3 pi/2} (phi the golden section 0.618...);
- sqrt2-rad: rotations by sqrt(2) and 2 sqrt(2) rad, unguided (a close
  rational approximant, so its closures take many levels);
- one-rad: rotations by 1 and 2 rad, unguided;
- circle-irrational: the system of configs/circle_irrational.json,
  rotations by 2 pi phi and 0.3 turns guided as golden is.

golden and sqrt2-rad each run three frontiers:

- thin: one seed, eps 0.002, fine_mult 8, depth 10**4, keeping the
  representatives and retiring the seed on full coverage, as the second
  rung of `orbit --eps 0.002` runs it; a few new cells per level, so the
  fixed cost of a level dominates;
- wide: one seed per eps-cell (629 seeds), eps 0.01, fine_mult 16, depth
  10**5, retiring seeds on full coverage and on reaching an earlier
  seed's start cell (orbit inclusion, as the kernel settles a run of
  many seeds that keeps no points), as the first pass of `probe --eps
  0.01` runs it;
- wide-target: the same seeds, retiring those that enter B(1.0, 0.01) or
  reach an earlier seed's start cell and marking no coverage, as the
  first pass of `weak-attractor --eps 0.01 --x0 1.0` runs it.

one-rad runs thin-starved: thin's seed and depth at eps 0.005 and
fine_mult 2, as the first rung of `orbit --eps 0.005` runs it in the
timed checkout. It never reaches full coverage, so it shows what
counting coverage costs per level. circle-irrational runs wide at eps
0.002 (3142 seeds), as the first pass of `probe --eps 0.002` runs it.

For each it prints the levels run, the candidates made (the seeds plus
every generator image, counted in a separate run), microseconds per level
and candidates per second, best of 5. Then it times the whole
`guided_orbit_set` ladder on golden from 0.3 at eps 0.002 and depth
10**4, as `orbit --eps 0.002` runs it: points, levels and milliseconds
per call, best of 5.

The kernel's other caller, `cauchy.propagate_values`, which runs it with
a value payload, is timed on Jensen's equation on [0, 1] at eps 2**-16 and
2**-18, depth k + 4 for eps 2**-k, as `overdet` runs it: the points and
collisions of the cloud and milliseconds per call, best of 5.

    python tools/bench_closures.py
    python tools/bench_closures.py --root ../parent-checkout

`--root` names the checkout whose `src/` is timed (default: the one
holding this script). A case names only its target and whether it keeps
points. BLAS runs on one thread, as the benchmark pins it.
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


# name -> (rotation angles, guiding points per generator or None)
SYSTEMS = {
    "golden": ((TWO_PI * (1.0 - PHI), TWO_PI * 0.7),
               [[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]]),
    "sqrt2-rad": ((math.sqrt(2.0), 2 * math.sqrt(2.0)), None),
    "one-rad": ((1.0, 2.0), None),
    "circle-irrational": ((3.883222077450933, 1.8849555921538759),
                          [[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]]),
}


def _system(gds, parse, name, counter=None):
    """The named system; with a counter (a one-item list), every generator
    adds the size of its images to it."""
    angles, points = SYSTEMS[name]
    maps = [gds.map_from(parse(f"t + {a!r}"), label=i)
            for i, a in enumerate(angles)]
    if counter is not None:
        for g in maps:
            def counted(x, fn=g.fn):
                y = fn(x)
                counter[0] += len(y)
                return y
            g.fn = counted
    guiding = points and [gds.GuidingSet.points(p) for p in points]
    return gds.GuidedSystem(gds.CircleSpace(TWO_PI), maps, guiding)


def _cases(gds):
    """(system, frontier, seeds, depth, eps, fine_mult, kernel kwargs)."""
    space = gds.CircleSpace(TWO_PI)
    seeds = space.cell_left_edges(space.cell_count(0.01))
    thin = {"keep_points": True}
    wide = {}
    for name in ("golden", "sqrt2-rad"):
        yield name, "thin", [0.3], 10 ** 4, 0.002, 8, thin
        yield name, "wide", seeds, 10 ** 5, 0.01, 16, wide
        yield (name, "wide-target", seeds, 10 ** 5, 0.01, 16,
               {"target": 1.0})
    yield "one-rad", "thin-starved", [0.3], 10 ** 4, 0.005, 2, thin
    yield ("circle-irrational", "wide",
           space.cell_left_edges(space.cell_count(0.002)), 10 ** 5, 0.002,
           16, wide)


def _best(call):
    """Best wall time of REPEATS calls, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to time (default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np
    from guided_dynamics import cauchy, gds
    from guided_dynamics.exprlang import parse

    for name, frontier, seeds, depth, eps, mult, kw in _cases(gds):
        system = _system(gds, parse, name)
        seeds = np.asarray(seeds, dtype=float)
        counter = [len(seeds)]
        *_, levels, _ = gds._closures(
            _system(gds, parse, name, counter), seeds, depth, eps, mult,
            500_000, **kw)
        best = _best(lambda: gds._closures(system, seeds, depth, eps, mult,
                                           500_000, **kw))
        # level 0 absorbs the seeds, so `levels` steps run levels + 1
        print(f"{name} {frontier}: {len(seeds)} seed(s), {levels + 1} "
              f"levels, {counter[0]} candidates: "
              f"{best / (levels + 1) * 1e6:.1f} us/level, "
              f"{counter[0] / best:.3g} candidates/s ({best:.3f} s)")

    system = _system(gds, parse, "golden")
    cloud = gds.guided_orbit_set(system, 0.3, 10 ** 4, 0.002)
    best = _best(lambda: gds.guided_orbit_set(system, 0.3, 10 ** 4, 0.002))
    print(f"golden orbit eps=0.002: {len(cloud.points)} points, depth_used "
          f"{cloud.depth_used}: {best * 1e3:.1f} ms")

    problem = cauchy.OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    for k in (16, 18):
        cloud = cauchy.propagate_values(problem, k + 4, 2.0 ** -k)
        best = _best(lambda: cauchy.propagate_values(problem, k + 4,
                                                     2.0 ** -k))
        print(f"jensen propagate eps=2^-{k}: {len(cloud)} points, "
              f"{cloud.collision_owner.size} collisions: "
              f"{best * 1e3:.1f} ms")


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
