"""Time the layers of a `gds` run one at a time.

    python tools/bench_layers.py LAYER... [--root PATH] [--repeats N]
    python tools/bench_layers.py closures csv expr bvp startup
    python tools/bench_layers.py bvp --root ../parent-checkout

`--root` names the checkout whose `src/` and `configs/` are timed
(default: the one holding this script). Every timed row gives the best,
the median and the quartiles of `--repeats` runs (default 7; a best-of
alone hides contention). BLAS runs on one thread, as the benchmark pins
it. The layers:

closures -- the orbit-closure kernel `gds._closures` on four circle
  systems: golden (rotations by 2 pi (1 - phi) and 0.7 turns, guided at
  {0, pi} and {pi/2, 3 pi/2}), sqrt2-rad (sqrt(2) and 2 sqrt(2) rad,
  unguided; a close rational approximant makes its closures long),
  one-rad (1 and 2 rad, unguided) and circle-irrational (the system of
  configs/circle_irrational.json). The frontiers are those of real runs:
  thin is one seed at eps 0.002, fine_mult 8, keeping its points (the
  second rung of `orbit --eps 0.002`); wide is one seed per eps-cell at
  eps 0.01, fine_mult 16 (the first pass of `probe --eps 0.01`);
  wide-target retires seeds that enter B(1.0, 0.01) (the first pass of
  `weak-attractor --eps 0.01 --x0 1.0`); one-rad thin-starved runs thin at
  eps 0.005, fine_mult 2 and never covers the circle, so it shows what
  counting coverage costs; circle-irrational runs wide at eps 0.002. A row
  gives the levels run, the candidates made (seeds plus generator images,
  counted in a separate run) and microseconds per level. Then the whole
  `guided_orbit_set` ladder on golden from 0.3 at eps 0.002 (points and
  depth used), and `cauchy.propagate_values` on Jensen's equation on
  [0, 1] at eps 2**-16 and 2**-18, depth k + 4 (points and collisions).
csv -- `gds.write_csv` against `np.savetxt` on 2**14 x 2, 2**18 + 1 x 2
  (`solve-fe --out`) and 2**19 + 1 x 3 (`overdet --out` on Jensen at
  eps 2**-18, `t,value,depth`) point clouds, in ns per number, with the
  threads `write_csv` formatted on; on the 3-column shape also its two
  float columns and its integer column alone. Both writers must write
  the same bytes: the tool exits 1 when they do not.
expr -- `Expression.eval` on the expressions the benchmark's workloads
  evaluate on grids (generated at seed 1 from this checkout's
  `perfbench/`): the `solve-fe` h of `grid-solve`, the quadratic
  P-configuration's h and h'', and the curved `bvp` domain's gGamma, at
  2**12, 2**15 and 2**18 + 1 points, with the tracemalloc peak of one call
  and the statement count of the compiled body.
bvp -- each stage of `solve-bvp` at its defaults (M = 512, eps 0.01) on
  configs/straight_bvp.json and configs/curved_bvp.json: build, analyze,
  reduce, solve_ivp (the chi solve) and verify, timed by wrappers in the
  `bvp` module, and their sum per run; and the conjugacy check,
  `verify_conjugacy` as `verify-conjugacy` runs it at seed 0 (`solve-bvp`
  does not). A separate, untimed run counts the z(t) elements each stage
  asks for and how many are distinct (by exact bits).
startup -- each subcommand on one `configs/` file in a fresh interpreter,
  from `import guided_dynamics` to the return of `cli.main` (interpreter
  start-up itself is not counted; compiling the package is, unless its
  bytecode is cached), with the exit code, the SciPy subpackages and the
  package modules loaded by then.
"""

import argparse
import dis
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * math.pi
PHI = (math.sqrt(5.0) - 1.0) / 2.0


def wall(call):
    """Wall seconds of one call(), after a garbage collection."""
    gc.collect()
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def summary(seconds, unit="ms", scale=1e3):
    """'best B, median M [Q1-Q3] unit' of the runs' seconds times scale."""
    xs = [s * scale for s in seconds]
    q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
        else xs * 3

    def fmt(x):     # three significant digits, fixed point
        return f"{x:.{max(0, 2 - math.floor(math.log10(abs(x))))}f}" \
            if x else "0"
    return (f"best {fmt(min(xs))}, median {fmt(median)} "
            f"[{fmt(q1)}-{fmt(q3)}] {unit}")


# name -> (rotation angles, guiding points per generator or None)
SYSTEMS = {
    "golden": ((TWO_PI * (1.0 - PHI), TWO_PI * 0.7),
               [[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]]),
    "sqrt2-rad": ((math.sqrt(2.0), 2 * math.sqrt(2.0)), None),
    "one-rad": ((1.0, 2.0), None),
    "circle-irrational": ((3.883222077450933, 1.8849555921538759),
                          [[0.0, math.pi], [math.pi / 2, 3 * math.pi / 2]]),
}


def _circle_system(name, counter=None):
    """The named system; with a counter (a one-item list), every generator
    adds the size of its images to it."""
    from guided_dynamics import gds
    from guided_dynamics.exprlang import parse
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


def run_closures(root, repeats):
    import numpy as np
    from guided_dynamics import cauchy, gds
    space = gds.CircleSpace(TWO_PI)
    per_cell = space.cell_left_edges(space.cell_count(0.01))
    thin = {"keep_points": True}
    # (system, frontier, seeds, depth, eps, fine_mult, kernel keywords)
    cases = [(name, frontier, seeds, depth, eps, mult, kw)
             for name in ("golden", "sqrt2-rad")
             for frontier, seeds, depth, eps, mult, kw in (
                 ("thin", [0.3], 10 ** 4, 0.002, 8, thin),
                 ("wide", per_cell, 10 ** 5, 0.01, 16, {}),
                 ("wide-target", per_cell, 10 ** 5, 0.01, 16,
                  {"target": 1.0}))]
    cases += [("one-rad", "thin-starved", [0.3], 10 ** 4, 0.005, 2, thin),
              ("circle-irrational", "wide",
               space.cell_left_edges(space.cell_count(0.002)), 10 ** 5,
               0.002, 16, {})]
    for name, frontier, seeds, depth, eps, mult, kw in cases:
        system = _circle_system(name)
        seeds = np.asarray(seeds, dtype=float)
        counter = [len(seeds)]
        *_, levels, _ = gds._closures(_circle_system(name, counter), seeds,
                                      depth, eps, mult, 500_000, **kw)
        runs = [wall(lambda: gds._closures(system, seeds, depth, eps, mult,
                                           500_000, **kw))
                for _ in range(repeats)]
        # level 0 absorbs the seeds, so `levels` steps run levels + 1
        print(f"{name} {frontier}: {len(seeds)} seed(s), {levels + 1} "
              f"levels, {counter[0]} candidates: "
              f"{summary(runs, 'us/level', 1e6 / (levels + 1))}, "
              f"{counter[0] / statistics.median(runs):.3g} candidates/s "
              f"at the median")

    system = _circle_system("golden")
    cloud = gds.guided_orbit_set(system, 0.3, 10 ** 4, 0.002)
    runs = [wall(lambda: gds.guided_orbit_set(system, 0.3, 10 ** 4, 0.002))
            for _ in range(repeats)]
    print(f"golden orbit eps=0.002: {len(cloud.points)} points, depth_used "
          f"{cloud.depth_used}: {summary(runs)}")

    problem = cauchy.OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    for k in (16, 18):
        cloud = cauchy.propagate_values(problem, k + 4, 2.0 ** -k)
        runs = [wall(lambda: cauchy.propagate_values(problem, k + 4,
                                                     2.0 ** -k))
                for _ in range(repeats)]
        print(f"jensen propagate eps=2^-{k}: {len(cloud)} points, "
              f"{cloud.collision_owner.size} collisions: {summary(runs)}")


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


def run_csv(root, repeats):
    """Returns 1 when the two writers' bytes differ."""
    import numpy as np
    from guided_dynamics import gds

    def ns(write, numbers):
        return summary([wall(write) for _ in range(repeats)], "ns/number",
                       1e9 / numbers)

    differ = False
    with tempfile.TemporaryDirectory() as scratch:
        ours, ref = Path(scratch) / "ours.csv", Path(scratch) / "ref.csv"
        for rows, header in ((2 ** 14, "t,value"), (2 ** 18 + 1, "t,value"),
                             (2 ** 19 + 1, "t,value,depth")):
            t = np.linspace(-1.0, 1.0, rows)
            depth = np.random.default_rng(1).integers(0, 19, rows)
            columns = [t, np.sin(3.0 * t) + t * t, depth][
                :header.count(",") + 1]
            numbers = rows * len(columns)
            threads = _threads_used(
                gds, lambda: gds.write_csv(ours, header, columns))
            ours_ns = ns(lambda: gds.write_csv(ours, header, columns),
                         numbers)
            ref_ns = ns(lambda: np.savetxt(
                ref, np.column_stack(columns), fmt="%.17g", delimiter=",",
                header=header, comments=""), numbers)
            same = ours.read_bytes() == ref.read_bytes()
            differ |= not same
            print(f"{rows} rows x {len(columns)} columns, write_csv on "
                  f"{threads} thread{'s' if threads > 1 else ''}:\n"
                  f"  write_csv {ours_ns}\n  np.savetxt {ref_ns}"
                  f"{'' if same else ' (BYTES DIFFER)'}")
            if len(columns) == 3:
                floats_ns = ns(lambda: gds.write_csv(
                    ours, "t,value", columns[:2]), 2 * rows)
                int_ns = ns(lambda: gds.write_csv(
                    ours, "depth", columns[2:]), rows)
                print(f"  write_csv alone: t,value {floats_ns}\n"
                      f"  write_csv alone: depth {int_ns}")
    return int(differ)


def _expr_sources():
    """(label, source, variable, derivatives) of each expression."""
    sys.path.append(str(HERE))
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        def problem(workload, name):
            workloads.build(workload, 1, Path(tmp) / workload)
            path = Path(tmp) / workload / f"{name}.json"
            return json.loads(path.read_text())["problem"]

        funceq = problem("grid-solve", "funceq")
        quadratic = problem("grid-solve", "pconf-quadratic")
        curved = problem("bvp", "curved")
    return (("funceq h", funceq["h"], "t", 0),
            ("quadratic h", quadratic["h"], "t", 0),
            ("quadratic h''", quadratic["h"], "t", 2),
            ("bvp gGamma", curved["gGamma"], "z", 0))


def run_expr(root, repeats):
    import numpy as np
    from guided_dynamics.exprlang import differentiate, parse
    for label, source, var, order in _expr_sources():
        e = parse(source, var=var)
        for _ in range(order):
            e = differentiate(e)
        e.eval(0.5)
        # assignments to the compiled body's value names (v0, v1, ...)
        statements = sum(1 for ins in dis.get_instructions(e._compiled)
                         if ins.opname == "STORE_FAST"
                         and ins.argval.startswith("v"))
        for n in (2 ** 12, 2 ** 15, 2 ** 18 + 1):
            xs = np.linspace(-1.0, 1.0, n)
            e.eval(xs)
            runs = [wall(lambda: e.eval(xs)) for _ in range(repeats)]
            # allocations made during one call, above those before it
            gc.collect()
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            e.eval(xs)
            peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.stop()
            print(f"{label} n={n}: {summary(runs)}, peak "
                  f"{peak / 2 ** 20:.1f} MB, {statements} statements")


# (row, function of the bvp module it times)
BVP_STAGES = (("build", "build_boundary_system"),
              ("analyze", "analyze_solvability"),
              ("reduce", "reduce_boundary_data"),
              ("solve_ivp", "solve_ivp"),
              ("verify", "verify_solution"))


def run_bvp(root, repeats):
    import numpy as np
    from guided_dynamics import bvp, cli
    # each stage records its seconds in log[row] and names itself in
    # log["stage"] while it runs, for the z(t) counts
    log = {}
    for row, name in BVP_STAGES + (("conjugacy", "verify_conjugacy"),):
        def timed(*args, fn=getattr(bvp, name), row=row, **kwargs):
            outer = log.get("stage")
            log["stage"] = row
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log[row] = time.perf_counter() - start
                log["stage"] = outer
        setattr(bvp, name, timed)

    def z_bits(call):
        """Run call() with every boundary system's z_of_t recording the
        bits of its inputs; {row: [int64 arrays]}."""
        bits, make = {}, bvp._make_z_of_t

        def counted_make(*args):
            z_of_t = make(*args)

            def counted(t):
                keys = np.array(t, dtype=float).ravel().view(np.int64)
                bits.setdefault(log.get("stage"), []).append(keys)
                return z_of_t(t)
            return counted
        bvp._make_z_of_t = counted_make
        try:
            call()
        finally:
            bvp._make_z_of_t = make
        return bits

    seed0 = argparse.Namespace(seed=0)
    for config in ("straight_bvp.json", "curved_bvp.json"):
        cfg = cli.load_config(str(root / "configs" / config))
        problem = cli._bvp_problem(cfg)

        def solve():
            bvp.solve_bvp(problem)

        def check():
            cli.cmd_verify_conjugacy(cfg, seed0)
        bits = z_bits(solve)
        bits["conjugacy"] = z_bits(check)["conjugacy"]
        runs = {row: [] for row, _ in BVP_STAGES}
        for _ in range(repeats):
            wall(solve)
            for row in runs:
                runs[row].append(log[row])
        runs["conjugacy"] = []
        for _ in range(repeats):
            wall(check)
            runs["conjugacy"].append(log["conjugacy"])
        runs["total"] = [sum(stages) for stages in
                         zip(*(runs[row] for row, _ in BVP_STAGES))]
        for row, seconds in runs.items():
            if row == "total":
                print(f"{config} total: {summary(seconds)} (the stages' "
                      f"sum in each run)")
                continue
            keys = np.concatenate(bits.get(row, [np.empty(0, np.int64)]))
            print(f"{config} {row}: {summary(seconds)}, z(t) {keys.size} "
                  f"elements requested, {np.unique(keys).size} distinct"
                  + (" (verify-conjugacy at seed 0; solve-bvp does not "
                     "run it)" if row == "conjugacy" else ""))


# subcommand -> config file and the flags it needs
STARTUP_RUNS = {
    "orbit": ("circle_irrational.json", ["--x0", "0.3"]),
    "probe": ("circle_rational.json", []),
    "weak-attractor": ("circle_rational.json", ["--x0", "0.3"]),
    "cycles": ("circle_irrational.json", []),
    "graph-min": ("graph_chain.json", []),
    "certify": ("standard_funceq.json", []),
    "solve-fe": ("standard_funceq.json", ["--h", "t"]),
    "solve-ivp": ("standard_pconf.json", []),
    "validate-pconf": ("standard_pconf.json", []),
    "overdet": ("jensen.json", []),
    "affine-analyze": ("affine_scalar.json", []),
    "build-bvp": ("straight_bvp.json", []),
    "analyze-bvp": ("straight_bvp.json", []),
    "solve-bvp": ("straight_bvp.json", []),
    "verify-conjugacy": ("straight_bvp.json", []),
}

# argv: SRC_DIR OUT_PATH ARG...; prints the seconds, the exit code, the
# package's modules and SciPy's subpackages
STARTUP_CHILD = """\
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from guided_dynamics import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[3:] + ["--out", sys.argv[2], "--no-meta"])
elapsed = time.perf_counter() - start
print(json.dumps({"s": elapsed, "exit": code, "modules": [
    name for name, module in sys.modules.items()
    if name.startswith("guided_dynamics.")
    or name.startswith("scipy.") and hasattr(module, "__path__")]}))
"""


def run_startup(root, repeats):
    def loaded(modules, prefix):
        """The public names under `prefix` (no segment starting with _)."""
        return " ".join(sorted(
            name[len(prefix):] for name in modules
            if name.startswith(prefix)
            and not any(part.startswith("_") for part in name.split(".")))
        ) or "-"

    with tempfile.TemporaryDirectory() as scratch:
        out_path = Path(scratch) / "out"
        for command, (config, flags) in STARTUP_RUNS.items():
            runs = []
            for _ in range(repeats):
                proc = subprocess.run(
                    [sys.executable, "-c", STARTUP_CHILD, str(root / "src"),
                     str(out_path), command, "--config",
                     f"configs/{config}", *flags],
                    capture_output=True, text=True, check=True, cwd=root,
                    timeout=600)
                out_path.unlink(missing_ok=True)
                runs.append(json.loads(proc.stdout))
            modules = runs[-1]["modules"]
            print(f"{command:16} {config:22} "
                  f"{summary([r['s'] for r in runs])}, exit "
                  f"{runs[-1]['exit']}: {loaded(modules, 'scipy.')} | "
                  f"{loaded(modules, 'guided_dynamics.')}")


LAYERS = {"closures": run_closures, "csv": run_csv, "expr": run_expr,
          "bvp": run_bvp, "startup": run_startup}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layers", nargs="+", choices=LAYERS,
                        metavar="LAYER", help=" | ".join(LAYERS))
    parser.add_argument("--root", default=HERE, type=Path,
                        help="checkout to time (default: this one)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="runs per timed row (default 7)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    status = 0
    for name in args.layers:
        status |= LAYERS[name](root, args.repeats) or 0
    sys.exit(status)


if __name__ == "__main__":
    # must precede the first numpy import, here and in the fresh
    # interpreters of `startup`
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
