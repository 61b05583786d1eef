"""Time each stage of a boundary-value solve, `bvp.solve_bvp`, on
`configs/straight_bvp.json` and `configs/curved_bvp.json`.

The stages are those `solve-bvp` runs at its defaults (M = 512,
eps 0.01), each on a freshly built boundary system:

- build: `build_boundary_system`;
- analyze: `analyze_solvability`;
- reduce: `reduce_boundary_data`;
- solve_ivp: the chi solve, whose collocation evaluates the reduced data;
- verify: `verify_solution`.

Each stage function is wrapped with a timer in the `bvp` module, so one
`solve_bvp` call times all five; a stage prints its best of 5 calls. A
separate, untimed call counts the z(t) elements each stage asks for and
how many of them are distinct (by exact bits), through a counting wrapper
around the `z_of_t` each boundary system gets.

A `conjugacy` row times the sampled omega-conjugacy check,
`verify_conjugacy` as the `bvp` module calls it, and counts its z(t)
elements apart from the stage around it. A checkout whose `solve_bvp`
runs the check (inside build) is timed there; otherwise the check is
timed in 5 runs of the `verify-conjugacy` subcommand at seed 0, and the
row says that `solve_bvp` does not run it.

    python tools/bench_bvp.py
    python tools/bench_bvp.py --root ../parent-checkout

`--root` names the checkout whose `src/` and `configs/` are used (default:
the one holding this script). BLAS runs on one thread, as the benchmark
pins it.
"""

import argparse
import gc
import os
import sys
import time
from pathlib import Path

REPEATS = 5
CONFIGS = ("straight_bvp.json", "curved_bvp.json")
STAGES = (("build", "build_boundary_system"),
          ("analyze", "analyze_solvability"),
          ("reduce", "reduce_boundary_data"),
          ("solve_ivp", "solve_ivp"),
          ("verify", "verify_solution"))


def _time_stages(bvp, log):
    """Wrap every stage function of `bvp` so that a call records its wall
    time in `log[stage]` and names itself in `log["stage"]` while it
    runs."""
    for stage, name in STAGES:
        def timed(*args, fn=getattr(bvp, name), stage=stage, **kwargs):
            log["stage"] = stage
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log[stage] = time.perf_counter() - start
        setattr(bvp, name, timed)

    def checked(*args, fn=bvp.verify_conjugacy, **kwargs):
        outer = log.get("stage")
        log["stage"] = "conjugacy"
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            log["conjugacy"] = time.perf_counter() - start
            log["stage"] = outer
    bvp.verify_conjugacy = checked


def _count_z_of_t(np, bvp, log, bits):
    """Make every boundary system's z_of_t append the bits of its input to
    `bits[stage]` for the stage running; return the undo."""
    make = bvp._make_z_of_t

    def counted_make(*args):
        z_of_t = make(*args)

        def counted(t):
            keys = np.array(t, dtype=float).ravel().view(np.int64)
            bits.setdefault(log["stage"], []).append(keys)
            return z_of_t(t)
        return counted

    bvp._make_z_of_t = counted_make
    return lambda: setattr(bvp, "_make_z_of_t", make)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to time (default: this one)")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from guided_dynamics import bvp, cli

    log = {}
    _time_stages(bvp, log)
    for config in CONFIGS:
        cfg = cli.load_config(str(root / "configs" / config))
        problem = cli._bvp_problem(cfg)
        bits = {}
        undo = _count_z_of_t(np, bvp, log, bits)
        log.pop("conjugacy", None)
        bvp.solve_bvp(problem)
        undo()
        where = "inside build" if "conjugacy" in log else None
        rows = [stage for stage, _ in STAGES] + ["conjugacy"]
        best = {stage: float("inf") for stage in rows}
        for _ in range(REPEATS):
            gc.collect()
            bvp.solve_bvp(problem)
            for stage in best:
                best[stage] = min(best[stage], log.get(stage, best[stage]))
        if where is None:
            where = "verify-conjugacy only, solve_bvp does not run it"
            seed0 = argparse.Namespace(seed=0)
            check_bits = {}
            undo = _count_z_of_t(np, bvp, log, check_bits)
            cli.cmd_verify_conjugacy(cfg, seed0)
            undo()
            bits["conjugacy"] = check_bits["conjugacy"]
            for _ in range(REPEATS):
                gc.collect()
                cli.cmd_verify_conjugacy(cfg, seed0)
                best["conjugacy"] = min(best["conjugacy"], log["conjugacy"])
        for stage in rows:
            keys = bits.get(stage, [np.empty(0, dtype=np.int64)])
            keys = np.concatenate(keys)
            print(f"{config} {stage}: {best[stage] * 1e3:.1f} ms, z(t) "
                  f"{keys.size} elements requested, "
                  f"{np.unique(keys).size} distinct"
                  + (f" ({where})" if stage == "conjugacy" else ""))
        print(f"{config} total: "
              f"{sum(best[stage] for stage, _ in STAGES) * 1e3:.1f} ms "
              f"(sum of the stage bests)")


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
