"""Time each `gds` subcommand as a fresh process runs it, start-up included.

For each subcommand on one `configs/` file, a fresh interpreter imports
the package and runs `cli.main(argv + ["--out", <scratch>, "--no-meta"])`;
the time from the import to the return of `main` is taken, and the
median of `--runs` interpreters is printed (min-max in brackets) with the
exit code, the SciPy subpackages and the package modules that were loaded
by then. Interpreter start-up itself, the same for every checkout, is not
counted; compiling the package's modules is, unless their bytecode is
cached (`PYTHONDONTWRITEBYTECODE` unset and a previous run wrote it).

    python tools/bench_startup.py
    python tools/bench_startup.py --root ../parent-checkout

`--root` names the checkout whose `src/` and `configs/` are run (default:
the one holding this script). BLAS runs on one thread, as the benchmark
pins it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# subcommand -> config file and the flags it needs
RUNS = {
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
CHILD = """\
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


def _loaded(modules, prefix):
    """The public names under `prefix` (no segment starting with _)."""
    return sorted(name[len(prefix):] for name in modules
                  if name.startswith(prefix)
                  and not any(part.startswith("_")
                              for part in name.split(".")))


def run_once(root, argv, out_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "src"), str(out_path),
         *argv], capture_output=True, text=True, check=True, cwd=root,
        env=env, timeout=600)
    if out_path.exists():
        out_path.unlink()
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to time (default: this one)")
    parser.add_argument("--runs", type=int, default=5,
                        help="fresh interpreters per subcommand (default 5)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    root = args.root.resolve()
    print(f"{'subcommand':16} {'config':22} {'ms: median [min-max]':22} "
          "exit  scipy subpackages | package modules")
    with tempfile.TemporaryDirectory() as scratch:
        out_path = Path(scratch) / "out"
        for command, (config, flags) in RUNS.items():
            argv = [command, "--config", f"configs/{config}", *flags]
            runs = [run_once(root, argv, out_path)
                    for _ in range(args.runs)]
            ms = [1e3 * r["s"] for r in runs]
            timing = (f"{statistics.median(ms):.0f} "
                      f"[{min(ms):.0f}-{max(ms):.0f}]")
            modules = runs[-1]["modules"]
            scipy = " ".join(_loaded(modules, "scipy.")) or "-"
            package = " ".join(_loaded(modules, "guided_dynamics."))
            print(f"{command:16} {config:22} {timing:22} "
                  f"{runs[-1]['exit']:4}  {scipy} | {package}")


if __name__ == "__main__":
    main()
