"""Snapshot every `gds` subcommand's report on every `configs/` file.

Runs `cli.main(argv + ["--no-meta"])` in-process for each subcommand on
each config (`--x0 0.3` and `--x0 -0.999` where the subcommand requires
it: the second sits next to the left end of every interval config and the
parabolic fixed point -1 of `quadratic_pconf`; `graph-min` also at
`--grid 3` and `--grid 4096`, the coarsest odd and a fine grid) and writes
one JSON object mapping the argv, joined by spaces, to [exit code, stdout,
stderr, sha256 of the CSV]. Subcommands that write a CSV run with `--out`
into a scratch directory; the last entry is null when no file was written
or the subcommand writes none. Two snapshots diff cleanly, so a refactor
that must keep reports and CSVs byte-identical can be checked against its
parent commit:

    python tools/report_snapshot.py new.json
    python tools/report_snapshot.py old.json --root ../parent-checkout
    diff old.json new.json

`--root` names the checkout whose `src/` and `configs/` are used (default:
the one holding this script). BLAS runs on one thread, as the benchmark
pins it, because multithreaded reductions move floats at roundoff.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

X0_ARGS = (["--x0", "0.3"], ["--x0", "-0.999"])
EXTRA_ARGS = {"graph-min": ([], ["--grid", "3"], ["--grid", "4096"]),
              "orbit": X0_ARGS, "weak-attractor": X0_ARGS}
CSV_COMMANDS = ("orbit", "solve-fe", "solve-ivp", "overdet", "solve-bvp")


def _take_sha256(path):
    """sha256 of the file, which is then removed; None when absent."""
    if not path.exists():
        return None
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def snapshot(root):
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    from guided_dynamics import cli

    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        csv = Path(scratch) / "out.csv"
        for config in sorted(Path("configs").glob("*.json")):
            for command in cli.HANDLERS:
                for args in EXTRA_ARGS.get(command, ([],)):
                    argv = [command, "--config", config.as_posix(), *args]
                    extra = (["--out", str(csv)] if command in CSV_COMMANDS
                             else [])
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = cli.main(argv + extra + ["--no-meta"])
                    runs[" ".join(argv)] = [code, out.getvalue(),
                                            err.getvalue(), _take_sha256(csv)]
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON snapshot to write")
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to run (default: this one)")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    runs = snapshot(args.root.resolve())
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} runs written to {out}")


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
