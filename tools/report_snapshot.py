"""Snapshot every `gds` subcommand's report on every `configs/` file.

Runs `cli.main(argv + ["--no-meta"])` in-process for each subcommand on
each config (`--x0 0.3`, `--x0 -0.999` and `--x0 1` where the subcommand
requires it: the second sits next to the left end of every interval
config and the parabolic fixed point -1 of `quadratic_pconf`, the third
is the right end of every interval config and a node of a graph, which
takes no other of the three; `graph-min` also at
`--grid 3` and `--grid 4096`, the coarsest odd and a fine grid) and writes
one JSON object mapping the argv, joined by spaces, to [exit code, stdout,
stderr, `--out` file]. Every run passes `--out` into a scratch directory,
so the snapshot also pins where output goes: a subcommand that writes a
CSV (`CSV_COMMANDS`) writes it there and prints its report, and the last
entry holds the file's sha256, its header, its row count and a sample of
`CSV_SAMPLE_ROWS` evenly spaced rows (every row of a shorter file); any
other subcommand writes its report there and prints nothing, and the
last entry is the file's text. It is null when no file was written. Two
snapshots diff cleanly, so a refactor that must keep reports and CSVs
byte-identical can be checked against its parent commit:

    python tools/report_snapshot.py new.json
    python tools/report_snapshot.py old.json --root ../parent-checkout
    python tools/report_snapshot.py --compare old.json new.json --rtol 1e-9

`--root` names the checkout whose `src/` and `configs/` are used (default:
the one holding this script). BLAS runs on one thread, as the benchmark
pins it, because multithreaded reductions move floats at roundoff.

With `--workloads` the runs are instead every task of the four benchmark
workloads at seeds 1-3, generated by `perfbench/workloads.build` of the
checkout holding this script (so both snapshots run the same inputs, and
no bytecode is written under `perfbench/`). Each key is the workload, the
seed and the argv; the scratch directory the configs are written to
appears as `<tmp>` in keys, stdout and stderr.

`--lines` writes no snapshot: it runs both sets of runs, the
`configs/` corpus and the workload tasks, under a `sys.settrace` line
tracer (Python 3.11 has no `sys.monitoring`) and prints the lines of
`src/` that hold bytecode and that no run reached, grouped by file and by
the function around them (`<module>` for module-level code), so a
refactor can see which code the snapshots pin:

    python tools/report_snapshot.py --lines

`--compare OLD NEW` writes no snapshot: it prints one line per difference
between two snapshots and exits 1 if it printed any. A difference is a
key in only one of them, an exit code, stdout that is not a JSON report,
stderr that is not identical, a report key in only one of the two reports
(at any depth: a renamed key shows as one line per name), a report value
that is not a number and is not identical, a report number that differs
by more than `--rtol` (default 0) relative to the larger of the two, or a
CSV whose sha256 moved. The line of a moved CSV gives the largest
relative change of its sampled rows (each value against the largest
magnitude of its column in the two samples). Under a positive `--rtol` a
moved CSV passes when its header and row count are unchanged and its
sampled rows moved, by at most that much; its other rows are not
compared, so each CSV that passed this way is listed after the
differences, without counting as one.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

X0_ARGS = (["--x0", "0.3"], ["--x0", "-0.999"], ["--x0", "1"])
EXTRA_ARGS = {"graph-min": ([], ["--grid", "3"], ["--grid", "4096"]),
              "orbit": X0_ARGS, "weak-attractor": X0_ARGS}
CSV_COMMANDS = ("orbit", "solve-fe", "solve-ivp", "overdet", "solve-bvp")
WORKLOAD_SEEDS = (1, 2, 3)
CSV_SAMPLE_ROWS = 257
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _take_out(path, csv):
    """Text of the file, or for a CSV its sha256, header, row count and
    evenly spaced sample rows; the file is then removed. None when
    absent."""
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    if not csv:
        return data.decode()
    header, *rows = data.decode().splitlines()
    last = len(rows) - 1
    picks = sorted({round(i * last / (CSV_SAMPLE_ROWS - 1))
                    for i in range(CSV_SAMPLE_ROWS)}) if rows else []
    return {"sha256": hashlib.sha256(data).hexdigest(), "header": header,
            "rows": len(rows), "sample": [rows[i] for i in picks]}


def _run(cli, argv, out_path):
    """[exit code, stdout, stderr, `--out` file] of one `--no-meta` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(out_path), "--no-meta"])
    return [code, out.getvalue(), err.getvalue(),
            _take_out(out_path, argv[0] in CSV_COMMANDS)]


def _config_runs(cli, out_path):
    runs = {}
    for config in sorted(Path("configs").glob("*.json")):
        for command in cli.HANDLERS:
            for args in EXTRA_ARGS.get(command, ([],)):
                argv = [command, "--config", config.as_posix(), *args]
                runs[" ".join(argv)] = _run(cli, argv, out_path)
    return runs


def _workload_runs(cli, out_path):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    scratch = str(out_path.parent)
    runs = {}
    for name in workloads.BUILDERS:
        for seed in WORKLOAD_SEEDS:
            wl = workloads.build(name, seed,
                                 out_path.parent / f"{name}-{seed}")
            for task in wl.tasks:
                run = _run(cli, list(task.argv), out_path)
                key = f"{name} seed={seed} " + " ".join(task.argv)
                runs[key.replace(scratch, "<tmp>")] = [
                    v.replace(scratch, "<tmp>") if isinstance(v, str) else v
                    for v in run]
    return runs


def snapshot(root, workloads=False):
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    from guided_dynamics import cli

    with tempfile.TemporaryDirectory() as scratch:
        out_path = Path(scratch) / "out"
        return (_workload_runs if workloads else _config_runs)(cli, out_path)


def traced(run, files):
    """run() under a line tracer: its result and the (file, line) pairs it
    reached in the source files named, as their code objects name them.
    Threads started meanwhile are traced too; the tracers in place before
    are restored."""
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        return run(), reached
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


ANONYMOUS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>",
             "<lambda>")


def code_lines(path):
    """{line: name} for every line of the source file that holds bytecode,
    named after the innermost function or class body around it; the lines
    of a comprehension, generator expression or lambda belong to the
    function around it, module-level lines to `<module>`."""
    owner = {}
    stack = [compile(Path(path).read_text(), str(path), "exec")]
    while stack:                        # parents before their children
        code = stack.pop()
        parts = code.co_qualname.split(".")
        while parts[-1:] and parts[-1] in ANONYMOUS:
            parts.pop()
            if parts[-1:] == ["<locals>"]:
                parts.pop()
        name = ".".join(parts) or "<module>"
        owner.update((line, name) for _, _, line in code.co_lines()
                     if line)         # None, or 0 before a module's first
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return owner


def unreached(files, reached):
    """{file: {name: [lines]}} of the lines of each source file that hold
    bytecode and are not among the (file, line) pairs reached, each under
    the name `code_lines` gives it; files and names with none are left
    out."""
    out = {}
    for path in files:
        for line, name in sorted(code_lines(path).items()):
            if (path, line) not in reached:
                out.setdefault(path, {}).setdefault(name, []).append(line)
    return out


def _spans(lines):
    """Sorted line numbers as text, runs of consecutive lines as a-b."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def line_report(root):
    """The lines of `--lines`: per file of root's `src/`, each function
    with the lines no run of either snapshot reached, then the count."""
    files = sorted(str(p) for p in (root / "src").rglob("*.py"))
    _, reached = traced(lambda: (snapshot(root), snapshot(root, True)),
                        set(files))
    missed = unreached(files, reached)
    lines = []
    for path, names in missed.items():
        lines.append(str(Path(path).relative_to(root)))
        lines += [f"  {name}: {_spans(nums)}" for name, nums in names.items()]
    total = sum(len(code_lines(path)) for path in files)
    lost = sum(len(nums) for names in missed.values()
               for nums in names.values())
    return lines + [f"{lost} of {total} src/ lines that hold bytecode "
                    "reached by no run"]


def _report_diffs(path, old, new, rtol):
    """One description per difference between two parsed reports: a key
    that only one of two objects has, numbers that differ by more than
    rtol relative, and any other leaf that is not identical."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if number(old) and number(new):
        same = math.isclose(old, new, rel_tol=rtol) or \
            (old != old and new != new)     # both NaN
        return [] if same else [f"{path or '/'} {old!r} -> {new!r}"]
    if isinstance(old, dict) and isinstance(new, dict):
        return [f"{path}/{k} only in {side}"
                for side, a, b in (("OLD", old, new), ("NEW", new, old))
                for k in sorted(a.keys() - b.keys())] + \
            [d for k in old if k in new
             for d in _report_diffs(f"{path}/{k}", old[k], new[k], rtol)]
    if isinstance(old, list) and isinstance(new, list) and \
            len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new))
                for d in _report_diffs(f"{path}/{i}", a, b, rtol)]
    return [] if old == new else [f"{path or '/'} {old!r} -> {new!r}"]


def _csv_change(old, new):
    """Largest relative change between the sampled rows of two CSV
    entries, each value against the largest magnitude of its column in
    the two samples; None when their headers or row counts differ or a
    row is not numbers (a refused `solve-bvp` writes its report there)."""
    if (old["header"], old["rows"]) != (new["header"], new["rows"]):
        return None

    def columns(entry):
        return list(zip(*([float(v) for v in row.split(",")]
                          for row in entry["sample"])))
    try:
        pairs = list(zip(columns(old), columns(new)))
    except ValueError:
        return None
    worst = 0.0
    for a, b in pairs:
        scale = max((abs(v) for v in a + b if v == v), default=0.0)
        for x, y in zip(a, b):
            if x == y or x != x and y != y:     # both NaN are equal
                continue
            change = abs(x - y) / scale if scale else math.inf
            worst = max(worst, change if change == change else math.inf)
    return worst


def _parse_report(text):
    try:
        return json.loads(text) if text else None
    except json.JSONDecodeError:
        return text


def _csv_diff(key, old, new, rtol):
    """The line of a CSV entry that moved, none when it passes rtol."""
    if old is None or new is None:
        return [f"{key}: CSV {old and old['sha256']} -> "
                f"{new and new['sha256']}"]
    change = _csv_change(old, new)
    if change is not None and 0.0 < change <= rtol:
        return []
    if change is not None:
        moved = (f"largest relative change {change:.3g} in "
                 f"{len(new['sample'])} sampled rows")
    elif old["header"] != new["header"]:
        moved = "header changed, not compared"
    elif old["rows"] != new["rows"]:
        moved = f"rows {old['rows']} -> {new['rows']}, not compared"
    else:
        moved = "not numbers, not compared"
    return [f"{key}: CSV sha256 {old['sha256']} -> {new['sha256']}, {moved}"]


def _command(key):
    argv = key.split()
    return argv[2] if argv[1].startswith("seed=") else argv[0]


def sampled_passes(old, new, rtol):
    """One line per CSV whose sha256 moved but which passes rtol on its
    sampled rows: its other rows were not compared."""
    lines = []
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key][3], new[key][3]
        if (_command(key) in CSV_COMMANDS and a and b and a != b
                and not _csv_diff(key, a, b, rtol)):
            lines.append(f"{key}: CSV sha256 {a['sha256']} -> {b['sha256']} "
                         f"passed on its {len(b['sample'])} sampled rows "
                         f"only, largest relative change "
                         f"{_csv_change(a, b):.3g}")
    return lines


def compare(old, new, rtol):
    """One line per difference between two snapshots, as --compare
    prints them."""
    lines = [f"{key}: only in {side}"
             for side, a, b in (("OLD", old, new), ("NEW", new, old))
             for key in sorted(a.keys() - b.keys())]
    for key in sorted(old.keys() & new.keys()):
        (code_a, out_a, err_a, file_a), (code_b, out_b, err_b, file_b) = \
            old[key], new[key]
        if _command(key) in CSV_COMMANDS:
            reports = (out_a, out_b)
            if file_a != file_b:
                lines += _csv_diff(key, file_a, file_b, rtol)
        else:
            reports = (file_a, file_b)
            if out_a != out_b:
                lines.append(f"{key}: stdout differs")
        if code_a != code_b:
            lines.append(f"{key}: exit code {code_a} -> {code_b}")
        if err_a != err_b:
            lines.append(f"{key}: stderr {err_a!r} -> {err_b!r}")
        lines += [f"{key}: report {d}" for d in _report_diffs(
            "", *map(_parse_report, reports), rtol)]
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?",
                        help="path of the JSON snapshot to write")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        type=Path, help="list the differences between two "
                                        "snapshots instead")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative difference below which --compare "
                             "lets report numbers pass (default 0)")
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to run (default: this one)")
    parser.add_argument("--workloads", action="store_true",
                        help="run the benchmark workloads' tasks at seeds "
                             "1-3 instead of the configs/ corpus")
    parser.add_argument("--lines", action="store_true",
                        help="list the src/ lines that no run of either "
                             "snapshot reaches instead")
    args = parser.parse_args()
    if args.lines:
        print("\n".join(line_report(args.root.resolve())))
        return
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        lines = compare(old, new, args.rtol)
        passes = sampled_passes(old, new, args.rtol)
        print("\n".join(lines + passes + [
            f"{len(lines)} differences" + (f", {len(passes)} moved CSVs "
                                           "passed on sampled rows only"
                                           if passes else "")]))
        sys.exit(1 if lines else 0)
    if args.out is None:
        parser.error("the snapshot path is required without --compare")
    out = Path(args.out).resolve()
    runs = snapshot(args.root.resolve(), args.workloads)
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} runs written to {out}")


if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
