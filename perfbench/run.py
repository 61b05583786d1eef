#!/usr/bin/env python3
"""Benchmark of the `gds` command line, run in-process through `cli.main`.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 17 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 17

Run from the root of a checkout. The workload's configs are generated from
`--seed` (see workloads.py). One client runs a closed loop over the task
list in whole passes, as many as take `--seconds` at the reference speed;
every task's output is checked. Times are scaled to a reference machine speed (see speed.py); the
raw wall times are printed alongside.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; the lines before it name every metric with its unit,
the quality metrics (failed_frac, accuracy_digits, decisive_frac) and the
failing tasks. With `--trace 1` the JSON carries the per-layer metrics of a
separate traced run of the same inputs (see tracer.py). Versions, per-task
latencies and spans are written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in child processes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)
SETUP_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=17.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# running tasks
# --------------------------------------------------------------------------

class Runner:
    """Runs tasks through `cli.main` and checks each output. With a
    `speed.SpeedMeter`, the call is timed at the reference speed too."""

    def __init__(self, cli, work, meter=None):
        self.cli = cli
        self.work = work
        self.meter = meter

    def run(self, task):
        """Returns (raw seconds, scaled seconds or None, Check)."""
        # a CLI user runs each command in a fresh process: collect what
        # the previous task left behind before timing this one
        gc.collect()
        csv = self.work / "out.csv" if task.csv else None
        if csv is not None and csv.exists():
            csv.unlink()
        argv = list(task.argv) + ["--no-meta"]
        if csv is not None:
            argv += ["--out", str(csv)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if self.meter is None:
                start = time.perf_counter()
                code = self.cli.main(argv)
                raw, scaled = time.perf_counter() - start, None
            else:
                with self.meter.measure():
                    code = self.cli.main(argv)
                raw, scaled = self.meter.raw, self.meter.scaled
        if code not in task.expect_exit:
            err = stderr.getvalue().strip().splitlines()
            check = workloads.Check(
                False, f"exit {code}, expected {task.expect_exit}"
                       + (f": {err[-1]}" if err else ""))
        else:
            try:
                check = task.check(json.loads(stdout.getvalue()), csv)
            except (ValueError, KeyError, TypeError, IndexError,
                    OSError) as exc:
                check = workloads.Check(False, f"oracle error: {exc!r}")
        return raw, scaled, check


class Tally:
    """Per-task outcomes of the timed passes."""

    def __init__(self):
        self.latencies = []       # speed-scaled
        self.raw = []             # wall seconds as measured
        self.by_task = {}
        self.passed = 0
        self.failures = {}        # (task, reason) -> count
        self.rel_errs = []
        self.verdicts = 0
        self.decisive = 0

    def add(self, task, raw, scaled, check):
        self.raw.append(raw)
        self.latencies.append(raw if scaled is None else scaled)
        self.by_task.setdefault(task.name, []).append((raw, scaled))
        if check.ok:
            self.passed += 1
        else:
            key = (task.name, check.reason)
            self.failures[key] = self.failures.get(key, 0) + 1
        if check.rel_err is not None:
            self.rel_errs.append(check.rel_err)
        if check.decisive is not None:
            self.verdicts += 1
            self.decisive += int(check.decisive)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.attempted - self.passed

    @property
    def correct(self):
        """False when a failure is not one of the recorded defects."""
        return all(reason in workloads.KNOWN_DEFECTS
                   for _, reason in self.failures)


def run_passes(runner, tasks, passes, tally, on_task=None):
    """`passes` whole passes over the task list.
    Returns busy seconds per pass (scaled when the runner measures so)."""
    busy = []
    for _ in range(passes):
        pass_busy = 0.0
        for i, task in enumerate(tasks):
            if on_task is not None:
                on_task(i)
            raw, scaled, check = runner.run(task)
            tally.add(task, raw, scaled, check)
            pass_busy += raw if scaled is None else scaled
        busy.append(pass_busy)
    return busy


def measure_setup(configs):
    """Median over fresh interpreters of: import the package and load
    every generated config. Returns (scaled median, raw seconds)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC)]
            + configs, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        child_raw, child_scaled = proc.stdout.split()[-2:]
        raw.append(float(child_raw))
        scaled.append(float(child_scaled))
    return statistics.median(scaled), raw


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def tail(latencies):
    """Highest ladder percentile with at least TAIL_BEYOND samples above
    it: (percentile, value)."""
    n = len(latencies)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            chosen = p
    return chosen, float(np.percentile(latencies, chosen))


def timing(tally, lat):
    pct, tail_s = tail(lat)
    return {
        "throughput_tasks_per_s": (tally.passed / sum(lat), "tasks/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
    }, pct


def end_to_end(tally, setup_s):
    metrics, pct = timing(tally, tally.latencies)
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    })
    quality = {"failed_frac": (tally.failed / tally.attempted, "ratio")}
    if tally.rel_errs:
        worst = max(max(tally.rel_errs), 1e-17)
        quality["accuracy_digits"] = (-math.log10(worst), "digits")
    if tally.verdicts:
        quality["decisive_frac"] = (tally.decisive / tally.verdicts, "ratio")
    raw, _ = timing(tally, tally.raw)
    return metrics, quality, raw, {"tail_percentile": pct,
                                   "samples": tally.attempted}


def environment(args):
    import scipy
    return {"seed": args.seed, "workload": args.workload,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS)}


def fmt(value):
    return f"{value:.6g}"


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_workload(args):
    if not (SRC / "guided_dynamics" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'guided_dynamics'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.build(args.workload, args.seed, work / "configs")
    setup_s, setup_raw = measure_setup(wl.configs)

    sys.path.insert(0, str(SRC))
    from guided_dynamics import cli

    runner = Runner(cli, work, None if args.trace else speed.SpeedMeter())
    by_name = {t.name: t for t in wl.tasks}
    for name in wl.warmup:
        runner.run(by_name[name])

    # a fixed amount of work per run: as many passes as fit in --seconds
    # at the reference speed, so a faster program is measured on the same
    # tasks and the same sample count
    passes = max(1, round(args.seconds / wl.pass_s))
    env = environment(args)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in wl.notes:
        print(f"# note: {note}")
    tally = Tally()
    record = {"env": env, "setup_raw_s": setup_raw,
              "tasks": [t.name for t in wl.tasks]}
    if args.trace:
        # one untraced pass is the reference for the tracing overhead
        plain = run_passes(runner, wl.tasks, 1, Tally())
        tr = tracing.Tracer()
        tr.install()

        def on_task(i):
            tr.task = i

        try:
            busy = run_passes(runner, wl.tasks, passes, tally, on_task)
        finally:
            tr.uninstall()
        alloc = tracing.Tracer(alloc_only=True)
        alloc.install()
        try:
            for task in wl.tasks:
                if task.trace_alloc:
                    runner.run(task)
        finally:
            alloc.uninstall()
        overhead = statistics.mean(busy) / plain[0] - 1.0
        metrics = tr.metrics(passes, overhead, alloc.peak_mb)
        layers = tr.layer_self_s()
        top = max(layers, key=layers.get)
        top_fn = max(tr.names, key=lambda n: tr.self_s[tr.index[n]])
        print(f"# traced passes={passes} overhead={overhead:.3f} (raw wall "
              f"time) largest self time: layer {top}, function {top_fn}")
        for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"layer {layer} self_s_per_pass={fmt(secs / passes)}")
        tr.write(work / "spans.json", [t.name for t in wl.tasks])
        record.update(layer_self_s_per_pass={
            k: v / passes for k, v in layers.items()}, largest_layer=top,
            largest_function=top_fn)
    else:
        busy = run_passes(runner, wl.tasks, passes, tally)
        metrics, quality, raw, tail_info = end_to_end(tally, setup_s)
        raw["setup_s"] = (statistics.median(setup_raw), "s")
        for name, (value, unit) in {**metrics, **quality}.items():
            extra = ""
            if name in raw:
                extra = f" (raw {fmt(raw[name][0])})"
            if name == "latency_tail_ms":
                extra += (f" (p{tail_info['tail_percentile']:g} of "
                          f"{tail_info['samples']} samples)")
            print(f"metric {name} = {fmt(value)} {unit}{extra}")
        record.update(quality={k: v[0] for k, v in quality.items()},
                      raw={k: v[0] for k, v in raw.items()}, **tail_info)
    print(f"# passes={passes} tasks_per_pass={len(wl.tasks)} "
          f"pass_busy_s={[round(b, 3) for b in busy]}")
    for (task, reason), count in sorted(tally.failures.items()):
        known = " (known defect)" if reason in workloads.KNOWN_DEFECTS else ""
        print(f"failed {task}: {reason} x{count}{known}")
    print(f"# correct={str(tally.correct).lower()} attempted="
          f"{tally.attempted} failed={tally.failed}")
    record.update(passes=passes, pass_busy_s=busy, by_task=tally.by_task,
                  failures=[{"task": t, "reason": r, "count": c}
                            for (t, r), c in tally.failures.items()],
                  metrics={k: v[0] for k, v in metrics.items()})
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
