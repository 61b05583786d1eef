"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each wrapped public function in every module of
the package that binds it (modules import functions by name, e.g. `bvp`
binds `solve_ivp` and `probe_minimality`), and replaces `eval` on every
`Expression` node class. Each wrapped call records a span (name, start,
end, parent span, task id). Self time is a span's duration minus the
durations of its direct child spans. Only the outermost `Expression.eval`
of a tree walk is a span; nested node evaluations run untraced.

Counts come from return values. Peak allocations come from a separate
pass (`Tracer(alloc_only=True)`) that runs `tracemalloc` inside the calls
whose peak is reported and records no spans, so it slows no timed pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

import numpy as np

# module -> public functions wrapped; "Expression.eval" is a method
WRAPPED = {
    "exprlang": ("parse", "differentiate", "Expression.eval"),
    "gds": ("guided_orbit_set", "probe_minimality", "probe_weak_attractor",
            "find_guided_cycles", "build_orbit_graph", "minimal_subsystems",
            "check_contraction_minimality", "verify_conjugacy"),
    "funceq": ("solve_neumann", "certify_contraction", "apply_operator"),
    "pconf": ("validate_pconfiguration", "solve_ivp"),
    "cauchy": ("propagate_values", "check_consistency", "analyze_affine"),
    "bvp": ("build_boundary_system", "analyze_solvability", "fixed_point",
            "reduce_boundary_data", "solve_bvp", "verify_solution"),
    "cli": ("load_config", "emit"),
}
PEAK_ALLOC = {"cauchy.propagate_values", "pconf.solve_ivp"}
SPAN_CAP = 200_000   # spans kept for the written trace; aggregates are exact


def span_name(module, func):
    return f"{module}.{func.split('.')[-1]}"


def _decisive(result):
    return int(getattr(result, "kind", None) not in (None, "inconclusive"))


# span name -> (counter, function of (args, result) giving its increment)
COUNTERS = {
    "exprlang.eval": ("points", lambda a, r: int(np.size(a[1]))),
    "gds.guided_orbit_set": ("points", lambda a, r: len(r.points)),
    "gds.probe_minimality": ("decisive", lambda a, r: _decisive(r)),
    "gds.probe_weak_attractor": ("decisive", lambda a, r: _decisive(r)),
    "cauchy.propagate_values": ("points", lambda a, r: len(r)),
    "cauchy.check_consistency": ("collisions", lambda a, r: r.n_collisions),
    "pconf.solve_ivp": ("nodes", lambda a, r: r.f.values.size),
    "funceq.solve_neumann": ("iterations", lambda a, r: r[1].iterations),
    "funceq.certify_contraction": ("m", lambda a, r: getattr(r, "m", 0) or 0),
    "bvp.fixed_point": ("iterations", lambda a, r: r.iterations),
}


class Tracer:
    def __init__(self, package="guided_dynamics", alloc_only=False):
        self.package = package
        self.alloc_only = alloc_only
        self.names = [span_name(m, f) for m, fs in WRAPPED.items()
                      for f in fs]
        self.index = {n: i for i, n in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.total_s = [0.0] * k
        self.counts = {}            # (name, counter) -> total
        self.peak_mb = {}           # alloc-only: name -> max peak, MB
        self.stack = []             # open spans: [name idx, start, child s, id]
        self.spans = []             # (id, name idx, start, end, parent, task)
        self.next_id = 0
        self.dropped = 0
        self.task = -1
        self.in_eval = False
        self._restore = []

    # ---- span bookkeeping ------------------------------------------------

    def _enter(self, idx):
        self.stack.append([idx, time.perf_counter(), 0.0, self.next_id])
        self.next_id += 1

    def _exit(self):
        end = time.perf_counter()
        idx, start, child, span_id = self.stack.pop()
        dur = end - start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - child
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, idx, start, end, parent, self.task))
        else:
            self.dropped += 1

    def _count(self, name, args, result):
        counter = COUNTERS.get(name)
        if counter is not None:
            key = (name, counter[0])
            self.counts[key] = self.counts.get(key, 0) + counter[1](args,
                                                                    result)

    def _wrap(self, name, fn):
        idx = self.index[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self._count(name, args, result)
            return result

        return wrapper

    def _wrap_alloc(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), mb)

        return wrapper

    def _wrap_eval(self, fn):
        idx = self.index["exprlang.eval"]

        @functools.wraps(fn)
        def wrapper(node, x):
            if self.in_eval:
                return fn(node, x)
            self.in_eval = True
            self._enter(idx)
            try:
                result = fn(node, x)
            finally:
                self._exit()
                self.in_eval = False
            self._count("exprlang.eval", (node, x), result)
            return result

        return wrapper

    # ---- installation ----------------------------------------------------

    def _modules(self):
        return [m for n, m in sys.modules.items()
                if m is not None and (n == self.package or
                                      n.startswith(self.package + "."))]

    def install(self):
        for module_name, funcs in WRAPPED.items():
            module = importlib.import_module(f"{self.package}.{module_name}")
            for func in funcs:
                name = span_name(module_name, func)
                if self.alloc_only and name not in PEAK_ALLOC:
                    continue
                if func == "Expression.eval":
                    self._install_eval(module)
                    continue
                orig = getattr(module, func)
                wrapper = (self._wrap_alloc if self.alloc_only
                           else self._wrap)(name, orig)
                for mod in self._modules():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def _install_eval(self, exprlang):
        todo = [exprlang.Expression]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "eval" in vars(cls):
                orig = vars(cls)["eval"]
                setattr(cls, "eval", self._wrap_eval(orig))
                self._restore.append((cls, "eval", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ---- results ---------------------------------------------------------

    def metrics(self, passes, overhead_ratio, peak_mb):
        """Per-layer metrics, normalised per pass of the task list so they
        do not depend on how many passes fitted in the run. `peak_mb` comes
        from the alloc-only tracer."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[i] / passes, "s")
            out[f"{name}.total_s"] = (self.total_s[i] / passes, "s")

        def total(name):
            return self.total_s[self.index[name]]

        def count(name, counter):
            return self.counts.get((name, counter), 0)

        def calls(name):
            return self.calls[self.index[name]]

        def ratio(a, b):
            return a / b if b else 0.0

        out["exprlang.eval.points_per_call"] = (ratio(
            count("exprlang.eval", "points"), calls("exprlang.eval")),
            "count")
        out["gds.guided_orbit_set.points_per_s"] = (ratio(
            count("gds.guided_orbit_set", "points"),
            total("gds.guided_orbit_set")), "1/s")
        probes = calls("gds.probe_minimality") + calls(
            "gds.probe_weak_attractor")
        out["gds.probe.decisive_ratio"] = (ratio(
            count("gds.probe_minimality", "decisive") +
            count("gds.probe_weak_attractor", "decisive"), probes), "ratio")
        out["cauchy.propagate_values.points_per_s"] = (ratio(
            count("cauchy.propagate_values", "points"),
            total("cauchy.propagate_values")), "1/s")
        out["cauchy.propagate_values.peak_alloc_mb"] = (
            peak_mb.get("cauchy.propagate_values", 0.0), "MB")
        out["cauchy.check_consistency.collisions"] = (ratio(
            count("cauchy.check_consistency", "collisions"),
            calls("cauchy.check_consistency")), "count")
        out["pconf.solve_ivp.nodes_per_s"] = (ratio(
            count("pconf.solve_ivp", "nodes"), total("pconf.solve_ivp")),
            "1/s")
        out["pconf.solve_ivp.peak_alloc_mb"] = (
            peak_mb.get("pconf.solve_ivp", 0.0), "MB")
        out["funceq.solve_neumann.iterations"] = (ratio(
            count("funceq.solve_neumann", "iterations"),
            calls("funceq.solve_neumann")), "count")
        out["funceq.certify_contraction.m"] = (ratio(
            count("funceq.certify_contraction", "m"),
            calls("funceq.certify_contraction")), "count")
        out["bvp.fixed_point.iterations"] = (ratio(
            count("bvp.fixed_point", "iterations"),
            calls("bvp.fixed_point")), "count")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def layer_self_s(self):
        """Self seconds per module, with eval reported on its own."""
        out = {}
        for i, name in enumerate(self.names):
            key = name if name == "exprlang.eval" else name.split(".")[0]
            out[key] = out.get(key, 0.0) + self.self_s[i]
        return out

    def write(self, path, task_names):
        doc = {"names": self.names, "tasks": task_names,
               "fields": ["id", "name", "start", "end", "parent", "task"],
               "dropped": self.dropped,
               "spans": [[k, i, round(s, 7), round(e, 7), p, t]
                         for k, i, s, e, p, t in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")))
