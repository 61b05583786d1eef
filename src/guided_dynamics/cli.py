"""Batch front end: config ingestion, subcommand dispatch, CSV/JSON
artifact emission.

Exit codes: 0 verdict/solve success, 1 negative domain verdict (e.g.
NotSolvable, Inconsistent, NotMinimal), 2 usage/config error (a flag the
subcommand does not read included), 3 numeric failure; a package error
carries its own code and stderr label. Reports are JSON (sorted keys);
grids are CSV. `--seed` drives the sampled omega-conjugacy check of
build-bvp and verify-conjugacy and the contraction check of analyze-bvp,
which runs only when both guiding sets are empty (with a tangency the
seed changes nothing); solve-bvp runs no conjugacy check, samples its
contraction check at a fixed seed 0 and takes no --seed. Identical
invocations produce byte-identical reports (--no-meta drops the timestamp
block).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback

import numpy as np

from . import bvp as bvp_mod
from . import cauchy as cauchy_mod
from . import funceq as funceq_mod
from . import gds as gds_mod
from . import pconf as pconf_mod
from .errors import (ExprSyntaxError, GuidedDynamicsError, HypothesisFailure,
                     NotSolvableError, PConfigViolation, ResolutionTooCoarse,
                     SchemaError)
from .exprlang import parse as parse_expr

TOP_LEVEL_KEYS = {"space", "maps", "guiding", "coeffs", "problem",
                  "tolerances", "budgets"}
SPACE_KEYS = {"interval": {"type", "a", "b"},
              "circle": {"type", "period"},
              "graph": {"type", "nodes", "tables"}}
TOLERANCE_KEYS = {"tol_lambda", "tol", "tol_data"}
# every problem key some subcommand reads, and the keys of an affine rule
PROBLEM_KEYS = {"anchors", "h", "c", "mu", "kind", "interval", "A", "B",
                "weight", "rules", "A1", "A2", "b1", "b2", "alpha1", "alpha2",
                "m", "n", "g1", "g2", "gGamma"}
RULE_KEYS = {"map", "cA", "cB", "cv", "c0"}
# budget -> (keyword of the library call, subcommands it bounds); a budget
# missing from the config is not passed, so the library's default applies
BUDGETS = {"cell_cap": ("cell_cap", ("orbit", "probe", "weak-attractor",
                                     "overdet")),
           "max_iter": ("max_iter", ("solve-fe",)),
           "m_max": ("m_max", ("certify", "solve-fe")),
           "max_cycle_len": ("max_len", ("cycles",))}

NEGATIVE_VERDICT_EXIT = 1
CONFIG_ERROR_EXIT = 2
NUMERIC_FAILURE_EXIT = 3


class JobConfig:
    """A config that load_config has checked."""

    def __init__(self, raw):
        self.raw = raw
        self.tolerances = raw.get("tolerances", {})
        self.tol_lambda = float(self.tolerances.get("tol_lambda",
                                                    gds_mod.TOL_LAMBDA))
        self.problem = raw.get("problem", {})
        self.parsed_maps = self.parsed_coeffs = None

    def budgets_for(self, command):
        """The budgets that bound `command`, keyed by library keyword."""
        return {BUDGETS[key][0]: value
                for key, value in self.raw.get("budgets", {}).items()
                if command in BUDGETS[key][1]}

    def space(self):
        section = self.raw.get("space")
        if section is None:
            raise SchemaError("missing 'space' section", "/space")
        kind = section["type"]
        if kind == "interval":
            return gds_mod.Interval(float(section["a"]), float(section["b"]))
        if kind == "circle":
            return gds_mod.CircleSpace(float(section.get(
                "period", 2.0 * np.pi)))
        return gds_mod.FiniteGraphSpace(section["nodes"])

    def generator_maps(self):
        space = self.space()
        if isinstance(space, gds_mod.FiniteGraphSpace):
            return [gds_mod.GeneratorMap(None, None, label=i, table=tab)
                    for i, tab in enumerate(self.raw["space"]["tables"])]
        if self.parsed_maps is None:
            raise SchemaError("missing 'maps' section", "/maps")
        return [gds_mod.map_from(expr, label=i)
                for i, expr in enumerate(self.parsed_maps)]

    def guiding_sets(self, n):
        section = self.raw.get("guiding")
        if section is None:
            return None
        # load_config checked each item: a point or an interval [lo, hi]
        sets = [gds_mod.GuidingSet([(x, x) if _is_number(x) else x
                                    for x in entry]) for entry in section]
        if len(sets) != n:
            raise SchemaError(
                f"need one guiding entry per generator ({n}), got "
                f"{len(sets)}", "/guiding")
        return sets

    def guided_system(self):
        maps = self.generator_maps()
        guiding = self.guiding_sets(len(maps))
        return gds_mod.GuidedSystem(self.space(), maps, guiding,
                                    tol_lambda=self.tol_lambda)

    def funceq_system(self):
        """The space, maps and coeffs sections as a FunceqSystem; the
        guiding and tol_lambda entries are not read."""
        maps = self.generator_maps()
        if self.parsed_coeffs is None:
            raise SchemaError("missing 'coeffs' section", "/coeffs")
        space = self.space()
        if isinstance(space, gds_mod.FiniteGraphSpace):
            raise SchemaError("a functional equation needs an 'interval' "
                              "or a 'circle' space", "/space/type")
        if len(self.parsed_coeffs) != len(maps):
            raise SchemaError(f"need one coefficient per map ({len(maps)}), "
                              f"got {len(self.parsed_coeffs)}", "/coeffs")
        return funceq_mod.FunceqSystem(space, maps, self.parsed_coeffs)


def _parse_expr_at(source, pointer, var="t"):
    if not isinstance(source, str):
        raise SchemaError(f"expected an expression string, got "
                          f"{type(source).__name__}", pointer)
    try:
        return parse_expr(source, var=var)
    except ExprSyntaxError as exc:
        raise SchemaError(
            f"expression error: {exc} (offset {exc.offset})",
            pointer) from exc


def _refuse_unknown(section, allowed, pointer):
    for key in section:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", f"{pointer}/{key}")


def _require(section, keys, pointer):
    missing = set(keys) - set(section)
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)}", pointer)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    # NaN, inf and ints beyond any float fail the comparison
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value, item_test=lambda item: True):
    """A nonempty list whose items all pass item_test."""
    return isinstance(value, list) and bool(value) and \
        all(map(item_test, value))


def _is_pair(value, item_test):
    return _is_list(value, item_test) and len(value) == 2


# space key -> (test of its value, what the value must be)
SPACE_VALUES = {
    "a": (_is_finite, "a finite number"),
    "b": (_is_finite, "a finite number"),
    "period": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "nodes": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "tables": (lambda v: _is_list(v, lambda t: _is_list(t, _is_int)),
               "a list of lists of integers"),
}


def _check_space(space):
    kind = space.get("type")
    if not isinstance(kind, str) or kind not in SPACE_KEYS:
        raise SchemaError(f"unknown space type {kind!r}", "/space/type")
    _refuse_unknown(space, SPACE_KEYS[kind], "/space")
    _require(space, SPACE_KEYS[kind] - {"period"}, "/space")
    for key, value in space.items():
        if key in SPACE_VALUES and not SPACE_VALUES[key][0](value):
            raise SchemaError(f"expected {SPACE_VALUES[key][1]}, got "
                              f"{value!r}", f"/space/{key}")
    if kind == "interval" and not space["a"] < space["b"]:
        raise SchemaError("'a' must be less than 'b'", "/space/b")
    if kind == "interval" and not _is_finite(space["b"] - space["a"]):
        raise SchemaError("the length 'b' - 'a' must be finite", "/space")
    for i, table in enumerate(space.get("tables", ())):
        if len(table) != space["nodes"]:
            raise SchemaError(f"need one entry per node ({space['nodes']})",
                              f"/space/tables/{i}")
        if not all(0 <= node < space["nodes"] for node in table):
            raise SchemaError(f"entries must be nodes in [0, "
                              f"{space['nodes']})", f"/space/tables/{i}")


def load_config(path: str) -> JobConfig:
    """Read, schema-validate, and pre-parse a job config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "/") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object", "/")
    _refuse_unknown(raw, TOP_LEVEL_KEYS, "")
    for section in ("space", "problem", "tolerances", "budgets"):
        if not isinstance(raw.get(section, {}), dict):
            raise SchemaError(f"{section!r} must be an object", f"/{section}")
    for section in ("maps", "coeffs", "guiding"):
        if section in raw and not _is_list(raw[section]):
            raise SchemaError(f"{section!r} must be a nonempty list",
                              f"/{section}")
    if "space" in raw:
        _check_space(raw["space"])
    for section, allowed, test, shape in (
            ("tolerances", TOLERANCE_KEYS, lambda v: _is_finite(v) and v >= 0,
             "a finite number >= 0"),
            ("budgets", BUDGETS, lambda v: _is_int(v) and v >= 1,
             "an integer >= 1")):
        _refuse_unknown(raw.get(section, {}), allowed, f"/{section}")
        for key, value in raw.get(section, {}).items():
            if not test(value):
                raise SchemaError(f"expected {shape}, got {value!r}",
                                  f"/{section}/{key}")
    problem = raw.get("problem", {})
    _refuse_unknown(problem, PROBLEM_KEYS, "/problem")
    rules = problem.get("rules")
    for i, rule in enumerate(rules if isinstance(rules, list) else ()):
        if isinstance(rule, dict):
            _refuse_unknown(rule, RULE_KEYS, f"/problem/rules/{i}")
    for i, entry in enumerate(raw.get("guiding", ())):
        if not isinstance(entry, list):
            raise SchemaError("a guiding entry must be a list",
                              f"/guiding/{i}")
        for j, item in enumerate(entry):
            # a point, or an interval [lo, hi] with lo <= hi
            if not (_is_finite(item) or _is_pair(item, _is_finite)
                    and item[0] <= item[1]):
                raise SchemaError("expected a number or an interval "
                                  "[lo, hi] with lo <= hi",
                                  f"/guiding/{i}/{j}")
    cfg = JobConfig(raw)
    if "maps" in raw:
        cfg.parsed_maps = [
            _parse_expr_at(src, f"/maps/{i}")
            for i, src in enumerate(raw["maps"])]
    if "coeffs" in raw:
        cfg.parsed_coeffs = [
            _parse_expr_at(src, f"/coeffs/{i}")
            for i, src in enumerate(raw["coeffs"])]
    return cfg


# --------------------------------------------------------------------------
# JSON helpers
# --------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and obj != obj:  # NaN
        return None
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if not f.name.startswith("_")}
    if isinstance(obj, gds_mod.GuidingSet):
        return [list(iv) for iv in obj.intervals]
    return str(obj)


def emit(report, args, exit_code, to_csv=None):
    """Write the report and return exit_code. With --out, a subcommand
    that has a CSV writes it there (`to_csv(path)`) and prints its report;
    any other writes its report there and prints nothing."""
    doc = _jsonable(report)
    if not args.no_meta:
        doc["meta"] = {"tool": "gds", "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out and to_csv is None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        if args.out:
            to_csv(args.out)
        sys.stdout.write(text)
    return exit_code


# --------------------------------------------------------------------------
# Subcommand handlers: (cfg, args) -> (report, exit code[, to_csv])
# --------------------------------------------------------------------------

def _seeded_system(cfg, x0):
    """The config's guided system, once x0 is a point of its space: a node
    of a graph, a point of an interval (within its tolerance); any finite
    x0 is an angle of a circle."""
    system = cfg.guided_system()
    space = system.space
    if not space.contains(x0):
        where = (f"a node of the graph (0 to {space.n_nodes - 1})"
                 if isinstance(space, gds_mod.FiniteGraphSpace)
                 else f"in the interval [{space.a!r}, {space.b!r}]")
        raise argparse.ArgumentError(None,
                                     f"argument --x0: {x0!r} is not {where}")
    return system


def cmd_orbit(cfg, args):
    cloud = gds_mod.guided_orbit_set(_seeded_system(cfg, args.x0),
                                     args.x0, args.depth, args.eps,
                                     **cfg.budgets_for(args.command))
    report = {"command": "orbit", "seed": cloud.seed,
              "coverage": cloud.coverage, "points": int(len(cloud.points)),
              "eps": cloud.eps, "saturated": cloud.saturated,
              "partial": cloud.partial, "depth_used": cloud.depth_used}
    return report, 0, cloud.to_csv


def cmd_probe(cfg, args):
    verdict = gds_mod.probe_minimality(cfg.guided_system(), args.eps,
                                       args.depth,
                                       **cfg.budgets_for(args.command))
    report = {"command": "probe", "verdict": verdict.kind,
              "eps": verdict.eps, "depth": verdict.depth,
              "coverage": verdict.coverage, "via": verdict.via,
              "witness": verdict.witness,
              "witness_nodes": verdict.witness_nodes,
              "note": verdict.note}
    return report, NEGATIVE_VERDICT_EXIT if verdict.is_not_minimal else 0


def cmd_weak_attractor(cfg, args):
    verdict = gds_mod.probe_weak_attractor(_seeded_system(cfg, args.x0),
                                           args.x0, args.eps, args.depth,
                                           **cfg.budgets_for(args.command))
    report = {"command": "weak-attractor", "verdict": verdict.kind,
              "x0": verdict.x0, "eps": verdict.eps,
              "witness_seed": verdict.witness_seed}
    return report, NEGATIVE_VERDICT_EXIT if verdict.kind == "no" else 0


def cmd_cycles(cfg, args):
    rep = gds_mod.find_guided_cycles(cfg.guided_system(),
                                     **cfg.budgets_for(args.command))
    report = {"command": "cycles", "max_len": rep.max_len,
              "n_seeds": rep.n_seeds,
              "cycles": [{"points": c.points, "generators": list(c.gens)}
                         for c in rep.cycles]}
    return report, NEGATIVE_VERDICT_EXIT if rep.cycles else 0


def cmd_graph_min(cfg, args):
    system = cfg.guided_system()
    graph = isinstance(system.space, gds_mod.FiniteGraphSpace)
    if args.grid is not None and args.grid < 2 and not graph:
        raise argparse.ArgumentError(
            None, f"argument --grid: expected at least 2 cells, got "
            f"{args.grid}")
    cells = (args.grid if args.grid is not None
             else getattr(system.space, "n_nodes", 64))
    graph = gds_mod.build_orbit_graph(system, int(cells))
    comps = gds_mod.minimal_subsystems(graph)
    report = {"command": "graph-min", "n_nodes": graph.n_nodes,
              "n_edges": int(len(graph.edges)),
              "approximate": graph.approximate,
              "minimal_subsystems": comps}
    return report, 0


def cmd_certify(cfg, args):
    outcome = funceq_mod.certify_contraction(
        cfg.funceq_system(), M=args.grid, **cfg.budgets_for(args.command))
    ok = isinstance(outcome, funceq_mod.ContractionCertificate)
    report = {"command": "certify", "certified": ok, **outcome.to_dict()}
    return report, 0 if ok else NEGATIVE_VERDICT_EXIT


def cmd_solve_fe(cfg, args):
    system = cfg.funceq_system()
    h_src = args.h or cfg.problem.get("h")
    if h_src is None:
        raise SchemaError("solve-fe needs h", "/problem/h")
    h = _parse_expr_at(h_src, "/problem/h")
    f, rep = funceq_mod.solve_neumann(system, h, tol=args.tol, M=args.grid,
                                      **cfg.budgets_for(args.command))
    report = {"command": "solve-fe", "residual": rep.residual,
              "iterations": rep.iterations, "grid": args.grid,
              "certificate": rep.certificate.to_dict()}
    return report, 0, f.to_csv


def _pconf_from_config(cfg):
    problem = cfg.problem
    anchors = problem.get("anchors")
    if anchors is None:
        raise SchemaError("P-configuration needs problem.anchors",
                          "/problem/anchors")
    if not _is_list(anchors, _is_finite):
        raise SchemaError("'anchors' must be a list of numbers",
                          "/problem/anchors")
    return pconf_mod.validate_pconfiguration(
        cfg.generator_maps(), cfg.space(), anchors,
        tol=float(cfg.tolerances.get("tol", 1e-8)))


def cmd_validate_pconf(cfg, args):
    try:
        pc = _pconf_from_config(cfg)
    except PConfigViolation as exc:
        report = {"command": "validate-pconf", "valid": False,
                  "condition": exc.condition, "witness": exc.witness,
                  "message": str(exc)}
        return report, NEGATIVE_VERDICT_EXIT
    report = {"command": "validate-pconf", "valid": True,
              "anchors": list(pc.anchors),
              "guiding": list(pconf_mod.extract_guiding_sets(pc))}
    return report, 0


def cmd_solve_ivp(cfg, args):
    _require_numeric(cfg.problem, ("c", "mu"), "/problem")
    pc = _pconf_from_config(cfg)
    problem = cfg.problem
    h_src = args.h or problem.get("h")
    if h_src is None:
        raise SchemaError("solve-ivp needs h", "/problem/h")
    if isinstance(h_src, str) and h_src.endswith(".csv"):
        try:
            h = funceq_mod.GridFunction.from_csv(h_src, domain=pc.interval)
        except ValueError as exc:
            raise SchemaError(f"{h_src}: {exc}", "/problem/h") from exc
    else:
        h = _parse_expr_at(h_src, "/problem/h")
    c = args.c if args.c is not None else float(problem.get("c", 0.0))
    if not pc.interval.a <= c <= pc.interval.b:
        where = (f"{c!r} is not in the interval "
                 f"[{pc.interval.a!r}, {pc.interval.b!r}]")
        if args.c is not None:
            raise argparse.ArgumentError(None, f"argument --c: {where}")
        raise SchemaError(f"c = {where}", "/problem/c")
    mu = args.mu if args.mu is not None else float(problem.get("mu", 0.0))
    tol_data = float(cfg.tolerances.get("tol_data", 1e-8))
    sol = pconf_mod.solve_ivp(pconf_mod.IvpProblem(pc, h, c, mu,
                                                   tol_data=tol_data),
                              args.grid)
    report = {"command": "solve-ivp", **sol.diagnostics.to_dict()}
    return report, 0, sol.f.to_csv


def _require_numeric(section, keys, pointer, ndim=0):
    """Each present key must hold a finite JSON number or, up to ndim
    levels deep, a nonempty rectangular nested list of them."""
    for key in keys:
        if key not in section:
            continue
        arr = np.array(section[key], dtype=object)
        if arr.ndim > ndim or arr.size == 0 or \
                not all(_is_finite(v) for v in arr.flat):
            shape = ("a finite number", "a finite number or a list of them",
                     "a finite number or a matrix of them")[ndim]
            raise SchemaError(f"{key!r} must be {shape}", f"{pointer}/{key}")


# overdet kind -> problem keys it reads
OVERDET_KEYS = {"jensen": ("interval", "A", "B"), "cauchy": ("B",),
                "geometric_mean": ("interval", "A", "B"),
                "affine": ("interval", "A", "B")}


def cmd_overdet(cfg, args):
    problem = cfg.problem
    kind = problem.get("kind")
    if not isinstance(kind, str) or kind not in OVERDET_KEYS:
        raise SchemaError(f"unknown overdet kind {kind!r}", "/problem/kind")
    _require(problem, OVERDET_KEYS[kind], "/problem")
    if "interval" in OVERDET_KEYS[kind]:
        iv = problem["interval"]
        lowest = 0.0 if kind == "geometric_mean" else -np.inf
        if not (_is_pair(iv, _is_finite) and lowest < iv[0] < iv[1]
                and _is_finite(iv[1] - iv[0])):
            raise SchemaError(
                "'interval' must be two finite numbers a < b with b - a "
                "finite" + (" and a > 0" if kind == "geometric_mean" else ""),
                "/problem/interval")
    _require_numeric(problem, ("A", "B", "weight"), "/problem")
    if kind == "jensen":
        prob = cauchy_mod.OverdetProblem.jensen(
            tuple(problem["interval"]), problem["A"], problem["B"],
            weight=float(problem.get("weight", 0.5)))
    elif kind == "cauchy":
        prob = cauchy_mod.OverdetProblem.cauchy_boundary(problem["B"])
    elif kind == "geometric_mean":
        prob = cauchy_mod.OverdetProblem.geometric_mean(
            tuple(problem["interval"]), problem["A"], problem["B"])
    else:
        rules = []
        specs = problem.get("rules")
        if not _is_list(specs):
            raise SchemaError("'rules' must be a nonempty list of rule "
                              "objects", "/problem/rules")
        for i, spec_rule in enumerate(specs):
            pointer = f"/problem/rules/{i}"
            if not isinstance(spec_rule, dict):
                raise SchemaError("a rule must be an object", pointer)
            _require(spec_rule, ("map",), pointer)
            _require_numeric(spec_rule, ("cA", "cB", "cv", "c0"), pointer)
            rules.append(cauchy_mod.PropagationRule(
                map=_parse_expr_at(spec_rule["map"], f"{pointer}/map"),
                c_A=spec_rule.get("cA", 0.0), c_B=spec_rule.get("cB", 0.0),
                c_v=spec_rule.get("cv", 0.0), c_0=spec_rule.get("c0", 0.0),
                label=i))
        prob = cauchy_mod.OverdetProblem(
            tuple(problem["interval"]), problem["A"], problem["B"], rules)
    try:
        cloud = cauchy_mod.propagate_values(prob, args.depth, args.eps,
                                            **cfg.budgets_for(args.command))
    except ResolutionTooCoarse as exc:
        raise argparse.ArgumentError(None, f"argument --eps: {exc}") from exc
    rep = cauchy_mod.check_consistency(cloud, args.eps, args.tol)
    report = {"command": "overdet", "kind": kind,
              "verdict": rep.verdict, "points": int(len(cloud)),
              "max_collision_gap": rep.max_collision_gap,
              "n_collisions": rep.n_collisions,
              "saturated": cloud.saturated, "partial": cloud.partial}
    return (report, 0 if rep.consistent else NEGATIVE_VERDICT_EXIT,
            cloud.to_csv)


def cmd_affine_analyze(cfg, args):
    problem = cfg.problem
    _require(problem, ("A1", "A2", "b1", "b2"), "/problem")
    _require_numeric(problem, ("A1", "A2"), "/problem", ndim=2)
    _require_numeric(problem, ("b1", "b2"), "/problem", ndim=1)
    try:
        analysis = cauchy_mod.analyze_affine(
            problem["A1"], problem["A2"], problem["b1"], problem["b2"])
    except HypothesisFailure as exc:
        report = {"command": "affine-analyze", "ok": False,
                  "failed_condition": exc.condition, "message": str(exc)}
        return report, NEGATIVE_VERDICT_EXIT
    report = {"command": "affine-analyze", "ok": True,
              **analysis.to_dict()}
    return report, 0


def _bvp_problem(cfg):
    problem = cfg.problem
    required = {"alpha1", "alpha2", "m", "n", "g1", "g2", "gGamma"}
    _refuse_unknown(problem, required, "/problem")
    _require(problem, required, "/problem")
    _require_numeric(problem, ("m", "n"), "/problem")
    for key in ("m", "n"):
        if not (_is_finite(problem[key]) and problem[key] > 0):
            raise SchemaError(f"expected a finite number > 0, got "
                              f"{problem[key]!r}", f"/problem/{key}")
    return bvp_mod.BoundaryProblem(
        alpha1=_parse_expr_at(problem["alpha1"], "/problem/alpha1", var="z"),
        alpha2=_parse_expr_at(problem["alpha2"], "/problem/alpha2", var="z"),
        m=float(problem["m"]), n=float(problem["n"]),
        g1=_parse_expr_at(problem["g1"], "/problem/g1"),
        g2=_parse_expr_at(problem["g2"], "/problem/g2"),
        g_gamma=_parse_expr_at(problem["gGamma"], "/problem/gGamma",
                               var="z"))


def cmd_build_bvp(cfg, args):
    system = bvp_mod.build_boundary_system(_bvp_problem(cfg))
    conj = bvp_mod.verify_omega_conjugacy(system,
                                          np.random.default_rng(args.seed))
    report = {
        "command": "build-bvp",
        "interval": [system.interval.a, system.interval.b],
        "anchors": list(system.pconf.anchors),
        "omega_sets": [g for g in system.omega_sets],
        "lambda_sets": [g for g in system.lambda_sets],
        "omega_guiding_defect": bvp_mod.omega_guiding_defect(system),
        "conjugacy_ok": conj.ok,
        "conjugacy_map_defect": conj.map_defect,
        "properness_violations": conj.properness_violations,
    }
    return report, 0


def cmd_analyze_bvp(cfg, args):
    system = bvp_mod.build_boundary_system(_bvp_problem(cfg))
    rep = bvp_mod.analyze_solvability(system, eps=args.eps,
                                      depth=args.depth,
                                      rng=np.random.default_rng(args.seed))
    report = {
        "command": "analyze-bvp", "status": rep.status, "route": rep.route,
        "grade": rep.grade,
        "fixed_points": [dataclasses.asdict(fp) for fp in rep.fixed_points],
        "cycles": [{"points": c.points, "generators": list(c.gens)}
                   for c in rep.cycle_report.cycles],
        "notes": rep.notes,
    }
    return report, (NEGATIVE_VERDICT_EXIT if rep.status == "not_solvable"
                    else 0)


def cmd_solve_bvp(cfg, args):
    problem = _bvp_problem(cfg)
    try:
        sol = bvp_mod.solve_bvp(problem, M=args.grid, mu=args.mu,
                                eps=args.eps, depth=args.depth)
    except NotSolvableError as exc:
        rep = exc.report
        report = {"command": "solve-bvp", "verdict": "not_solvable",
                  "route": rep.route if rep else None,
                  "witness_cycle": ({"points": rep.witness_cycle.points,
                                     "generators": list(
                                         rep.witness_cycle.gens)}
                                    if rep and rep.witness_cycle else None)}
        return report, NEGATIVE_VERDICT_EXIT
    report = {"command": "solve-bvp",
              **sol.verification.to_dict(sol.solvability.status),
              "chi0_defect": sol.triple.chi0_defect,
              "collocation_residual": sol.ivp_diagnostics.residual,
              "grid": args.grid}
    return report, 0, sol.field_csv


def cmd_verify_conjugacy(cfg, args):
    system = bvp_mod.build_boundary_system(_bvp_problem(cfg))
    rep = bvp_mod.verify_omega_conjugacy(system,
                                         np.random.default_rng(args.seed))
    report = {"command": "verify-conjugacy", "ok": rep.ok,
              "map_defect": rep.map_defect,
              "guiding_defects": list(rep.guiding_defects),
              "inv_defect": rep.inv_defect,
              "properness_checked": rep.properness_checked,
              "properness_violations": rep.properness_violations}
    return report, 0 if rep.ok else NEGATIVE_VERDICT_EXIT


def _arg_type(convert, accept, expected):
    """An argparse type: convert the text and keep values `accept` takes;
    anything else is a usage error (exit 2)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _arg_type(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _arg_type(int, lambda v: v >= 0,
                             "a non-negative integer")
_positive_float = _arg_type(float, lambda v: 0.0 < v < np.inf,
                            "a positive finite number")
_finite_float = _arg_type(float, lambda v: abs(v) < np.inf,
                          "a finite number")

# every flag's type; --eps and --tol are positive, --depth >= 0
FLAG_TYPES = {"--x0": _finite_float, "--eps": _positive_float,
              "--depth": _nonnegative_int, "--grid": _positive_int,
              "--tol": _positive_float, "--seed": int, "--h": str,
              "--c": _finite_float, "--mu": _finite_float}
# subcommand -> (handler, the flags it reads and their defaults); every
# subcommand also takes --config --out --no-meta --debug. A flag given on
# the command line is used as given; `...` marks a required flag, and a
# default of None leaves the value to the config (or the library).
COMMANDS = {
    "orbit": (cmd_orbit, {"--x0": ..., "--eps": 0.01, "--depth": 10 ** 4}),
    "probe": (cmd_probe, {"--eps": 0.01, "--depth": 10 ** 5}),
    "weak-attractor": (cmd_weak_attractor,
                       {"--x0": ..., "--eps": 0.01, "--depth": 10 ** 5}),
    "cycles": (cmd_cycles, {}),
    "graph-min": (cmd_graph_min, {"--grid": None}),
    "certify": (cmd_certify, {"--grid": 1024}),
    "solve-fe": (cmd_solve_fe, {"--h": None, "--grid": 1024, "--tol": 1e-12}),
    "solve-ivp": (cmd_solve_ivp,
                  {"--h": None, "--c": None, "--mu": None, "--grid": 512}),
    "validate-pconf": (cmd_validate_pconf, {}),
    "overdet": (cmd_overdet,
                {"--eps": 2.0 ** -12, "--depth": 14, "--tol": 1e-9}),
    "affine-analyze": (cmd_affine_analyze, {}),
    "build-bvp": (cmd_build_bvp, {"--seed": 0}),
    "analyze-bvp": (cmd_analyze_bvp,
                    {"--seed": 0, "--eps": 0.01, "--depth": 10 ** 5}),
    "solve-bvp": (cmd_solve_bvp, {"--grid": 512, "--mu": 0.0, "--eps": 0.01,
                                  "--depth": 10 ** 5}),
    "verify-conjugacy": (cmd_verify_conjugacy, {"--seed": 0}),
}
HANDLERS = {name: handler for name, (handler, _) in COMMANDS.items()}


def build_parser(command=None):
    """The gds parser. Given a known subcommand, only that subcommand's
    parser is built, under a usage line that still names every subcommand;
    else all of them are, for --help and the invalid-choice message."""
    parser = argparse.ArgumentParser(
        prog="gds",
        description="Guided dynamical systems, Cauchy-type functional "
                    "equations, and the characteristic boundary value "
                    "problem.")
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--no-meta", action="store_true")
        p.add_argument("--debug", action="store_true",
                       help="print the traceback of an internal error")
        for flag, default in COMMANDS[name][1].items():
            p.add_argument(flag, type=FLAG_TYPES[flag], default=default,
                           required=default is ...)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR_EXIT if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        report, code, *to_csv = HANDLERS[args.command](cfg, args)
        return emit(report, args, code, *to_csv)
    except GuidedDynamicsError as exc:
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code
    except argparse.ArgumentError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return CONFIG_ERROR_EXIT
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return CONFIG_ERROR_EXIT
    except Exception as exc:  # never panic on malformed input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        if args.debug:
            traceback.print_exc(file=sys.stderr)
        return NUMERIC_FAILURE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
