"""Batch front end: config ingestion, subcommand dispatch, CSV/JSON
artifact emission.

Exit codes: 0 verdict/solve success, 1 negative domain verdict (e.g.
NotSolvable, Inconsistent, NotMinimal), 2 usage/config error, 3 numeric
failure. Reports are JSON (sorted keys); grids are CSV. A fixed --seed
drives every randomized sampling step, so identical invocations produce
byte-identical reports (--no-meta drops the timestamp block).
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
from .errors import (BudgetExceeded, CornerMismatch, DataMismatch,
                     DegenerateParametrization, DomainError,
                     ExprSyntaxError, GuidedDynamicsError,
                     HypothesisFailure, IllConditioned, MapEscape,
                     NoBracket, NoConvergence, NotASolution, NotCertified,
                     NotInvertible, NotSolvableError, PConfigViolation,
                     SchemaError)
from .exprlang import parse as parse_expr

TOP_LEVEL_KEYS = {"space", "maps", "guiding", "coeffs", "problem",
                  "tolerances", "budgets"}
SPACE_KEYS = {"interval": {"type", "a", "b"},
              "circle": {"type", "period"},
              "graph": {"type", "nodes", "tables"}}
TOLERANCE_KEYS = {"tol_lambda", "tol", "tol_data", "corner_tol"}
BUDGET_KEYS = {"cell_cap", "max_iter", "m_max", "max_cycle_len"}

NEGATIVE_VERDICT_EXIT = 1
CONFIG_ERROR_EXIT = 2
NUMERIC_FAILURE_EXIT = 3


class JobConfig:
    def __init__(self, raw, path="<config>"):
        self.raw = raw
        self.path = path
        self.parsed_maps = None
        self.parsed_coeffs = None

    @property
    def tolerances(self):
        return self.raw.get("tolerances", {})

    @property
    def budgets(self):
        return self.raw.get("budgets", {})

    @property
    def problem(self):
        return self.raw.get("problem", {})

    def space(self):
        section = self.raw.get("space")
        if section is None:
            raise SchemaError("missing 'space' section", "/space")
        kind = section.get("type")
        if kind == "interval":
            return gds_mod.Interval(float(section["a"]), float(section["b"]))
        if kind == "circle":
            return gds_mod.CircleSpace(float(section.get(
                "period", 2.0 * np.pi)))
        if kind == "graph":
            return gds_mod.FiniteGraphSpace(int(section["nodes"]))
        raise SchemaError(f"unknown space type {kind!r}", "/space/type")

    def generator_maps(self):
        space = self.space()
        if isinstance(space, gds_mod.FiniteGraphSpace):
            tables = self.raw["space"].get("tables")
            if tables is None:
                raise SchemaError("graph space needs 'tables'",
                                  "/space/tables")
            return [gds_mod.GeneratorMap(None, None, label=i, table=tab)
                    for i, tab in enumerate(tables)]
        if self.parsed_maps is None:
            raise SchemaError("missing 'maps' section", "/maps")
        return [gds_mod.map_from(expr, label=i)
                for i, expr in enumerate(self.parsed_maps)]

    def guiding_sets(self, n):
        section = self.raw.get("guiding")
        if section is None:
            return None
        sets = []
        for entry in section:
            intervals = []
            for item in entry:
                if isinstance(item, (int, float)):
                    intervals.append((float(item), float(item)))
                else:
                    intervals.append((float(item[0]),
                                      float(item[-1])))
            sets.append(gds_mod.GuidingSet(intervals))
        if len(sets) != n:
            raise SchemaError(
                f"need one guiding entry per generator ({n}), got "
                f"{len(sets)}", "/guiding")
        return sets

    def guided_system(self):
        maps = self.generator_maps()
        guiding = self.guiding_sets(len(maps))
        tol_lambda = float(self.tolerances.get("tol_lambda", 1e-9))
        return gds_mod.GuidedSystem(self.space(), maps, guiding,
                                    tol_lambda=tol_lambda)

    def funceq_system(self):
        maps = self.generator_maps()
        if self.parsed_coeffs is None:
            raise SchemaError("missing 'coeffs' section", "/coeffs")
        guiding = self.guiding_sets(len(maps))
        return funceq_mod.FunceqSystem(self.space(), maps,
                                       self.parsed_coeffs, guiding=guiding)


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


def load_config(path: str) -> JobConfig:
    """Read, schema-validate, and pre-parse a job config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "/") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object", "/")
    for key in raw:
        if key not in TOP_LEVEL_KEYS:
            raise SchemaError(f"unknown key {key!r}", f"/{key}")
    space = raw.get("space")
    if space is not None:
        kind = space.get("type")
        if kind not in SPACE_KEYS:
            raise SchemaError(f"unknown space type {kind!r}", "/space/type")
        for key in space:
            if key not in SPACE_KEYS[kind]:
                raise SchemaError(f"unknown key {key!r}", f"/space/{key}")
    for section, allowed in (("tolerances", TOLERANCE_KEYS),
                             ("budgets", BUDGET_KEYS)):
        for key in raw.get(section, {}):
            if key not in allowed:
                raise SchemaError(f"unknown key {key!r}",
                                  f"/{section}/{key}")
    cfg = JobConfig(raw, path)
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


def emit(report, args, exit_code):
    doc = _jsonable(report)
    if not args.no_meta:
        doc["meta"] = {"tool": "gds", "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if getattr(args, "report_to_out", False) and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------

def cmd_orbit(args):
    cfg = load_config(args.config)
    system = cfg.guided_system()
    cloud = gds_mod.guided_orbit_set(system, args.x0, args.depth, args.eps,
                                     cell_cap=int(cfg.budgets.get(
                                         "cell_cap", 500_000)))
    if args.out:
        cloud.to_csv(args.out)
    report = {"command": "orbit", "seed": cloud.seed,
              "coverage": cloud.coverage, "points": int(len(cloud.points)),
              "eps": cloud.eps, "saturated": cloud.saturated,
              "partial": cloud.partial, "depth_used": cloud.depth_used}
    return emit(report, args, 0)


def cmd_probe(args):
    cfg = load_config(args.config)
    system = cfg.guided_system()
    verdict = gds_mod.probe_minimality(system, args.eps, args.depth)
    report = {"command": "probe", "verdict": verdict.kind,
              "eps": verdict.eps, "depth": verdict.depth,
              "coverage": verdict.coverage, "via": verdict.via,
              "witness": verdict.witness,
              "witness_nodes": verdict.witness_nodes,
              "note": verdict.note}
    args.report_to_out = True
    code = NEGATIVE_VERDICT_EXIT if verdict.is_not_minimal else 0
    return emit(report, args, code)


def cmd_weak_attractor(args):
    cfg = load_config(args.config)
    system = cfg.guided_system()
    verdict = gds_mod.probe_weak_attractor(system, args.x0, args.eps,
                                           args.depth)
    report = {"command": "weak-attractor", "verdict": verdict.kind,
              "x0": verdict.x0, "eps": verdict.eps,
              "witness_seed": verdict.witness_seed}
    args.report_to_out = True
    return emit(report, args, NEGATIVE_VERDICT_EXIT
                if verdict.kind == "no" else 0)


def cmd_cycles(args):
    cfg = load_config(args.config)
    system = cfg.guided_system()
    max_len = int(cfg.budgets.get("max_cycle_len", args.max_len))
    rep = gds_mod.find_guided_cycles(system, max_len)
    report = {"command": "cycles", "max_len": rep.max_len,
              "n_seeds": rep.n_seeds,
              "cycles": [{"points": c.points, "generators": list(c.gens)}
                         for c in rep.cycles]}
    args.report_to_out = True
    return emit(report, args, NEGATIVE_VERDICT_EXIT if rep.cycles else 0)


def cmd_graph_min(args):
    cfg = load_config(args.config)
    system = cfg.guided_system()
    cells = (args.grid if args.grid is not None
             else getattr(system.space, "n_nodes", 64))
    graph = gds_mod.build_orbit_graph(system, int(cells))
    comps = gds_mod.minimal_subsystems(graph)
    report = {"command": "graph-min", "n_nodes": graph.n_nodes,
              "n_edges": int(len(graph.edges)),
              "approximate": graph.approximate,
              "minimal_subsystems": comps}
    args.report_to_out = True
    return emit(report, args, 0)


def cmd_certify(args):
    cfg = load_config(args.config)
    system = cfg.funceq_system()
    m_max = int(cfg.budgets.get("m_max", 64))
    M = 1024 if args.grid is None else args.grid
    outcome = funceq_mod.certify_contraction(system, m_max=m_max, M=M)
    ok = isinstance(outcome, funceq_mod.ContractionCertificate)
    report = {"command": "certify", "certified": ok, **outcome.to_dict()}
    args.report_to_out = True
    return emit(report, args, 0 if ok else NEGATIVE_VERDICT_EXIT)


def cmd_solve_fe(args):
    cfg = load_config(args.config)
    system = cfg.funceq_system()
    h_src = args.h or cfg.problem.get("h")
    if h_src is None:
        raise SchemaError("solve-fe needs an right-hand side h",
                          "/problem/h")
    h = _parse_expr_at(h_src, "/problem/h")
    M = 1024 if args.grid is None else args.grid
    f, rep = funceq_mod.solve_neumann(
        system, h, tol=args.tol or 1e-12, M=M,
        max_iter=int(cfg.budgets.get("max_iter", 20000)),
        m_max=int(cfg.budgets.get("m_max", 64)))
    if args.out:
        f.to_csv(args.out)
    report = {"command": "solve-fe", "residual": rep.residual,
              "iterations": rep.iterations, "grid": M,
              "certificate": rep.certificate.to_dict()}
    return emit(report, args, 0)


def _pconf_from_config(cfg, args):
    problem = cfg.problem
    anchors = problem.get("anchors")
    if anchors is None:
        raise SchemaError("P-configuration needs problem.anchors",
                          "/problem/anchors")
    maps = cfg.generator_maps()
    space = cfg.space()
    tol = float(cfg.tolerances.get("tol", 1e-8))
    return pconf_mod.validate_pconfiguration(maps, space, anchors, tol=tol)


def cmd_validate_pconf(args):
    cfg = load_config(args.config)
    args.report_to_out = True
    try:
        pc = _pconf_from_config(cfg, args)
    except PConfigViolation as exc:
        report = {"command": "validate-pconf", "valid": False,
                  "condition": exc.condition, "witness": exc.witness,
                  "message": str(exc)}
        return emit(report, args, NEGATIVE_VERDICT_EXIT)
    report = {"command": "validate-pconf", "valid": True,
              "anchors": list(pc.anchors),
              "guiding": [g for g in pc.guiding]}
    return emit(report, args, 0)


def cmd_solve_ivp(args):
    cfg = load_config(args.config)
    pc = _pconf_from_config(cfg, args)
    problem = cfg.problem
    h_src = args.h or problem.get("h")
    if h_src is None:
        raise SchemaError("solve-ivp needs h", "/problem/h")
    if isinstance(h_src, str) and h_src.endswith(".csv"):
        h = funceq_mod.GridFunction.from_csv(h_src, domain=pc.interval)
    else:
        h = _parse_expr_at(h_src, "/problem/h")
    c = args.c if args.c is not None else float(problem.get("c", 0.0))
    mu = args.mu if args.mu is not None else float(problem.get("mu", 0.0))
    M = 512 if args.grid is None else args.grid
    tol_data = float(cfg.tolerances.get("tol_data", 1e-8))
    sol = pconf_mod.solve_ivp(pconf_mod.IvpProblem(pc, h, c, mu,
                                                   tol_data=tol_data), M)
    if args.out:
        sol.f.to_csv(args.out)
    report = {"command": "solve-ivp", **sol.diagnostics.to_dict()}
    return emit(report, args, 0)


def _require(section, keys, pointer):
    missing = set(keys) - set(section)
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)}", pointer)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_numeric(section, keys, pointer, ndim=0):
    """Each present key must hold a JSON number or, up to ndim levels
    deep, a nonempty rectangular nested list of numbers."""
    for key in keys:
        if key not in section:
            continue
        arr = np.array(section[key], dtype=object)
        if arr.ndim > ndim or arr.size == 0 or \
                not all(_is_number(v) for v in arr.flat):
            shape = ("a number", "a number or a list of numbers",
                     "a number or a matrix of numbers")[ndim]
            raise SchemaError(f"{key!r} must be {shape}", f"{pointer}/{key}")


def _require_interval(section, pointer):
    value = section.get("interval")
    if not (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)):
        raise SchemaError("'interval' must be a list of two numbers",
                          f"{pointer}/interval")


# overdet kind -> problem keys it reads
OVERDET_KEYS = {"jensen": ("interval", "A", "B"), "cauchy": ("B",),
                "geometric_mean": ("interval", "A", "B"),
                "affine": ("interval", "A", "B")}


def cmd_overdet(args):
    cfg = load_config(args.config)
    problem = cfg.problem
    kind = problem.get("kind")
    if kind not in OVERDET_KEYS:
        raise SchemaError(f"unknown overdet kind {kind!r}", "/problem/kind")
    _require(problem, OVERDET_KEYS[kind], "/problem")
    if "interval" in OVERDET_KEYS[kind]:
        _require_interval(problem, "/problem")
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
        for i, spec_rule in enumerate(problem.get("rules", [])):
            _require(spec_rule, ("map",), f"/problem/rules/{i}")
            rules.append(cauchy_mod.PropagationRule(
                map=_parse_expr_at(spec_rule["map"], f"/problem/rules/{i}/map"),
                c_A=spec_rule.get("cA", 0.0), c_B=spec_rule.get("cB", 0.0),
                c_v=spec_rule.get("cv", 0.0), c_0=spec_rule.get("c0", 0.0),
                label=i))
        prob = cauchy_mod.OverdetProblem(
            tuple(problem["interval"]), problem["A"], problem["B"], rules,
            name="affine")
    eps = args.eps or 2.0 ** -12
    depth = args.depth or 14
    cloud = cauchy_mod.propagate_values(
        prob, depth, eps,
        cell_cap=int(cfg.budgets.get("cell_cap", 2 ** 22)))
    rep = cauchy_mod.check_consistency(cloud, eps, args.tol or 1e-9)
    if args.out:
        cloud.to_csv(args.out)
    report = {"command": "overdet", "kind": kind,
              "verdict": rep.verdict, "points": int(len(cloud)),
              "max_collision_gap": rep.max_collision_gap,
              "n_collisions": rep.n_collisions,
              "saturated": cloud.saturated, "partial": cloud.partial}
    return emit(report, args,
                0 if rep.consistent else NEGATIVE_VERDICT_EXIT)


def cmd_affine_analyze(args):
    cfg = load_config(args.config)
    problem = cfg.problem
    _require(problem, ("A1", "A2", "b1", "b2"), "/problem")
    _require_numeric(problem, ("A1", "A2"), "/problem", ndim=2)
    _require_numeric(problem, ("b1", "b2"), "/problem", ndim=1)
    args.report_to_out = True
    try:
        analysis = cauchy_mod.analyze_affine(
            problem["A1"], problem["A2"], problem["b1"], problem["b2"])
    except HypothesisFailure as exc:
        report = {"command": "affine-analyze", "ok": False,
                  "failed_condition": exc.condition, "message": str(exc)}
        return emit(report, args, NEGATIVE_VERDICT_EXIT)
    report = {"command": "affine-analyze", "ok": True,
              **analysis.to_dict()}
    return emit(report, args, 0)


def _bvp_problem(cfg):
    problem = cfg.problem
    required = {"alpha1", "alpha2", "m", "n", "g1", "g2", "gGamma"}
    for key in problem:
        if key not in required:
            raise SchemaError(f"unknown key {key!r}", f"/problem/{key}")
    _require(problem, required, "/problem")
    return bvp_mod.BoundaryProblem(
        alpha1=_parse_expr_at(problem["alpha1"], "/problem/alpha1", var="z"),
        alpha2=_parse_expr_at(problem["alpha2"], "/problem/alpha2", var="z"),
        m=float(problem["m"]), n=float(problem["n"]),
        g1=_parse_expr_at(problem["g1"], "/problem/g1"),
        g2=_parse_expr_at(problem["g2"], "/problem/g2"),
        g_gamma=_parse_expr_at(problem["gGamma"], "/problem/gGamma",
                               var="z"))


def cmd_build_bvp(args):
    cfg = load_config(args.config)
    system = bvp_mod.build_boundary_system(
        _bvp_problem(cfg), rng=np.random.default_rng(args.seed))
    args.report_to_out = True
    report = {
        "command": "build-bvp",
        "interval": [system.interval.a, system.interval.b],
        "anchors": list(system.pconf.anchors),
        "omega_sets": [g for g in system.omega_sets],
        "lambda_sets": [g for g in system.lambda_sets],
        "omega_guiding_defect": system.omega_guiding_defect,
        "conjugacy_ok": system.conjugacy.ok,
        "conjugacy_map_defect": system.conjugacy.map_defect,
        "properness_violations": system.conjugacy.properness_violations,
    }
    return emit(report, args, 0)


def cmd_analyze_bvp(args):
    cfg = load_config(args.config)
    rng = np.random.default_rng(args.seed)
    system = bvp_mod.build_boundary_system(_bvp_problem(cfg), rng=rng)
    rep = bvp_mod.analyze_solvability(system, eps=args.eps or 0.01,
                                      depth=args.depth or 10 ** 5, rng=rng)
    args.report_to_out = True
    report = {
        "command": "analyze-bvp", "status": rep.status, "route": rep.route,
        "grade": rep.grade,
        "fixed_points": [dataclasses.asdict(fp) for fp in rep.fixed_points],
        "cycles": [{"points": c.points, "generators": list(c.gens)}
                   for c in rep.cycle_report.cycles],
        "notes": rep.notes,
    }
    return emit(report, args,
                NEGATIVE_VERDICT_EXIT if rep.status == "not_solvable" else 0)


def cmd_solve_bvp(args):
    cfg = load_config(args.config)
    problem = _bvp_problem(cfg)
    M = 512 if args.grid is None else args.grid
    try:
        sol = bvp_mod.solve_bvp(problem, M=M, mu=args.mu or 0.0,
                                eps=args.eps or 0.01,
                                depth=args.depth or 10 ** 5)
    except NotSolvableError as exc:
        rep = exc.report
        report = {"command": "solve-bvp", "verdict": "not_solvable",
                  "route": rep.route if rep else None,
                  "witness_cycle": ({"points": rep.witness_cycle.points,
                                     "generators": list(
                                         rep.witness_cycle.gens)}
                                    if rep and rep.witness_cycle else None)}
        args.report_to_out = True
        return emit(report, args, NEGATIVE_VERDICT_EXIT)
    if args.out:
        sol.field_csv(args.out)
    report = {"command": "solve-bvp",
              **sol.verification.to_dict(verdict=sol.solvability.status
                                         if sol.solvability else "skipped"),
              "chi0_defect": sol.triple.chi0_defect,
              "collocation_residual": sol.ivp_diagnostics.residual,
              "grid": M}
    return emit(report, args, 0)


def cmd_verify_conjugacy(args):
    cfg = load_config(args.config)
    system = bvp_mod.build_boundary_system(
        _bvp_problem(cfg), rng=np.random.default_rng(args.seed))
    rep = system.conjugacy
    args.report_to_out = True
    report = {"command": "verify-conjugacy", "ok": rep.ok,
              "map_defect": rep.map_defect,
              "guiding_defects": list(rep.guiding_defects),
              "inv_defect": rep.inv_defect,
              "properness_checked": rep.properness_checked,
              "properness_violations": rep.properness_violations}
    return emit(report, args, 0 if rep.ok else NEGATIVE_VERDICT_EXIT)


HANDLERS = {
    "orbit": cmd_orbit,
    "probe": cmd_probe,
    "weak-attractor": cmd_weak_attractor,
    "cycles": cmd_cycles,
    "graph-min": cmd_graph_min,
    "certify": cmd_certify,
    "solve-fe": cmd_solve_fe,
    "solve-ivp": cmd_solve_ivp,
    "validate-pconf": cmd_validate_pconf,
    "overdet": cmd_overdet,
    "affine-analyze": cmd_affine_analyze,
    "build-bvp": cmd_build_bvp,
    "analyze-bvp": cmd_analyze_bvp,
    "solve-bvp": cmd_solve_bvp,
    "verify-conjugacy": cmd_verify_conjugacy,
}


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gds",
        description="Guided dynamical systems, Cauchy-type functional "
                    "equations, and the characteristic boundary value "
                    "problem.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--grid", type=_positive_int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-meta", action="store_true")
        p.add_argument("--debug", action="store_true",
                       help="print the traceback of an internal error")
        if name == "orbit":
            p.add_argument("--x0", type=float, required=True)
        if name == "weak-attractor":
            p.add_argument("--x0", type=float, required=True)
        if name == "cycles":
            p.add_argument("--max-len", type=int, default=6)
        if name in ("solve-ivp",):
            p.add_argument("--h", default=None)
            p.add_argument("--c", type=float, default=None)
            p.add_argument("--mu", type=float, default=None)
        if name == "solve-fe":
            p.add_argument("--h", default=None)
        if name == "solve-bvp":
            p.add_argument("--mu", type=float, default=None)
    return parser


_NUMERIC_ERRORS = (NoConvergence, IllConditioned, NotCertified,
                   BudgetExceeded, DomainError, MapEscape, NoBracket,
                   NotInvertible, NotASolution)
_VERDICT_ERRORS = (PConfigViolation, HypothesisFailure, DataMismatch,
                   CornerMismatch, DegenerateParametrization)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR_EXIT if exc.code not in (0, None) else 0
    # defaults shared by probe-like commands
    if args.eps is None and args.command in ("probe", "weak-attractor",
                                             "orbit"):
        args.eps = 0.01
    if args.depth is None and args.command in ("probe", "weak-attractor"):
        args.depth = 10 ** 5
    if args.depth is None and args.command == "orbit":
        args.depth = 10 ** 4
    args.report_to_out = False
    try:
        return HANDLERS[args.command](args)
    except SchemaError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return CONFIG_ERROR_EXIT
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return CONFIG_ERROR_EXIT
    except _VERDICT_ERRORS as exc:
        sys.stderr.write(f"rejected: {exc}\n")
        return NEGATIVE_VERDICT_EXIT
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return NUMERIC_FAILURE_EXIT
    except GuidedDynamicsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return NUMERIC_FAILURE_EXIT
    except Exception as exc:  # never panic on malformed input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        if args.debug:
            traceback.print_exc(file=sys.stderr)
        return NUMERIC_FAILURE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
