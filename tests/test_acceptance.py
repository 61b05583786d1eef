"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py`` to see them). Stated
tolerances and budgets are asserted as given.
"""

import math
import time

import numpy as np
import pytest

from conftest import GOLDEN, circle_system, compute_g_n
from guided_dynamics.bvp import (analyze_solvability, gamma_system, solve_bvp,
                                 verify_solution)
from guided_dynamics.cauchy import (OverdetProblem, PropagationRule,
                                    analyze_affine, check_consistency,
                                    orbit_convergence_rates,
                                    propagate_values)
from guided_dynamics.errors import DomainError
from guided_dynamics.exprlang import (Add, Call, Div, Mul, Num, Pow, Var,
                                      differentiate, parse)
from guided_dynamics.funceq import (ContractionCertificate,
                                    ContractionFailure, certify_contraction,
                                    solve_neumann)
from guided_dynamics.gds import (ContractionMinimalityCertificate,
                                 GuidedSystem, build_orbit_graph,
                                 check_contraction_minimality,
                                 minimal_subsystems, probe_minimality,
                                 verify_conjugacy)
from guided_dynamics.pconf import IvpProblem, extract_guiding_sets, solve_ivp

from test_gds import brute_force_minimal_sets, random_guided_graph
from test_bvp import field_error


def ok(number, name):
    print(f"\nACCEPTANCE {number:>2} {name}: PASS")


def test_criterion_01_neumann_solve(quarter_coeff_system):
    t0 = time.perf_counter()
    f, rep = solve_neumann(quarter_coeff_system, parse("t"), tol=1e-13,
                           M=1024)
    elapsed = time.perf_counter() - t0
    assert np.max(np.abs(f.values - (4.0 / 3.0) * f.nodes)) < 1e-8
    assert elapsed < 1.0
    ok(1, "Neumann solve")


def test_criterion_02_certificates(quadratic_coeff_system,
                                   half_coeff_system,
                                   quarter_coeff_system):
    cert = certify_contraction(quadratic_coeff_system, m_max=64)
    assert isinstance(cert, ContractionCertificate)
    assert cert.m <= 3
    assert cert.norm < 1.0
    failure = certify_contraction(half_coeff_system, m_max=64)
    assert isinstance(failure, ContractionFailure)
    assert failure.m_max == 64
    violations = 0
    for system in (quarter_coeff_system, half_coeff_system,
                   quadratic_coeff_system):
        prev = compute_g_n(system, 0, M=256)
        for n in range(1, 9):
            cur = compute_g_n(system, n, M=256)
            violations += int(np.any(cur.values > prev.values + 1e-12))
            prev = cur
    assert violations == 0
    ok(2, "contraction certificates and g_n monotonicity")


def test_criterion_03_and_04_ivp_roundtrip(standard_pconf):
    # random degree-<=5 polynomials with f'(0) = 0; coefficients drawn
    # from U(-0.05, 0.05)
    rng = np.random.default_rng(314159)
    maps = [m.fn for m in standard_pconf.maps]
    slowest = 0.0
    anchor_ok = True
    for _ in range(20):
        coef = rng.uniform(-0.05, 0.05, 6)
        coef[1] = 0.0
        poly = np.polynomial.Polynomial(coef)

        def h(t, poly=poly):
            return poly(t) - poly(maps[0](t)) - poly(maps[1](t))

        errs = {}
        sols = {}
        for M in (512, 1024):
            t0 = time.perf_counter()
            sol = solve_ivp(IvpProblem(standard_pconf, h, 0.0, 0.0), M)
            slowest = max(slowest, time.perf_counter() - t0)
            errs[M] = float(np.max(np.abs(sol.f.values -
                                          poly(sol.f.nodes))))
            sols[M] = sol
        assert errs[512] < 1e-5 and errs[1024] < 1e-5
        assert 3.0 <= errs[512] / errs[1024] <= 5.0
        for sol in sols.values():
            anchor_sum = sol.f.eval(0.0)
            h0 = float(h(np.array([-1.0]))[0])
            tol = 10 * max(sol.diagnostics.residual, 1e-12)
            anchor_ok &= abs(anchor_sum + h0) < tol
            anchor_ok &= sol.diagnostics.anchor_identity_defect < tol
    assert slowest < 5.0
    ok(3, "IVP round-trip rate")
    assert anchor_ok
    ok(4, "anchor identity")


def test_criterion_05_minimality_probes(standard_pconf):
    t0 = time.perf_counter()
    verdict = probe_minimality(circle_system(GOLDEN, 0.3), 0.01, 10 ** 5)
    t_golden = time.perf_counter() - t0
    assert verdict.kind == "minimal_evidence"
    assert t_golden < 10.0

    t0 = time.perf_counter()
    verdict = probe_minimality(circle_system(0.25, 0.5), 0.01, 10 ** 5)
    t_rational = time.perf_counter() - t0
    assert verdict.kind == "not_minimal"
    assert len(verdict.witness) == 4
    assert t_rational < 10.0

    t0 = time.perf_counter()
    system = GuidedSystem(standard_pconf.interval, standard_pconf.maps,
                          extract_guiding_sets(standard_pconf))
    cert = check_contraction_minimality(system)
    assert isinstance(cert, ContractionMinimalityCertificate)
    probe = probe_minimality(system, 0.01, 10 ** 4)
    assert probe.kind != "not_minimal"
    assert time.perf_counter() - t0 < 10.0
    ok(5, "minimality probes")


def test_criterion_06_graph_oracle():
    rng = np.random.default_rng(271828)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        system = random_guided_graph(rng, n)
        graph = build_orbit_graph(system, n)
        got = minimal_subsystems(graph)
        want = brute_force_minimal_sets(n, graph.edges.tolist())
        mismatches += int(got != want)
    assert mismatches == 0
    ok(6, "terminal components match brute force")


def test_criterion_07_overdeterminedness():
    cloud = propagate_values(OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0),
                             14, 2.0 ** -12)
    assert len(cloud) >= 2 ** 12 + 1
    assert np.max(np.abs(cloud.values - cloud.points)) < 1e-12

    cloud = propagate_values(OverdetProblem.cauchy_boundary(0.5),
                             14, 2.0 ** -12)
    assert np.max(np.abs(cloud.values - 0.5 * cloud.points)) < 1e-12

    cloud = propagate_values(
        OverdetProblem.geometric_mean((1.0, 4.0), 0.0, 2.0), 30, 1e-4)
    assert np.max(np.abs(cloud.values - np.log2(cloud.points))) < 1e-9

    rules = (
        PropagationRule(map=lambda t: (1.0 + np.asarray(t, float)) / 2.0,
                        c_A=1.0, c_v=1.0, label=0),
        PropagationRule(map=lambda t: (np.asarray(t, float) + 2.0) / 2.0,
                        c_B=1.0, c_v=1.0, label=1),
    )
    bad = OverdetProblem((1.0, 2.0), 1.0, 0.3, rules)
    cloud = propagate_values(bad, 1, 1e-3)
    report = check_consistency(cloud, 1e-3, 1e-9)
    assert not report.consistent
    assert max(cloud.depths) <= 1
    ok(7, "overdetermined propagation")


def test_criterion_08_affine_analysis():
    analysis = analyze_affine([[1.0]], [[1.0]], [0.0], [1.0])
    assert analysis.B1[0, 0] == 0.5
    assert analysis.d_tilde1[0] == pytest.approx(-1.0, abs=1e-12)
    assert analysis.d_tilde2[0] == pytest.approx(1.0, abs=1e-12)
    assert analysis.gamma == 0.5
    assert analysis.radius == 5
    for which in (1, 2):
        rates = orbit_convergence_rates(analysis, which,
                                        np.array([2.7]), steps=20)
        assert all(abs(r - analysis.gamma) <= 0.1 * analysis.gamma
                   for r in rates)
    ok(8, "affine analysis")


def test_criterion_09_bvp_end_to_end(straight_system, curved_system):
    t0 = time.perf_counter()
    sol = solve_bvp(straight_system.problem, M=512)
    t_straight = time.perf_counter() - t0
    assert sol.verification.fd_step == 1.0 / 128
    assert sol.verification.boundary_defect < 1e-6
    assert field_error(sol, lambda x, y: (x - y) ** 2) < 1e-5
    res = sol.verification.pde_residual
    assert res < 1e-3
    halved = verify_solution(sol, fd_step=1.0 / 256).pde_residual
    # the balanced direction m = n makes the discrete operator exact on
    # the reconstruction, so the residual may already sit at roundoff;
    # otherwise it must contract by 4x
    assert halved <= res / 4.0 or halved <= 1e-8
    assert t_straight < 30.0

    t0 = time.perf_counter()
    sol_c = solve_bvp(curved_system.problem, M=1024)
    t_curved = time.perf_counter() - t0
    err = field_error(sol_c,
                      lambda x, y: x ** 2 + y ** 2 + (x - y) ** 3)
    assert err < 1e-4
    assert t_curved < 30.0
    ok(9, "boundary value problem end to end")


def test_criterion_10_conjugacy(straight_system, curved_system):
    for system in (straight_system, curved_system):
        report = verify_conjugacy(gamma_system(system),
                                  system.interval_system,
                                  system.omega, system.z_of_t,
                                  samples=100)
        assert report.map_defect < 1e-9
        assert max(report.guiding_defects) < 1e-9
        assert report.properness_violations == 0
        assert report.properness_checked >= 100
        ts = np.linspace(system.interval.a, system.interval.b, 513)
        total = system.delta1.derivative(ts) + \
            system.delta2.derivative(ts)
        assert np.max(np.abs(total - 1.0)) < 1e-9
    ok(10, "omega conjugacy")


def test_criterion_11_solvability_layering(straight_system, cycle_system):
    report = analyze_solvability(straight_system)
    assert report.status == "solvable"
    fps = sorted(report.fixed_points, key=lambda fp: -fp.t_star)
    assert abs(fps[0].t_star - 1.0 / 3.0) < 1e-12
    assert abs(fps[0].derivative - 0.25) < 1e-10

    report_c = analyze_solvability(cycle_system)
    assert report_c.status == "not_solvable"
    pts = np.sort(report_c.witness_cycle.points[:-1])
    assert abs(pts[0] + 1.0 / 3.0) < 1e-4
    assert abs(pts[1] - 1.0 / 3.0) < 1e-4
    ok(11, "solvability layering")


# --------------------------------------------------------------------------
# criterion 12: random expression corpus
# --------------------------------------------------------------------------

def _random_expression(rng, depth=0):
    if depth >= 3 or rng.random() < 0.2:
        if rng.random() < 0.65:
            return Var("t")
        return Num(round(float(rng.uniform(-2.0, 2.0)), 4))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "sin", "cos",
                       "tanh", "exp", "log", "sqrt"])
    child = _random_expression(rng, depth + 1)
    if kind in ("add", "sub", "mul"):
        other = _random_expression(rng, depth + 1)
        cls = {"add": Add, "sub": lambda a, b: Add(a, Mul(Num(-1.0), b)),
               "mul": Mul}[kind]
        return cls(child, other)
    if kind == "div":
        # keep denominators bounded away from zero
        denom = Add(Num(2.0), Pow(_random_expression(rng, depth + 1),
                                  Num(2.0)))
        return Div(child, denom)
    if kind == "pow":
        return Pow(child, Num(float(rng.integers(2, 4))))
    if kind == "exp":
        return Call("exp", Call("sin", child))
    if kind == "log":
        return Call("log", Add(Num(2.0), Pow(child, Num(2.0))))
    if kind == "sqrt":
        return Call("sqrt", Add(Num(1.0), Pow(child, Num(2.0))))
    return Call(kind, child)


def test_criterion_12_parser_derivative_property():
    rng = np.random.default_rng(20240831)
    h = 1e-6
    worst = 0.0
    checked = 0
    while checked < 500:
        expr = _random_expression(rng)
        d = differentiate(expr)
        x = float(rng.uniform(-2.0, 2.0))
        try:
            fd = (expr(x + h) - expr(x - h)) / (2.0 * h)
            dv = d(x)
        except DomainError:
            continue
        if not (math.isfinite(fd) and math.isfinite(dv)):
            continue
        checked += 1
        worst = max(worst, abs(dv - fd) / (1.0 + abs(dv)))
    assert worst < 1e-5
    # golden trees stay stable (full set lives in test_exprlang)
    assert repr(parse("(t+1)/2")) == \
        "Div(Add(Var('t'), Num(1.0)), Num(2.0))"
    assert repr(parse("sin(t)^2")) == "Pow(Call('sin', Var('t')), Num(2.0))"
    ok(12, "derivative versus finite differences")
