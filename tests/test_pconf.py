import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgecon

from guided_dynamics import pconf
from guided_dynamics.errors import (DataMismatch, IllConditioned,
                                    NoConvergence, PConfigViolation)
from guided_dynamics.exprlang import parse
from guided_dynamics.funceq import GridFunction
from guided_dynamics.gds import (ContractionMinimalityCertificate,
                                 GeneratorMap, GuidedSystem, Interval,
                                 check_contraction_minimality,
                                 probe_minimality, probe_weak_attractor)
from guided_dynamics.pconf import (IvpProblem, extract_guiding_sets,
                                   solve_ivp, validate_pconfiguration)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_standard_pair(standard_pconf):
    assert standard_pconf.anchors == (-1.0, 0.0, 1.0)


def test_validate_three_map_affine(three_map_pconf):
    assert three_map_pconf.n_maps == 3


def test_validate_rejects_wrong_order():
    # spec orders the standard pair left-to-right; the swapped order
    # violates the endpoint-image condition
    with pytest.raises(PConfigViolation) as exc:
        validate_pconfiguration([parse("(t+1)/2"), parse("(t-1)/2")],
                                Interval(-1.0, 1.0), (-1.0, 0.0, 1.0))
    assert exc.value.condition == "endpoint_images"


def test_validate_rejects_duplicate_halves():
    with pytest.raises(PConfigViolation) as exc:
        validate_pconfiguration([parse("t/2"), parse("t/2")],
                                Interval(0.0, 1.0), (0.0, 0.5, 1.0))
    assert exc.value.condition == "endpoint_images"


def test_validate_rejects_bad_derivative_sum():
    with pytest.raises(PConfigViolation) as exc:
        validate_pconfiguration([parse("(t-1)/3"), parse("(t+1)/2")],
                                Interval(-1.0, 1.0), (-1.0, 0.0, 1.0))
    assert exc.value.condition in ("derivative_sum", "endpoint_images")


@pytest.mark.parametrize("kwargs", [{}, {"dfn": lambda t: 0.5 + 0 * t}],
                         ids=["no_derivative", "no_second_derivative"])
def test_validate_requires_both_derivatives(kwargs):
    # solve_ivp reads delta_i' and delta_i'' at the nodes
    half = GeneratorMap(lambda t: (t + 1) / 2, label=1, **kwargs)
    with pytest.raises(PConfigViolation) as exc:
        validate_pconfiguration([parse("(t-1)/2"), half],
                                Interval(-1.0, 1.0), (-1.0, 0.0, 1.0))
    assert exc.value.condition == "derivative_missing"
    assert str(exc.value).endswith("(map 1)")


def test_validate_requires_increasing_anchors():
    with pytest.raises(PConfigViolation) as exc:
        validate_pconfiguration([parse("(t-1)/2"), parse("(t+1)/2")],
                                Interval(-1.0, 1.0), (-1.0, 1.0, 0.0))
    assert exc.value.condition == "anchors_increasing"


# --------------------------------------------------------------------------
# guiding extraction
# --------------------------------------------------------------------------

def test_guiding_affine_empty(standard_pconf, three_map_pconf):
    for pc in (standard_pconf, three_map_pconf):
        assert all(g.is_empty for g in extract_guiding_sets(pc))


def test_guiding_quadratic_endpoints(quadratic_pconf):
    g_left, g_right = extract_guiding_sets(quadratic_pconf)
    # left map derivative (1-t)/2 vanishes at t = 1; right map derivative
    # (t+1)/2 vanishes at t = -1
    assert len(g_left.intervals) == 1
    assert g_left.intervals[0][1] == pytest.approx(1.0, abs=1e-8)
    assert len(g_right.intervals) == 1
    assert g_right.intervals[0][0] == pytest.approx(-1.0, abs=1e-8)


def test_sum_rule_on_validated_configs(standard_pconf, quadratic_pconf,
                                       three_map_pconf):
    for pc in (standard_pconf, quadratic_pconf, three_map_pconf):
        ts = pc.interval.grid(1001)
        total = sum(np.asarray(g.derivative(ts), dtype=float)
                    * np.ones_like(ts) for g in pc.maps)
        assert np.max(np.abs(total - 1.0)) < 1e-10


# --------------------------------------------------------------------------
# the initial value problem
# --------------------------------------------------------------------------

def test_solve_ivp_linear_exact(standard_pconf):
    sol = solve_ivp(IvpProblem(standard_pconf, parse("0"), 0.0, 1.0), 256)
    assert np.max(np.abs(sol.f.values - sol.f.nodes)) < 1e-8
    assert sol.diagnostics.residual < 1e-12


def test_solve_ivp_quadratic(standard_pconf):
    sol = solve_ivp(IvpProblem(standard_pconf, parse("(t*t-1)/2"),
                               0.0, 0.0), 1024)
    assert np.max(np.abs(sol.f.values - sol.f.nodes ** 2)) < 1e-6


def test_solve_ivp_data_mismatch(standard_pconf):
    with pytest.raises(DataMismatch):
        solve_ivp(IvpProblem(standard_pconf, parse("t"), 0.0, 0.0), 64)


def test_solve_ivp_homogeneous_uniqueness(standard_pconf,
                                          quadratic_pconf):
    for pc in (standard_pconf, quadratic_pconf):
        sol = solve_ivp(IvpProblem(pc, parse("0"), 0.0, 0.0), 256)
        assert np.max(np.abs(sol.f.values)) <= \
            10 * max(sol.diagnostics.residual, 1e-12)


def _random_poly_with_slope(rng, c, mu, scale=1.0):
    coef = rng.uniform(-scale, scale, 6)
    poly = np.polynomial.Polynomial(coef)
    coef = coef.copy()
    coef[1] += mu - poly.deriv()(c)
    return np.polynomial.Polynomial(coef)


def test_roundtrip_rate_and_constant(standard_pconf):
    # h built by forward application of random degree-5 polynomials;
    # recovery at the piecewise-linear rate with C <= 50
    rng = np.random.default_rng(2024)
    maps = [m.fn for m in standard_pconf.maps]
    worst_c = 0.0
    for _ in range(20):
        poly = _random_poly_with_slope(rng, 0.0, 0.0)

        def h(t, poly=poly):
            return poly(t) - poly(maps[0](t)) - poly(maps[1](t))

        assert abs(h(np.array([-1.0]))[0] - h(np.array([1.0]))[0]) < 1e-10
        errs = {}
        for M in (256, 512):
            sol = solve_ivp(IvpProblem(standard_pconf, h, 0.0, 0.0), M)
            errs[M] = float(np.max(np.abs(sol.f.values - poly(sol.f.nodes))))
        worst_c = max(worst_c, errs[512] * 512 ** 2)
        assert 3.0 < errs[256] / errs[512] < 5.0
    assert worst_c <= 50.0


def test_anchor_identity(standard_pconf, three_map_pconf):
    rng = np.random.default_rng(5)
    for pc in (standard_pconf, three_map_pconf):
        maps = [m.fn for m in pc.maps]
        c = 0.5 * (pc.interval.a + pc.interval.b)
        poly = _random_poly_with_slope(rng, c, 0.3)

        def h(t, poly=poly):
            out = poly(np.asarray(t, dtype=float))
            for mp in maps:
                out = out - poly(mp(t))
            return out

        sol = solve_ivp(IvpProblem(pc, h, c, 0.3), 512)
        anchor_sum = sum(sol.f.eval(a) for a in pc.anchors[1:-1])
        h0 = float(h(np.array([pc.interval.a]))[0])
        assert abs(anchor_sum + h0) <= \
            10 * max(sol.diagnostics.residual, 1e-12)
        assert sol.diagnostics.anchor_identity_defect <= \
            10 * max(sol.diagnostics.residual, 1e-12)


def test_solve_ivp_curved_configuration(quadratic_pconf):
    rng = np.random.default_rng(9)
    maps = [m.fn for m in quadratic_pconf.maps]
    poly = _random_poly_with_slope(rng, 0.3, 0.7)

    def h(t, poly=poly):
        return poly(t) - poly(maps[0](t)) - poly(maps[1](t))

    errs = {}
    for M in (512, 1024):
        sol = solve_ivp(IvpProblem(quadratic_pconf, h, 0.3, 0.7), M)
        errs[M] = float(np.max(np.abs(sol.f.values - poly(sol.f.nodes))))
    # curved maps converge a touch below the clean quadratic rate of the
    # affine corpus; the ratio climbs toward 4 under refinement
    assert 2.3 < errs[512] / errs[1024] < 5.0
    assert errs[1024] < 1e-3


def test_ivp_well_conditioned(standard_pconf):
    sol = solve_ivp(IvpProblem(standard_pconf, parse("(t*t-1)/2"),
                               0.0, 0.0), 512)
    assert sol.diagnostics.condition_bound < 1e6


# --------------------------------------------------------------------------
# minimality probing
# --------------------------------------------------------------------------

def probe_kinds(pc, x0):
    """The minimality and weak-attractor verdicts of a P-configuration at
    eps = 0.01, depth 10^4. It is minimal iff some point off its guiding
    sets is a weak attractor, so the two engines must agree: the pairs
    the tests expect are (minimal_evidence, yes) and (not_minimal, no)."""
    system = GuidedSystem(pc.interval, pc.maps, extract_guiding_sets(pc))
    return (probe_minimality(system, 0.01, 10 ** 4).kind,
            probe_weak_attractor(system, x0, 0.01, 10 ** 4).kind)


def test_probe_standard_via_certificate(standard_pconf):
    cert = check_contraction_minimality(GuidedSystem(
        standard_pconf.interval, standard_pconf.maps,
        extract_guiding_sets(standard_pconf)))
    assert isinstance(cert, ContractionMinimalityCertificate)
    assert cert.guiding_empty
    assert probe_kinds(standard_pconf, 0.0) == ("minimal_evidence", "yes")


def test_probe_three_map_certificate(three_map_pconf):
    cert = check_contraction_minimality(GuidedSystem(
        three_map_pconf.interval, three_map_pconf.maps,
        extract_guiding_sets(three_map_pconf)))
    assert isinstance(cert, ContractionMinimalityCertificate)
    assert cert.guiding_empty
    assert cert.lipschitz == pytest.approx((1 / 3,) * 3)
    assert probe_kinds(three_map_pconf, 1.5) == ("minimal_evidence", "yes")


def test_probe_quadratic_agrees(quadratic_pconf):
    # the endpoint anchors are fixed points reachable only through exact
    # guiding exclusions: not minimal, and the weak-attractor probe
    # agrees through a saturated endpoint seed
    assert probe_kinds(quadratic_pconf, 0.0) == ("not_minimal", "no")


def test_solve_ivp_ill_conditioned_gate(standard_pconf, monkeypatch):
    monkeypatch.setattr(pconf, "COND_CAP", 1.0)
    with pytest.raises(IllConditioned):
        solve_ivp(IvpProblem(standard_pconf, parse("0"), 0.0, 0.0), 64)


# --------------------------------------------------------------------------
# the sparse (w, F) system against the dense collocation matrix S
# --------------------------------------------------------------------------

def _dense_second_derivative_system(problem, M):
    """Reference: the (M+1)^2 matrix S of the w-equation and its
    right-hand side, assembled densely row by row."""
    pc = problem.pconf
    a0, aN = pc.interval.a, pc.interval.b
    nodes = np.linspace(a0, aN, M + 1)
    step = (aN - a0) / M
    cols = np.arange(M + 1)

    def upto(points):
        # trapezoid weights of int_{a_0}^{y} on grid values, one row per y
        k = np.clip(np.floor((points - a0) / step).astype(np.int64), 0,
                    M - 1)
        W = step * (cols[None, :] <= k[:, None])
        W[:, 0] -= step / 2.0
        rows = np.arange(len(points))
        W[rows, k] -= step / 2.0
        tau = points - (a0 + k * step)
        W[rows, k] += tau - tau * tau / (2.0 * step)
        W[rows, k + 1] += tau * tau / (2.0 * step)
        return W

    S = np.eye(M + 1)
    rhs = pconf._second_derivative_values(problem, nodes, step,
                                          problem.h_values(nodes))
    idx = np.arange(M + 1)
    for g in pc.maps:
        img = np.clip(np.asarray(g(nodes), dtype=float), a0, aN)
        k = np.clip(np.floor((img - a0) / step).astype(np.int64), 0,
                    M - 1)
        w = (img - (a0 + k * step)) / step
        co1 = np.asarray(g.derivative(nodes), dtype=float) ** 2
        np.add.at(S, (idx, k), -co1 * (1.0 - w))
        np.add.at(S, (idx, k + 1), -co1 * w)
        co2 = pconf._map_second_derivative(g, nodes)
        if np.max(np.abs(co2)) > 1e-14:
            S -= co2[:, None] * (upto(img) - upto(np.array([problem.c])))
            rhs = rhs - co2 * problem.mu
    return S, rhs


def _reference_f(problem, M, w):
    """f from w as solve_ivp rebuilds it."""
    pc = problem.pconf
    nodes = np.linspace(pc.interval.a, pc.interval.b, M + 1)
    step = (pc.interval.b - pc.interval.a) / M
    F1 = pconf._cumtrapz(w, step)
    f = pconf._cumtrapz(problem.mu + F1 - np.interp(problem.c, nodes, F1),
                        step)
    h0 = float(problem.h_values(nodes[:1])[0])
    anchor_sum = sum(np.interp(a, nodes, f) for a in pc.anchors[1:-1])
    return f - (anchor_sum + h0) / (pc.n_maps - 1)


def _poly_h(coefs, maps):
    """h = f - sum_i f o delta_i for the polynomial f, as an expression."""
    def f_of(x):
        return " + ".join(f"({c!r})*({x})^{k}" for k, c in enumerate(coefs))
    return parse(" - ".join([f_of("t")] + [f"({f_of(m)})" for m in maps]))


_MAPS = {"standard": ("(t-1)/2", "(t+1)/2"),
         "quadratic": ("t-((t+1)/2)^2", "((t+1)/2)^2"),
         "three-map": ("t/3", "t/3+1", "t/3+2")}


@pytest.fixture(scope="session")
def pconfs(standard_pconf, quadratic_pconf, three_map_pconf):
    return {"standard": standard_pconf, "quadratic": quadratic_pconf,
            "three-map": three_map_pconf}


@pytest.mark.parametrize("M", [2, 3, 8, 64, 513])
@pytest.mark.parametrize("name", ["standard", "quadratic", "three-map"])
def test_sparse_system_matches_dense_reference(name, M, pconfs):
    # the affine configurations take the iterated route of solve_ivp, the
    # quadratic one the factored route; both against the dense LU of S.
    # The iterated route bounds kappa_inf(S), the factored one estimates
    # kappa_1(S)
    pc = pconfs[name]
    h = _poly_h([0.3, -0.2, 0.5, 0.1, -0.4, 0.25], _MAPS[name])
    a0, aN = pc.interval.a, pc.interval.b
    nodes = np.linspace(a0, aN, M + 1)
    # the ends, the centre and two off-grid points, as fractions of I
    for frac in (0.0, 0.115, 0.5, 0.65, 1.0):
        c = a0 + frac * (aN - a0)
        for mu in (0.0, 0.7):
            problem = IvpProblem(pc, h, c, mu)
            S, rhs = _dense_second_derivative_system(problem, M)
            step = (aN - a0) / M
            system, rhs_w, s_norm = pconf._second_derivative_system(
                problem, nodes, step, M, pconf._second_derivative_values(
                    problem, nodes, step, problem.h_values(nodes)))
            np.testing.assert_allclose(rhs_w, rhs, rtol=1e-14, atol=1e-14)
            anorm = float(np.abs(S).sum(axis=0).max())
            assert abs(s_norm - anorm) <= 1e-12 * anorm
            if M <= 64:
                # eliminating F (unit lower bidiagonal block) gives S
                K = system.toarray()
                n = M + 1
                schur = K[:n, :n] - K[:n, n:] @ np.linalg.solve(
                    K[n:, n:], K[n:, :n])
                np.testing.assert_allclose(schur, S, rtol=0, atol=1e-13)
            lu, piv = scipy.linalg.lu_factor(S)
            rcond, _ = dgecon(lu, anorm)
            w = scipy.linalg.lu_solve((lu, piv), rhs)
            sol = solve_ivp(problem, M)
            if name == "quadratic":
                cond = sol.diagnostics.condition_estimate
                assert abs(cond * rcond - 1.0) <= 1e-9
            else:
                assert np.linalg.cond(S, np.inf) <= \
                    sol.diagnostics.condition_bound * (1.0 + 1e-12)
            f_ref = _reference_f(problem, M, w)
            assert np.max(np.abs(sol.f.values - f_ref)) <= \
                1e-8 * np.max(np.abs(f_ref))


def test_condition_estimate_deterministic(quadratic_pconf):
    problem = IvpProblem(quadratic_pconf, parse("0"), 0.3, 0.7)
    state = np.random.get_state()
    first = solve_ivp(problem, 1000).diagnostics.condition_estimate
    after = np.random.get_state()
    assert after[0] == state[0]
    assert np.array_equal(after[1], state[1])
    assert after[2:] == state[2:]
    assert solve_ivp(problem, 1000).diagnostics.condition_estimate == first


def test_condition_grows_linearly_on_quadratic(quadratic_pconf):
    # delta' = 1 at the endpoint fixed points: I - L is no contraction
    # there and kappa_1 grows in proportion to M
    problem = IvpProblem(quadratic_pconf, parse("0"), 0.0, 0.0)
    kappa = {M: solve_ivp(problem, M).diagnostics.condition_estimate
             for M in (512, 1024, 2048)}
    assert 1.7 < kappa[1024] / kappa[512] < 2.3
    assert 1.7 < kappa[2048] / kappa[1024] < 2.3


def test_singular_factor_raises_ill_conditioned(monkeypatch,
                                                quadratic_pconf):
    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    with pytest.raises(IllConditioned) as exc:
        solve_ivp(IvpProblem(quadratic_pconf, parse("0"), 0.0, 0.0), 64)
    assert exc.value.condition_estimate == np.inf


def _splu_spy(monkeypatch):
    import scipy.sparse.linalg
    calls = []
    real = scipy.sparse.linalg.splu

    def spy(matrix):
        calls.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    return calls


def _lopsided_pconf(p):
    return validate_pconfiguration([parse(f"{p!r}*t"),
                                    parse(f"{p!r}+{1 - p!r}*t")],
                                   Interval(0.0, 1.0), (0.0, p, 1.0))


@pytest.mark.parametrize("name,factors", [
    ("standard", 0), ("three-map", 0), ("quadratic", 1)])
def test_only_non_affine_configurations_factor(monkeypatch, pconfs, name,
                                               factors):
    calls = _splu_spy(monkeypatch)
    pc = pconfs[name]
    h = _poly_h([0.3, -0.2, 0.5, 0.1, -0.4, 0.25], _MAPS[name])
    sol = solve_ivp(IvpProblem(pc, h, pc.interval.a, 0.7), 256)
    assert len(calls) == factors
    condition = (sol.diagnostics.condition_estimate if factors
                 else sol.diagnostics.condition_bound)
    assert np.isfinite(condition)


@pytest.mark.parametrize("p,factors", [(0.9, 0), (0.99, 1)])
def test_slow_contraction_takes_the_factor(monkeypatch, p, factors):
    # sum delta_i'^2 = p^2 + (1 - p)^2: at p = 0.99 the certified rate
    # 0.98 needs about 2000 sweeps per solve, more than the factor costs
    calls = _splu_spy(monkeypatch)
    sol = solve_ivp(IvpProblem(_lopsided_pconf(p), parse("0"), 0.5, 1.0),
                    512)
    assert len(calls) == factors
    np.testing.assert_allclose(sol.f.values, sol.f.nodes - p,
                               rtol=0, atol=1e-12)


def test_iteration_out_of_sweeps_takes_the_factor(monkeypatch,
                                                  standard_pconf):
    problem = IvpProblem(standard_pconf, _poly_h(
        [0.3, -0.2, 0.5, 0.1, -0.4, 0.25], _MAPS["standard"]), 0.0, 0.7)
    iterated = solve_ivp(problem, 256)

    def out_of_sweeps(*args):
        raise NoConvergence("no convergence after 1000 iterations")

    calls = _splu_spy(monkeypatch)
    monkeypatch.setattr(pconf, "iterate_contraction", out_of_sweeps)
    factored = solve_ivp(problem, 256)
    assert len(calls) == 1
    np.testing.assert_allclose(factored.f.values, iterated.f.values,
                               rtol=0, atol=1e-13)
    # each route reports its own condition key, never both
    assert set(iterated.diagnostics.to_dict()) & {
        "condition_bound", "condition_estimate"} == {"condition_bound"}
    assert set(factored.diagnostics.to_dict()) & {
        "condition_bound", "condition_estimate"} == {"condition_estimate"}


def test_near_escape_configuration_takes_the_factor(monkeypatch):
    # validate_pconfiguration lets delta_1(-1) = -1 - 5e-9 pass (tol 1e-8),
    # the grid operator of the affine route refuses it (beyond 1e-9): the
    # call takes the factored route instead of failing
    pc = validate_pconfiguration(
        [parse("0.5*t - 0.500000005"), parse("0.5*t + 0.5")],
        Interval(-1.0, 1.0), (-1.0, 0.0, 1.0))
    calls = _splu_spy(monkeypatch)
    sol = solve_ivp(IvpProblem(pc, parse("0"), 0.0, 1.0), 256)
    assert len(calls) == 1
    assert sol.diagnostics.condition_bound is None
    assert 1.0 < sol.diagnostics.condition_estimate < 10.0
    np.testing.assert_allclose(sol.f.values, sol.f.nodes, rtol=0,
                               atol=1e-7)


def test_solve_ivp_memory_linear_in_grid(quadratic_pconf):
    # the dense S alone would be 537 MB at M = 8192
    coefs = [0.3, 0.7, 0.5, 0.1, -0.4, 0.25]
    problem = IvpProblem(quadratic_pconf, _poly_h(coefs, _MAPS["quadratic"]),
                         0.0, 0.7)
    tracemalloc.start()
    try:
        sol = solve_ivp(problem, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    exact = np.polynomial.Polynomial(coefs)(sol.f.nodes)
    assert np.max(np.abs(sol.f.values - exact)) < 1e-5


@pytest.mark.parametrize("M,h,exact", [
    (1, lambda t: 3.0 * t - 1.0, lambda t: 0.0 * t),
    (2, lambda t: t * t, lambda t: 2.0 + 0.0 * t),
    (3, lambda t: t ** 3, lambda t: 6.0 * t),
    (16, lambda t: t ** 3 - t, lambda t: 6.0 * t),
])
def test_grid_h_second_derivative_on_small_grids(standard_pconf, M, h,
                                                 exact):
    # second differences are exact on these polynomials, and the end
    # values come from the interior ones that exist
    nodes = np.linspace(-1.0, 1.0, M + 1)
    problem = IvpProblem(standard_pconf, h, 0.0, 0.0)
    h2 = pconf._second_derivative_values(problem, nodes, 2.0 / M,
                                         problem.h_values(nodes))
    assert h2.shape == nodes.shape
    assert np.max(np.abs(h2 - exact(nodes))) < 1e-9


@pytest.mark.parametrize("name", ["standard", "quadratic"])
@pytest.mark.parametrize("source", ["callable", "csv"])
def test_solve_ivp_evaluates_h_once(pconfs, tmp_path, name, source):
    # the data gap, the anchor identity, the collocation residual and the
    # second differences of h'' all read one evaluation of h, on the
    # iterated (standard) and the factored (quadratic) route
    pc = pconfs[name]
    expr = _poly_h([0.3, -0.2, 0.5, 0.1, -0.4, 0.25], _MAPS[name])
    calls = []
    if source == "callable":
        def h(t):
            calls.append(np.size(t))
            return expr.eval(t)
    else:
        path = tmp_path / "h.csv"
        GridFunction.from_callable(pc.interval, 256, expr.eval).to_csv(path)
        h = GridFunction.from_csv(path, pc.interval)
        read = h.eval

        def counted(x):
            calls.append(np.size(x))
            return read(x)
        h.eval = counted
    solve_ivp(IvpProblem(pc, h, pc.interval.a, 0.7), 128)
    assert calls == [129]

