import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.optimize import brentq

from conftest import curved_problem, straight_problem, validate_orbit
from guided_dynamics import bvp
from guided_dynamics.bvp import (BoundaryProblem, analyze_solvability,
                                 build_boundary_system, fixed_point,
                                 gamma_system, omega_guiding_defect,
                                 reduce_boundary_data, solve_bvp,
                                 verify_omega_conjugacy, verify_solution)
from guided_dynamics.errors import (CornerMismatch,
                                    DegenerateParametrization,
                                    NotSolvableError)
from guided_dynamics.exprlang import _scalar, differentiate, parse
from guided_dynamics.gds import GuidedSystem, GuidingSet, Interval, map_from


def project_pi3(p, system):
    """Oracle: the intersection of the characteristic line through p with
    Gamma, the unique curve point sharing the omega-value of p."""
    t = system.omega_xy(float(p[0]), float(p[1]))
    assert system.interval.a - 1e-9 <= t <= system.interval.b + 1e-9
    xs, ys = system.curve_point(system.z_of_t(t))
    return float(xs), float(ys)


def field_error(sol, u_star, n=101):
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    inside = sol.system.contains(X, Y)
    u = sol.field(X, Y)[inside]
    return float(np.max(np.abs(u - u_star(X[inside], Y[inside]))))


# --------------------------------------------------------------------------
# geometry and construction
# --------------------------------------------------------------------------

def test_problem_validation_rejects_bad_corners():
    with pytest.raises(CornerMismatch):
        straight_problem(g1="t^2", g2="t^2 + 1", g_gamma="z^2")
    with pytest.raises(ValueError, match="endpoint"):
        BoundaryProblem(parse("z", var="z"), parse("(1-z)/2", var="z"),
                        1.0, 1.0, parse("0*t"), parse("0*t"),
                        parse("0*z", var="z"))
    with pytest.raises(ValueError, match="expressions"):
        BoundaryProblem(lambda z: (1 + z) / 2, parse("(1-z)/2", var="z"),
                        1.0, 1.0, parse("0*t"), parse("0*t"),
                        parse("0*z", var="z"))


def test_project_pi3_straight(straight_system):
    x, y = project_pi3((0.2, 0.3), straight_system)
    assert (x, y) == pytest.approx((0.45, 0.55), abs=1e-12)
    # points of Gamma are fixed
    px, py = straight_system.curve_point(0.37)
    qx, qy = project_pi3((float(px), float(py)), straight_system)
    assert (qx, qy) == pytest.approx((float(px), float(py)), abs=1e-12)


def test_project_pi3_curved_origin(curved_system):
    x, y = project_pi3((0.0, 0.0), curved_system)
    omega = curved_system.omega_xy(x, y)
    assert abs(omega) < 1e-12


def test_omega_invariance_along_projection(straight_system, curved_system):
    rng = np.random.default_rng(1)
    for system in (straight_system, curved_system):
        count = 0
        while count < 100:
            x, y = rng.uniform(0.0, 1.0, 2)
            if not bool(system.contains(x, y)):
                continue
            count += 1
            px, py = project_pi3((x, y), system)
            assert abs(system.omega_xy(px, py) -
                       system.omega_xy(x, y)) < 1e-12


def test_build_straight_maps(straight_system):
    ts = np.linspace(-1.0, 1.0, 33)
    assert np.max(np.abs(straight_system.delta1(ts) - (1 + ts) / 2)) < 1e-13
    assert np.max(np.abs(straight_system.delta2(ts) - (ts - 1) / 2)) < 1e-13
    assert straight_system.pconf.anchors == (-1.0, 0.0, 1.0)
    assert all(g.is_empty for g in straight_system.omega_sets)


def test_build_curved_guiding_empty(curved_system):
    assert all(g.is_empty for g in curved_system.omega_sets)
    assert all(g.is_empty for g in curved_system.lambda_sets)


def test_corner_tangency_flagged():
    # alpha2' = -(pi/4) cos(pi z / 2) vanishes at z = +-1
    prob = BoundaryProblem(parse("(1+z)/2", var="z"),
                           parse("(1 - sin(3.141592653589793*z/2))/2",
                                 var="z"),
                           1.0, 1.0, parse("0*t"), parse("0*t"),
                           parse("0*z", var="z"))
    system = build_boundary_system(prob)
    omega2 = system.omega_sets[1]
    assert not omega2.is_empty
    ends = sorted(0.5 * (lo + hi) for lo, hi in omega2.intervals)
    assert ends[0] == pytest.approx(-1.0, abs=1e-4)
    assert ends[-1] == pytest.approx(1.0, abs=1e-4)


def test_degenerate_parametrization_rejected():
    # m alpha2' cancels n alpha1' somewhere: omega not strictly monotone
    with pytest.raises(DegenerateParametrization):
        build_boundary_system(BoundaryProblem(
            parse("(1+z)/2 - (1-z^2)/4", var="z"),
            parse("(1-z)/2 + (1-z^2)/4", var="z"),
            1.0, 1.0, parse("0*t"), parse("0*t"), parse("0*z", var="z")))


def test_derivative_sum_rule(straight_system, curved_system, cycle_system):
    for system in (straight_system, curved_system, cycle_system):
        ts = np.linspace(system.interval.a, system.interval.b, 513)
        total = system.delta1.derivative(ts) + system.delta2.derivative(ts)
        assert np.max(np.abs(total - 1.0)) < 1e-9


def test_conjugated_derivatives_match_central_differences(curved_system,
                                                          cycle_system):
    h = 1e-5
    for system in (curved_system, cycle_system):
        ts = np.linspace(system.interval.a + 0.01, system.interval.b - 0.01,
                         97)
        for delta in (system.delta1, system.delta2):
            fd1 = (delta(ts + h) - delta(ts - h)) / (2 * h)
            fd2 = (delta.derivative(ts + h) - delta.derivative(ts - h)) / \
                (2 * h)
            assert np.max(np.abs(delta.derivative(ts) - fd1)) < 1e-8
            assert np.max(np.abs(delta.d2fn(ts) - fd2)) < 1e-7
        zs = np.linspace(-0.99, 0.99, 97)
        for zeta in gamma_system(system).generators:
            fd = (zeta(zs + h) - zeta(zs - h)) / (2 * h)
            assert np.max(np.abs(zeta.derivative(zs) - fd)) < 1e-8


@pytest.mark.parametrize("name", ["straight_system", "curved_system",
                                  "cycle_system"])
def test_gamma_step_each_is_step_per_generator(request, monkeypatch, name):
    # the Gamma system inverts omega once for the points of both
    # generators, which must give each generator's own step bit for bit
    system = request.getfixturevalue(name)
    gsys = gamma_system(system)
    rng = np.random.default_rng(11)
    zs = rng.uniform(-1.0, 1.0, 64)
    for chosen in (np.zeros(64, np.int64), np.ones(64, np.int64),
                   rng.integers(0, 2, 64), np.empty(0, np.int64)):
        x = zs[:chosen.size]
        want = np.empty_like(x)
        for i in range(gsys.n_generators):
            want[chosen == i] = gsys.step(i, x[chosen == i])
        for got in (gsys.step_each(chosen, x),
                    GuidedSystem.step_each(gsys, chosen, x)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # the conjugacy check reads the same orbits through the default path
    fast = verify_omega_conjugacy(system, np.random.default_rng(3))
    monkeypatch.setattr(bvp._GammaSystem, "step_each",
                        GuidedSystem.step_each)
    assert verify_omega_conjugacy(system, np.random.default_rng(3)) == fast


def test_conjugacy_reports(straight_system, curved_system):
    for system in (straight_system, curved_system):
        conj = verify_omega_conjugacy(system, np.random.default_rng(0))
        assert conj.ok
        assert conj.map_defect < 1e-9
        assert conj.properness_violations == 0
        assert conj.properness_checked >= 100


def test_cycle_system_guiding_bands(cycle_system):
    lam1, lam2 = cycle_system.lambda_sets
    assert len(lam1.intervals) == 1
    lo, hi = lam1.intervals[0]
    assert lo < 1.0 / 3.0 < hi
    lo2, hi2 = lam2.intervals[0]
    assert lo2 < -1.0 / 3.0 < hi2
    assert omega_guiding_defect(cycle_system) < 1e-6


def bisection_z_of_t(system, t, iters=90):
    """Reference inverse of omega: bisection on [-1, 1]."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lo = np.full(t.shape, -1.0)
    hi = np.full(t.shape, 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = system.omega(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_z_of_t_inverts_omega(straight_system, curved_system, cycle_system):
    for system in (straight_system, curved_system, cycle_system):
        a, b = system.interval.a, system.interval.b
        ts = np.linspace(a, b, 4097)
        z = system.z_of_t(ts)
        resid = np.abs(system.omega(z) - ts)
        assert np.max(resid) <= 4 * np.spacing(max(abs(a), abs(b)))
        assert np.max(np.abs(z - bisection_z_of_t(system, ts))) <= 1e-14


def test_z_of_t_ends_and_clamping(straight_system, curved_system,
                                  cycle_system):
    for system in (straight_system, curved_system, cycle_system):
        a, b = system.interval.a, system.interval.b
        assert system.z_of_t(a) == -1.0 and system.z_of_t(b) == 1.0
        assert type(system.z_of_t(a)) is float
        outside = np.array([a - 1.0, a - 1e-12, b + 1e-12, b + 3.0, np.nan])
        np.testing.assert_array_equal(system.z_of_t(outside),
                                      bisection_z_of_t(system, outside))
        np.testing.assert_array_equal(system.z_of_t(outside),
                                      [-1.0, -1.0, 1.0, 1.0, -1.0])
        grid = np.linspace(a, b, 12).reshape(3, 4)
        assert system.z_of_t(grid).shape == (3, 4)


def fresh_z_of_t(system):
    return bvp._make_z_of_t(system.omega, differentiate(system.omega))


def solved_alone(fresh, values, monkeypatch):
    """z of each value from a separate one-element call, with the memo
    off (each call is larger than a zero-size memo)."""
    flat = np.asarray(values, dtype=float).ravel()
    with monkeypatch.context() as patch:
        patch.setattr(bvp, "Z_MEMO_N", 0)
        z = [fresh(np.array([v]))[0] for v in flat]
    return np.array(z).reshape(np.shape(values))


def memo_size(z_of_t):
    memoized = inspect.getclosurevars(z_of_t).nonlocals["memoized"]
    return inspect.getclosurevars(memoized).nonlocals["memo_keys"].size


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_z_of_t_memo_is_bit_exact(straight_system, curved_system,
                                  cycle_system, monkeypatch):
    rng = np.random.default_rng(7)
    for system in (straight_system, curved_system, cycle_system):
        a, b = system.interval.a, system.interval.b
        fresh = fresh_z_of_t(system)

        def alone(values):
            return solved_alone(fresh, values, monkeypatch)

        ts = np.linspace(a, b, 4097)
        grid = rng.permutation(np.concatenate([ts, ts[::5], ts[1::7]]))
        # scalars first, then batches holding them, overlapping subsets
        for v in grid[:20]:
            z = system.z_of_t(float(v))
            assert type(z) is float
            assert_same_bits(z, alone(v))
        want = alone(grid)
        assert_same_bits(system.z_of_t(grid), want)
        assert_same_bits(system.z_of_t(grid[100:3000]), want[100:3000])
        assert_same_bits(system.z_of_t(grid[2000:]), want[2000:])
        odd = np.array([0.0, -0.0, np.nan, a, b, 0.5 * a, 0.0, -0.0])
        assert_same_bits(system.z_of_t(odd), alone(odd))
        # neighbours a few ulps from values already solved: keys that a
        # float-typed key table would merge
        near = grid[:10, None].view(np.int64) + np.arange(1, 9)
        near = near.view(np.float64)
        assert_same_bits(system.z_of_t(near), alone(near))
        assert_same_bits(system.z_of_t(np.array(0.5 * b)), alone(0.5 * b))
        shaped = grid[:12].reshape(3, 4)
        assert_same_bits(system.z_of_t(shaped), want[:12].reshape(3, 4))
        # a caller writing to a result does not reach the memo
        out = system.z_of_t(grid[:50])
        out[:] = 0.0
        assert_same_bits(system.z_of_t(grid[:50]), want[:50])


def test_z_of_t_takes_few_newton_steps(curved_system, monkeypatch):
    # on the curved domain omega's rounding noise exceeds ulp(z) near
    # z = 0; omega' does not change over a step that short, and those
    # elements stop once a step does not shrink
    steps = []

    def counted(*args):
        roots, k = newton(*args)
        steps.append(k.max())
        return roots, k
    newton = bvp._newton
    monkeypatch.setattr(bvp, "_newton", counted)
    a, b = curved_system.interval.a, curved_system.interval.b
    fresh_z_of_t(curved_system)(np.linspace(a, b, 4097))
    assert len(steps) == 1 and steps[0] <= 8


@st.composite
def increasing_polynomials(draw):
    """omega = c + the integral of 0.1 + q^2 for a random q of degree at
    most 3, so omega' >= 0.1 on [-1, 1]."""
    coef = st.floats(-2.0, 2.0, allow_subnormal=False)
    q = Polynomial(draw(st.lists(coef, min_size=1, max_size=4)))
    return (Polynomial([0.1]) + q * q).integ(k=draw(coef))


@given(omega=increasing_polynomials(),
       u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_z_of_t_matches_bisection_on_polynomials(omega, u):
    d_omega = omega.deriv()
    w_lo, w_hi = omega(-1.0), omega(1.0)
    t = w_lo + np.array(u) * (w_hi - w_lo)
    z = bvp._make_z_of_t(omega, d_omega)(t)
    lo, hi = np.full(t.size, -1.0), np.full(t.size, 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = omega(mid) < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    # within a few units of omega's rounding error (Horner: eps times the
    # coefficients' sum), taken back to z through omega'
    noise = np.finfo(float).eps * np.abs(omega.coef).sum() / d_omega(lo)
    assert np.all(np.abs(z - lo) <= 8 * noise)
    alone = [bvp._make_z_of_t(omega, d_omega)(t[k:k + 1])[0]
             for k in range(t.size)]
    assert_same_bits(z, alone)


def test_z_of_t_memo_stays_bounded(curved_system, monkeypatch):
    monkeypatch.setattr(bvp, "Z_MEMO_N", 64)
    z_of_t = fresh_z_of_t(curved_system)
    reference = fresh_z_of_t(curved_system)
    a, b = curved_system.interval.a, curved_system.interval.b
    ts = np.random.default_rng(3).permutation(np.linspace(a, b, 301)[1:-1])
    # batches that fill, overflow (start over) and skip the memo
    for lo, hi in ((0, 40), (20, 60), (60, 100), (0, 64), (50, 250),
                   (30, 90), (250, 299), (0, 40)):
        assert_same_bits(z_of_t(ts[lo:hi]),
                         solved_alone(reference, ts[lo:hi], monkeypatch))
        assert memo_size(z_of_t) <= 64
    assert memo_size(z_of_t) > 0


# --------------------------------------------------------------------------
# fixed points
# --------------------------------------------------------------------------

def test_fixed_point_composites():
    [fp] = fixed_point(parse("(t+1)/4"), (-1.0, 1.0),
                       d_fn=parse("0.25"))
    assert fp.t_star == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert fp.derivative == 0.25
    assert fp.conclusive
    [fp2] = fixed_point(parse("(t-1)/4"), (-1.0, 1.0), d_fn=parse("0.25"))
    assert fp2.t_star == pytest.approx(-1.0 / 3.0, abs=1e-13)


def test_fixed_point_matches_brentq():
    # brentq (test-only oracle) on the same bracket
    fn = parse("(t+1)/4 + t^3/8")
    [fp] = fixed_point(fn, (-1.0, 1.0), d_fn=parse("1/4 + 3*t^2/8"))
    root = brentq(lambda t: _scalar(fn, t) - t, -1.0, 1.0, xtol=1e-13)
    assert abs(fp.t_star - root) <= 1e-13
    assert 0 < fp.iterations < 45   # 45 was the bisection's count


def test_fixed_point_finds_every_crossing():
    # map - id = -(t + 0.4)(t - 0.1)(t - 0.7)/2: three crossings, none
    # of them a scan node
    fps = fixed_point(parse("t - 0.5*(t + 0.4)*(t - 0.1)*(t - 0.7)"),
                      (-1.0, 1.0),
                      d_fn=parse("1 - 0.5*((t - 0.1)*(t - 0.7) + "
                                 "(t + 0.4)*(t - 0.7) + (t + 0.4)*(t - 0.1))"))
    assert [fp.t_star for fp in fps] == pytest.approx([-0.4, 0.1, 0.7],
                                                      abs=1e-13)
    assert [fp.derivative for fp in fps] == pytest.approx(
        [1 - 0.5 * 0.55, 1 + 0.5 * 0.3, 1 - 0.5 * 0.66], abs=1e-13)
    assert all(fp.conclusive and 0 < fp.iterations < 45 for fp in fps)
    assert fps.iterations == sum(fp.iterations for fp in fps)


def test_fixed_point_exact_root_at_bracket_end():
    [fp] = fixed_point(parse("t/2"), (0.0, 1.0), d_fn=parse("0.5"))
    assert fp.t_star == 0.0
    assert fp.conclusive
    [fp] = fixed_point(parse("(t+1)/2"), (0.0, 1.0), d_fn=parse("0.5"))
    assert fp.t_star == 1.0


@pytest.mark.parametrize("source,t_star", [
    ("t + 1e-13*(1 + t)", 0.0),      # g = 1e-13 at 0, 2e-13 at 1
    ("t - 1e-13*(2 - t)", 1.0),      # g = -2e-13 at 0, -1e-13 at 1
])
def test_fixed_point_same_sign_tiny_bracket(source, t_star):
    # every node is within 1e-12 of a fixed point, with one sign: the run
    # is one fixed point, at the node with the smallest |map(t) - t|
    [fp] = fixed_point(parse(source), (0.0, 1.0), d_fn=parse("1"))
    assert (fp.t_star, fp.iterations) == (t_star, 0)
    assert not fp.conclusive


def test_fixed_point_identity_inconclusive():
    [fp] = fixed_point(parse("t"), (-1.0, 1.0), d_fn=parse("1"))
    assert not fp.conclusive
    assert fp.t_star == -1.0


def test_fixed_point_no_bracket():
    assert fixed_point(parse("t + 1"), (0.0, 1.0), d_fn=parse("1")) == ()
    assert fixed_point(parse("t - 2e-12"), (0.0, 1.0), d_fn=parse("1")) == ()


# --------------------------------------------------------------------------
# solvability layering
# --------------------------------------------------------------------------

def test_solvability_straight(straight_system):
    report = analyze_solvability(straight_system)
    assert report.status == "solvable"
    assert report.route == "contraction_certificate"
    fps = {round(fp.t_star, 6): fp for fp in report.fixed_points}
    assert round(1.0 / 3.0, 6) in fps
    assert fps[round(1.0 / 3.0, 6)].derivative == pytest.approx(0.25,
                                                                abs=1e-10)
    assert report.cycle_report.empty


def test_solvability_cycle_system(cycle_system):
    report = analyze_solvability(cycle_system)
    assert report.status == "not_solvable"
    assert report.witness_cycle is not None
    pts = np.sort(report.witness_cycle.points[:-1])
    # witness points live inside the derivative-root bands around the
    # planted contact points (band half-width ~ 1.3e-5)
    assert list(pts) == pytest.approx([-1.0 / 3.0, 1.0 / 3.0], abs=1e-4)
    assert validate_orbit(cycle_system.interval_system,
                          report.witness_cycle, tol_step=1e-6)
    assert all(fp.in_guiding for fp in report.fixed_points)


def planted_three_roots():
    """A generic interval system on [-1, 1] whose delta1 o delta2 crosses
    the diagonal three times (attracting, repelling, attracting), with
    the three roots by brentq. Lambda1 holds the two right ones, and
    Lambda2 holds the conjugate of the left one, so only the left fixed
    point of delta1 o delta2 is outside the guiding union, and no pair of
    conjugate fixed points makes a guided 2-cycle."""
    d1 = map_from(parse("0.45*t + 0.5 + 0.05*sin(40*t + 13)"), label=0)
    d2 = map_from(parse("(t-1)/2"), label=1)
    ts = np.linspace(-1.0, 1.0, 2001)
    g = d1(d2(ts)) - ts
    roots = [brentq(lambda t: _scalar(d1, _scalar(d2, t)) - t,
                    ts[i], ts[i + 1], xtol=1e-15)
             for i in np.flatnonzero(g[:-1] * g[1:] < 0)]
    assert len(roots) == 3
    t_l, t_m, t_r = roots
    u_l = (t_l - 1) / 2
    lam1 = GuidingSet([(t_m - 0.005, t_m + 0.005),
                       (t_r - 0.005, t_r + 0.005)])
    lam2 = GuidingSet([(u_l - 0.005, u_l + 0.005)])
    isys = GuidedSystem(Interval(-1.0, 1.0), [d1, d2], [lam1, lam2])
    system = SimpleNamespace(
        interval=Interval(-1.0, 1.0), interval_system=isys,
        lambda_sets=(lam1, lam2), delta1=d1, delta2=d2,
        problem=SimpleNamespace(m=1.0, n=1.0))
    return system, roots


def test_solvability_reads_every_composite_fixed_point():
    # One fixed point per composite does not decide the planted system:
    # brentq on [-1, 1] picks the right one of delta1 o delta2 and the
    # left one of delta2 o delta1, both guided, which reads not_solvable.
    system, roots = planted_three_roots()
    report = analyze_solvability(system)
    assert (report.status, report.route, report.grade) == \
        ("solvable", "composite_fixed_points", "certified")
    assert report.cycle_report.empty
    fps = report.fixed_points
    want = roots + [(t - 1) / 2 for t in roots]
    assert [fp.t_star for fp in fps] == pytest.approx(want, abs=1e-13)
    assert [fp.in_guiding for fp in fps] == [False, True, True,
                                             True, False, False]
    assert [fp.derivative < 1.0 for fp in fps] == [True, False, True] * 2


@pytest.mark.parametrize("name", ["straight_system", "curved_system",
                                  "cycle_system", "planted"])
def test_second_composite_fixed_points_are_delta2_images(request, name):
    # delta2 maps the fixed points of delta1 o delta2 one-to-one onto those
    # of delta2 o delta1, so the analysis solves only the first composite
    system = planted_three_roots()[0] if name == "planted" else \
        request.getfixturevalue(name)
    d1, d2 = system.delta1, system.delta2
    fps = analyze_solvability(system).fixed_points
    k = len(fps) // 2
    assert k and len(fps) == 2 * k
    first, second = fps[:k], fps[k:]
    assert [fp.t_star for fp in second] == \
        d2(np.array([fp.t_star for fp in first])).tolist()
    assert [fp.iterations for fp in second] == [0] * k
    # an independent solve of delta2 o delta1: simple roots agree to
    # rounding, the cycle domain's tangent root within its flat stretch
    solved = fixed_point(lambda t: d2(d1(t)),
                         (-system.problem.m, system.problem.n),
                         lambda t: d2.derivative(d1(t)) * d1.derivative(t))
    assert len(solved) == k
    for fp, ref in zip(second, solved):
        assert fp.conclusive == ref.conclusive
        assert abs(fp.t_star - ref.t_star) <= \
            (1e-12 if ref.conclusive else 1e-5)
        assert fp.derivative == pytest.approx(ref.derivative, abs=1e-9)


# --------------------------------------------------------------------------
# boundary data reduction
# --------------------------------------------------------------------------

def test_reduce_straight_h_zero(straight_system):
    prob = straight_problem(g1="t^2", g2="t^2",
                            g_gamma="(1+z^2)/2")  # g from u* = x^2 + y^2
    system = build_boundary_system(prob)
    red = reduce_boundary_data(prob, system, M=256)
    assert np.max(np.abs(red.h.values)) < 1e-12


def test_reduce_straight_h_quadratic(straight_system):
    red = reduce_boundary_data(straight_system.problem, straight_system,
                               M=256)
    want = (red.h.nodes ** 2 - 1.0) / 2.0
    assert np.max(np.abs(red.h.values - want)) < 1e-12
    assert red.end_defect_a < 1e-12 and red.end_defect_b < 1e-12


def test_corner_mismatch_rejected_before_reduction():
    with pytest.raises(CornerMismatch):
        straight_problem(g1="t^2", g2="t^2", g_gamma="z^2 + 0.5")


# --------------------------------------------------------------------------
# end-to-end solves
# --------------------------------------------------------------------------

def test_solve_straight_quadratic(straight_system):
    sol = solve_bvp(straight_system.problem, M=512)
    assert field_error(sol, lambda x, y: (x - y) ** 2) < 1e-5
    assert sol.verification.boundary_defect < 1e-6
    assert sol.verification.pde_residual < 1e-3
    assert sol.triple.chi0_defect <= 10 * max(
        sol.ivp_diagnostics.residual, 1e-12)


def test_solve_straight_harmonic_sum(straight_system):
    prob = straight_problem(g1="t^2", g2="t^2", g_gamma="(1+z^2)/2")
    sol = solve_bvp(prob, M=512)
    assert np.max(np.abs(sol.triple.chi.values)) < 1e-10
    assert field_error(sol, lambda x, y: x ** 2 + y ** 2) < 1e-10


def test_solve_curved_manufactured(curved_system):
    sol = solve_bvp(curved_system.problem, M=1024)
    err = field_error(sol, lambda x, y: x ** 2 + y ** 2 + (x - y) ** 3)
    assert err < 1e-4
    assert sol.verification.boundary_defect < 1e-5


def test_gauge_invariance(straight_system):
    base = solve_bvp(straight_system.problem, M=256)
    sheared = solve_bvp(straight_system.problem, M=256, mu=0.7)
    # the triple shears but the field does not
    assert abs(sheared.triple.chi.eval(0.7) -
               base.triple.chi.eval(0.7)) > 0.1
    xs = np.linspace(0.0, 1.0, 41)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    inside = base.system.contains(X, Y)
    gap = np.max(np.abs(base.field(X, Y)[inside] -
                        sheared.field(X, Y)[inside]))
    assert gap <= 10 * max(base.ivp_diagnostics.residual,
                           sheared.ivp_diagnostics.residual, 1e-12)


def test_solve_refuses_cycle_system(cycle_system):
    with pytest.raises(NotSolvableError) as exc:
        solve_bvp(cycle_system.problem, M=128)
    assert exc.value.report.witness_cycle is not None


def test_fd_stencil_annihilates_balanced_direction():
    # with m = n the discrete operator annihilates every field of the
    # form phi(x) + psi(y) + chi(x - y) identically, so the residual of a
    # transcendental solution sits at roundoff
    a1 = parse("(1+z)/2", var="z")
    a2 = parse("(1-z)/2", var="z")
    g1 = parse("sin(3*t) + sin(2*t)")                 # u*(x, 0)
    g2 = parse("exp(t) - 1 + sin(-2*t)")              # u*(0, y)
    g_gamma = parse("sin(3*(1+z)/2) + exp((1-z)/2) - 1 + sin(2*z)",
                    var="z")
    prob = BoundaryProblem(a1, a2, 1.0, 1.0, g1, g2, g_gamma)
    sol = solve_bvp(prob, M=1024)

    def u_star(x, y):
        return np.sin(3 * x) + np.exp(y) - 1 + np.sin(2 * (x - y))

    assert field_error(sol, u_star) < 5e-5
    assert sol.verification.pde_residual < 1e-8


def anisotropic_problem():
    """m = 1, n = 2 with u* = sin(3x) + exp(y) - 1 + sin(2(2x - y))."""
    a1 = parse("(1+z)/2", var="z")
    a2 = parse("(1-z)/2", var="z")
    g1 = parse("sin(3*t) + sin(4*t)")                 # u*(x, 0)
    g2 = parse("exp(t) - 1 + sin(-2*t)")              # u*(0, y)
    g_gamma = parse("sin(3*(1+z)/2) + exp((1-z)/2) - 1 + sin(3*z + 1)",
                    var="z")
    return BoundaryProblem(a1, a2, 1.0, 2.0, g1, g2, g_gamma)


def test_fd_residual_refines_on_anisotropic_direction():
    # with m = 1, n = 2 the characteristic coordinate t = 2x - y is not
    # annihilated by the stencil, so a transcendental chi shows the
    # genuine second-order truncation of the residual
    sol = solve_bvp(anisotropic_problem(), M=2048)

    def u_star(x, y):
        return np.sin(3 * x) + np.exp(y) - 1 + np.sin(2 * (2 * x - y))

    assert field_error(sol, u_star) < 2e-4
    coarse = verify_solution(sol, fd_step=1.0 / 16)
    fine = verify_solution(sol, fd_step=1.0 / 32)
    assert fine.pde_residual < coarse.pde_residual / 3.0


# the 12 points besides the node itself that the residual stencil reads
FD_OFFSETS = [(2, 1), (2, -1), (-2, 1), (-2, -1), (0, 1), (0, -1),
              (1, 2), (1, -2), (-1, 2), (-1, -2), (1, 0), (-1, 0)]


def per_offset_interior(system, h):
    """Oracle: the nodes of the h lattice of [0, 1]^2 that lie in the
    domain with their whole stencil, membership asked on the lattice and
    on each of its 12 shifted copies."""
    xs = np.arange(0.0, 1.0 + h / 2, h)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    inside = system.contains(X, Y)
    for ox, oy in FD_OFFSETS:
        inside &= system.contains(X + ox * h, Y + oy * h)
    return X[inside], Y[inside]


def per_offset_verification(solution, fd_step):
    """Oracle: verify_solution with u evaluated at the shifted points of
    every w difference separately, 16 evaluations per interior node."""
    p = solution.problem
    system = solution.system
    m, n = p.m, p.n
    xs = np.linspace(0.0, 1.0, 1024)
    d1 = float(np.max(np.abs(
        solution._field_raw(xs, np.zeros_like(xs)) -
        np.asarray(p.g1(xs), dtype=float))))
    d2 = float(np.max(np.abs(
        solution._field_raw(np.zeros_like(xs), xs) -
        np.asarray(p.g2(xs), dtype=float))))
    z = system.z_of_t(solution.triple.chi.nodes)
    cx, cy = system.curve_point(z)
    dg = float(np.max(np.abs(
        solution._field_raw(cx, cy) -
        np.asarray(p.g_gamma(z), dtype=float))))
    h = fd_step
    X, Y = per_offset_interior(system, h)
    u = solution._field_raw

    def w(px, py):
        return (u(px + h, py + h) - u(px + h, py - h) -
                u(px - h, py + h) + u(px - h, py - h)) / (4 * h * h)

    if X.size:
        resid = (m * (w(X + h, Y) - w(X - h, Y)) +
                 n * (w(X, Y + h) - w(X, Y - h))) / (2 * h)
        pde_res = float(np.max(np.abs(resid)))
    else:
        pde_res = float("nan")
    return bvp.BvpVerification(
        boundary_defect=max(d1, d2, dg), axis1_defect=d1, axis2_defect=d2,
        curve_defect=dg, pde_residual=pde_res, fd_step=h,
        interior_points=int(X.size))


FD_PROBLEMS = {"straight": straight_problem, "curved": curved_problem,
               "anisotropic": anisotropic_problem}


@pytest.fixture(scope="module")
def fd_solutions():
    solved = {}

    def solution(name):
        if name not in solved:
            solved[name] = solve_bvp(FD_PROBLEMS[name]())
        return solved[name]
    return solution


@pytest.mark.parametrize("fd_step", [1.0 / 16, 1.0 / 32, 1.0 / 128,
                                     1.0 / 256])
@pytest.mark.parametrize("name", list(FD_PROBLEMS))
def test_verify_solution_matches_per_offset_oracle(fd_solutions, name,
                                                   fd_step):
    sol = fd_solutions(name)
    got = verify_solution(sol, fd_step=fd_step)
    want = per_offset_verification(sol, fd_step)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert got.interior_points > 0


def test_verify_solution_evaluates_each_stencil_point_once(fd_solutions,
                                                           monkeypatch):
    sol = fd_solutions("curved")
    h = 1.0 / 128
    X, Y = per_offset_interior(sol.system, h)
    sizes, points = [], []
    contains, field_raw = sol.system.contains, sol._field_raw

    def counted_contains(x, y):
        sizes.append(np.size(x))
        return contains(x, y)

    def recorded_field(x, y):
        points.append(np.column_stack([np.ravel(x), np.ravel(y)]))
        return field_raw(x, y)

    monkeypatch.setattr(sol.system, "contains", counted_contains)
    monkeypatch.setattr(sol, "_field_raw", recorded_field)
    verify_solution(sol, fd_step=h)
    # one membership call, on the 129 x 129 lattice padded by two steps
    assert sizes == [133 * 133]
    # the axes and the curve first, then the residual stencil
    assert [len(pts) for pts in points[:3]] == [1024, 1024,
                                                sol.triple.chi.nodes.size]
    seen = [tuple(pt) for pts in points[3:] for pt in pts.tolist()]
    assert len(set(seen)) == len(seen)
    want = {(x + ox * h, y + oy * h) for x, y in zip(X.tolist(), Y.tolist())
            for ox, oy in FD_OFFSETS}
    assert set(seen) == want


def test_gauge_record_psi_zero(straight_system):
    sol = solve_bvp(straight_system.problem, M=256)
    assert abs(sol.triple.psi.eval(0.0)) <= 10 * max(
        sol.ivp_diagnostics.residual, 1e-12)
    assert abs(sol.triple.chi.eval(0.0)) <= 10 * max(
        sol.ivp_diagnostics.residual, 1e-12)
