import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guided_dynamics.cauchy import (Collision, OverdetProblem,
                                    PropagationRule,
                                    analyze_affine, check_consistency,
                                    orbit_convergence_rates,
                                    propagate_values)
from guided_dynamics.errors import HypothesisFailure
from guided_dynamics.exprlang import parse


def additive_problem(B=0.3):
    """f((x+y)/2) = f(x) + f(y) on [1, 2] with A = f(1) = 1: already
    contradictory at the fixed point alpha(1) = 1."""
    rules = (
        PropagationRule(map=lambda t: (1.0 + np.asarray(t, float)) / 2.0,
                        c_A=1.0, c_v=1.0, label=0),
        PropagationRule(map=lambda t: (np.asarray(t, float) + 2.0) / 2.0,
                        c_B=1.0, c_v=1.0, label=1),
    )
    return OverdetProblem((1.0, 2.0), 1.0, B, rules)


def three_rule_affine(A, B):
    rules = (
        PropagationRule(map=parse("t/2"), c_A=0.5, c_v=0.5, label=0),
        PropagationRule(map=parse("(1+t)/2"), c_v=0.5, c_0=0.25, label=1),
        PropagationRule(map=parse("t/3+1/3"), c_A=0.25, c_B=parse("t/4"),
                        c_v=parse("0.5-t/8"), c_0=-0.1, label=2),
    )
    return OverdetProblem((0.0, 1.0), A, B, rules)


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def test_jensen_dyadic_values():
    prob = OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    cloud = propagate_values(prob, 12, 2.0 ** -12)
    assert len(cloud) >= 2 ** 12 + 1
    assert np.max(np.abs(cloud.values - cloud.points)) == 0.0


def test_cauchy_boundary_values():
    prob = OverdetProblem.cauchy_boundary(0.5)
    cloud = propagate_values(prob, 14, 2.0 ** -12)
    assert np.max(np.abs(cloud.values - 0.5 * cloud.points)) < 1e-12


def test_geometric_mean_log_values():
    prob = OverdetProblem.geometric_mean((1.0, 4.0), 0.0, 2.0)
    cloud = propagate_values(prob, 30, 1e-4)
    assert np.max(np.abs(cloud.values - np.log2(cloud.points))) < 1e-9


def test_propagation_path_replays_bitwise():
    # every index, on clouds with a fractional weight, seed values of
    # both signs, rules whose ranges overlap and rules whose labels are
    # not their indices
    jensen = OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    relabelled = OverdetProblem((0.0, 1.0), 0.0, 1.0, (
        PropagationRule(map=jensen.rules[1].map, c_B=0.5, c_v=0.5, label=1),
        PropagationRule(map=jensen.rules[0].map, c_v=0.5, label=7)))
    for problem, depth, eps in (
            (OverdetProblem.geometric_mean((1.0, 4.0), 0.0, 2.0), 12, 1e-3),
            (OverdetProblem.jensen((-1.0, 2.0), 0.3, -1.7, weight=1 / 3),
             9, 2.0 ** -6),
            (OverdetProblem.cauchy_boundary(0.7), 10, 2.0 ** -9),
            (three_rule_affine(0.5, -1.0), 8, 2.0 ** -8),
            (relabelled, 7, 2.0 ** -7)):
        cloud = propagate_values(problem, depth, eps)
        for idx in range(len(cloud)):
            assert cloud.recompute(idx) == (cloud.points[idx],
                                            cloud.values[idx])


def test_cloud_affine_in_seeds():
    # doubling B doubles the deviation from the A-part at every point
    c1 = propagate_values(OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0),
                          10, 2.0 ** -10)
    c2 = propagate_values(OverdetProblem.jensen((0.0, 1.0), 0.0, 2.0),
                          10, 2.0 ** -10)
    assert np.array_equal(c1.points, c2.points)
    assert np.max(np.abs(c2.values - 2.0 * c1.values)) < 1e-12


def test_cloud_sorts_its_points_once(tmp_path, monkeypatch):
    # the cloud comes in point order: check_consistency and to_csv read
    # its columns as they are, with no sort
    cloud = propagate_values(OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0),
                             10, 2.0 ** -10)
    assert np.all(np.diff(cloud.points) > 0)
    sorts = []
    for name in ("argsort", "sort", "lexsort"):
        def counted(a, *args, _f=getattr(np, name), **kwargs):
            sorts.append(np.size(a))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    check_consistency(cloud, 2.0 ** -10, 1e-9)
    cloud.to_csv(tmp_path / "cloud.csv")
    assert sorts == []
    rows = np.loadtxt(tmp_path / "cloud.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], cloud.points)


def test_equal_seeds_agree_on_common_points():
    p = OverdetProblem.jensen((0.0, 1.0), 0.25, 0.75)
    shallow = propagate_values(p, 8, 2.0 ** -10)
    deep = propagate_values(p, 12, 2.0 ** -10)
    common = {float(pt): float(v)
              for pt, v in zip(deep.points, deep.values)}
    for pt, v in zip(shallow.points, shallow.values):
        if float(pt) in common:
            assert abs(common[float(pt)] - v) < 1e-12


def test_different_seeds_differ_interior():
    a = propagate_values(OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0),
                         8, 2.0 ** -8)
    b = propagate_values(OverdetProblem.jensen((0.0, 1.0), 0.0, 0.5),
                         8, 2.0 ** -8)
    interior = (a.points > 0.1) & (a.points < 0.9)
    assert np.max(np.abs(a.values[interior] - b.values[interior])) > 0.1


def test_hypothesis_gate_rejects_expanding_map():
    rules = (PropagationRule(map=lambda t: np.asarray(t, float),
                             c_v=1.0, label=0),)
    with pytest.raises(HypothesisFailure) as info:
        OverdetProblem((0.0, 1.0), 0.0, 1.0, rules)
    assert info.value.condition == "strict contraction"
    assert str(info.value).endswith("(rule 0)")
    # the first of the seeded random pairs
    assert info.value.witness == (0.6369616873214543, 0.8775289058717961)


def test_rule_map_must_be_callable():
    with pytest.raises(TypeError):
        PropagationRule(map="t/2")


# --------------------------------------------------------------------------
# consistency
# --------------------------------------------------------------------------

def test_consistency_jensen():
    prob = OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    cloud = propagate_values(prob, 14, 2.0 ** -12)
    report = check_consistency(cloud, 2.0 ** -12, 1e-10)
    assert report.consistent


def test_inconsistency_detected_at_seed():
    cloud = propagate_values(additive_problem(), 1, 1e-3)
    report = check_consistency(cloud, 1e-3, 1e-9)
    assert not report.consistent
    assert report.max_collision_gap >= 1.0
    assert max(cloud.depths) <= 1


def test_truncated_cloud_vacuously_consistent():
    prob = OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    cloud = propagate_values(prob, 1, 2.0 ** -12)
    assert check_consistency(cloud, 2.0 ** -12, 1e-10).consistent


def reference_propagate(problem, depth, eps, cell_cap=2 ** 22,
                        max_logged_collisions=10000):
    """A per-candidate loop with propagate_values' policy, kept as the
    reference: each level's candidates are every rule applied in turn to
    the frontier in cell order, the first to reach an empty cell claims it,
    and the cap counts the seeds. Returns the arrays in point order (parents
    as indices into them), flags, max gap and the first collisions, logged
    as (point, new_point, existing_value, new_value, gap, depth)."""
    iv = problem.interval
    n_half = max(1, int(math.ceil(iv.length / (eps / 2.0))))
    width = iv.length / n_half

    def cell_of(p):
        return np.clip(((p - iv.a) / width).astype(np.int64), 0, n_half - 1)

    pts, vals, deps, pars, rids = [iv.a, iv.b], [problem.A, problem.B], \
        [0, 0], [-1, -1], [-1, -1]
    cells = {int(cell_of(np.array([iv.a]))[0]): 0,
             int(cell_of(np.array([iv.b]))[0]): 1}
    collisions, max_gap = [], 0.0
    frontier = np.array([0, 1], dtype=np.int64)
    saturated = partial = False
    level = 0
    while True:
        if len(pts) > cell_cap:
            partial = True
            break
        if level >= depth:
            break
        src_p = np.array(pts)[frontier]
        src_v = np.array(vals)[frontier]
        cand_p = np.concatenate([np.clip(np.asarray(
            r.map(src_p), dtype=float), iv.a, iv.b) for r in problem.rules])
        cand_v = np.concatenate([np.asarray(r.apply(
            src_p, src_v, problem.A, problem.B), dtype=float)
            for r in problem.rules])
        cand_par = np.concatenate([frontier for _ in problem.rules])
        cand_rule = np.concatenate([np.full(frontier.size, i)
                                    for i in range(len(problem.rules))])
        cand_cells = cell_of(cand_p)
        level += 1
        fresh = {}
        for j in range(cand_p.size):
            c = int(cand_cells[j])
            if c in cells:
                k = cells[c]
                gap = abs(float(cand_v[j]) - vals[k])
                max_gap = max(max_gap, gap)
                if len(collisions) < max_logged_collisions:
                    collisions.append((float(pts[k]), float(cand_p[j]),
                                       float(vals[k]), float(cand_v[j]),
                                       float(gap), level))
            else:
                cells[c] = len(pts)
                pts.append(float(cand_p[j]))
                vals.append(float(cand_v[j]))
                deps.append(level)
                pars.append(int(cand_par[j]))
                rids.append(int(cand_rule[j]))
                fresh[c] = len(pts) - 1
        if not fresh:
            saturated = True
            break
        frontier = np.array([fresh[c] for c in sorted(fresh)],
                            dtype=np.int64)
    order = np.argsort(pts)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    pars = np.array(pars)
    pars = np.where(pars < 0, -1, rank[pars])
    return (np.array(pts)[order], np.array(vals)[order],
            np.array(deps)[order], pars[order], np.array(rids)[order],
            collisions, max_gap, saturated, partial)


PROBLEMS = {
    "jensen-1/2": lambda A, B: OverdetProblem.jensen((0.0, 1.0), A, B),
    "jensen-1/3": lambda A, B: OverdetProblem.jensen((-1.0, 2.0), A, B,
                                                     weight=1.0 / 3.0),
    "cauchy": lambda A, B: OverdetProblem.cauchy_boundary(B),
    "geometric-mean": lambda A, B: OverdetProblem.geometric_mean(
        (1.0, 4.0), A, B),
    "affine-3-rule": three_rule_affine,
}


@given(st.sampled_from(sorted(PROBLEMS)),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.integers(0, 11), st.integers(3, 10),
       st.one_of(st.just(2 ** 22), st.integers(1, 300)))
# overlapping rule ranges: three cells have another first claimant in
# cell order than in candidate order
@example("affine-3-rule", 0.5, -1.0, 5, 6, 2 ** 22)
# the two seeds alone exceed the cap: nothing is propagated
@example("jensen-1/2", 0.0, 1.0, 4, 5, 1)
@example("affine-3-rule", 0.5, -1.0, 0, 5, 1)
@settings(max_examples=80, deadline=None)
def test_propagation_matches_reference_loop(name, A, B, depth, k, cell_cap):
    problem = PROBLEMS[name](A, B)
    eps = 2.0 ** -k
    cloud = propagate_values(problem, depth, eps, cell_cap=cell_cap)
    (pts, vals, deps, pars, rids, log, max_gap, saturated,
     partial) = reference_propagate(problem, depth, eps, cell_cap=cell_cap)
    for got, want in ((cloud.points, pts), (cloud.values, vals),
                      (cloud.depths, deps), (cloud.parents, pars),
                      (cloud.rule_ids, rids)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert (cloud.saturated, cloud.partial) == (saturated, partial)
    assert check_consistency(cloud, eps, 1e-9).max_collision_gap == max_gap
    own = cloud.collision_owner
    assert own.size >= len(log)
    if len(log) < 10000:
        assert own.size == len(log)
    new = list(zip(cloud.points[own].tolist(),
                   cloud.collision_points.tolist(),
                   cloud.values[own].tolist(),
                   cloud.collision_values.tolist(),
                   cloud.collision_gaps.tolist(),
                   cloud.collision_depths.tolist()))
    assert new[:len(log)] == log
    # the verdict of the old per-collision loop over the same collisions
    report = check_consistency(cloud, eps, 1e-9)
    lip = report.lipschitz_estimate
    first_bad = next((Collision(*c) for c in new
                      if c[4] >= 10.0 * lip * abs(c[1] - c[0]) + 1e-9), None)
    if first_bad is not None:
        assert report.witness == first_bad
    else:
        assert not isinstance(report.witness, Collision)
    assert report.n_collisions == own.size


def test_deep_planted_inconsistency_found():
    """A 1e-6 defect on a 2e-5-wide window is first reached at depth 16,
    past the first 10 000 collisions: every collision must be checked."""
    jensen = OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    window = lambda t: np.where(
        (np.asarray(t) > 0.41) & (np.asarray(t) < 0.41 + 2e-5), 1e-6, 0.0)
    planted = PropagationRule(map=jensen.rules[0].map, c_A=0.5, c_v=0.5,
                              c_0=window, label=2)
    problem = OverdetProblem((0.0, 1.0), 0.0, 1.0, (*jensen.rules, planted))
    for eps in (2.0 ** -16, 2.0 ** -15):
        cloud = propagate_values(problem, 20, eps)
        report = check_consistency(cloud, eps, 1e-9)
        assert report.verdict == "inconsistent"
        assert report.n_collisions > 10000
        assert report.witness.depth == 16
        assert report.witness.gap == pytest.approx(1e-6, rel=1e-6)


# --------------------------------------------------------------------------
# affine analysis
# --------------------------------------------------------------------------

def test_affine_scalar_case():
    analysis = analyze_affine([[1.0]], [[1.0]], [0.0], [1.0])
    assert analysis.B1[0, 0] == 0.5
    assert analysis.d1[0] == -0.5
    assert analysis.d2[0] == 0.5
    assert analysis.d_tilde1[0] == pytest.approx(-1.0, abs=1e-10)
    assert analysis.d_tilde2[0] == pytest.approx(1.0, abs=1e-10)
    assert analysis.gamma == 0.5
    assert analysis.radius == 5


def test_affine_scalar_fixed_points_exact():
    # (I - B_i)^{-1} d_i exactly; iterating the affine map stopped short
    analysis = analyze_affine([[1.0]], [[1.0]], [0.0], [1.0])
    assert analysis.d_tilde1[0] == -1.0
    assert analysis.d_tilde2[0] == 1.0


def test_affine_near_degenerate_contraction():
    # gamma = 1/(1 + 1e-6) < 1 passes every gate; the fixed point of
    # delta_1 sits at -1e6, out of reach of 10^5 iteration steps
    analysis = analyze_affine([[1.0]], [[1e-6]], [0.0], [1.0])
    assert analysis.gamma == pytest.approx(1.0 / (1.0 + 1e-6), rel=1e-15)
    assert analysis.d_tilde1[0] == pytest.approx(-1e6, rel=1e-9)
    assert analysis.d_tilde2[0] == pytest.approx(1.0, rel=1e-12)
    rates = orbit_convergence_rates(analysis, 2, [0.5], steps=3)
    assert max(rates) < 1e-5


def test_affine_identity_case():
    analysis = analyze_affine(np.eye(2), np.eye(2), np.zeros(2),
                              np.zeros(2))
    assert np.allclose(analysis.d_tilde1, 0.0)
    assert analysis.gamma == 0.5
    assert analysis.radius == 1


def test_affine_symmetric_2x2():
    A1 = np.array([[2.0, 0.5], [0.5, 1.5]])
    A2 = 2.0 * A1  # commutes with A1 by construction
    b1 = np.array([1.0, -1.0])
    b2 = np.array([0.0, 2.0])
    analysis = analyze_affine(A1, A2, b1, b2)
    assert np.max(np.abs(analysis.B1 + analysis.B2 - np.eye(2))) < 1e-12
    for B, d, dt in ((analysis.B1, analysis.d1, analysis.d_tilde1),
                     (analysis.B2, analysis.d2, analysis.d_tilde2)):
        assert np.max(np.abs(B @ dt + d - dt)) < 1e-10
    assert 0.0 < analysis.gamma < 1.0


def test_affine_gate_failures():
    with pytest.raises(HypothesisFailure) as exc:
        analyze_affine([[1, 0], [0, 2]], [[0, 1], [1, 0]], [0, 0], [0, 0])
    assert exc.value.condition == "commutation"
    with pytest.raises(HypothesisFailure) as exc:
        analyze_affine([[1, 2], [0, 1]], [[1, 0], [0, 1]], [0, 0], [0, 0])
    assert exc.value.condition == "symmetry"
    with pytest.raises(HypothesisFailure) as exc:
        analyze_affine([[-1.0]], [[2.0]], [0.0], [0.0])
    assert exc.value.condition == "positive definiteness"


def test_orbit_convergence_rates():
    analysis = analyze_affine([[1.0]], [[1.0]], [0.0], [1.0])
    for which in (1, 2):
        rates = orbit_convergence_rates(analysis, which, np.array([3.0]),
                                        steps=20)
        assert all(abs(r - analysis.gamma) <= 0.1 * analysis.gamma
                   for r in rates)


# --------------------------------------------------------------------------
# linear solution verification
# --------------------------------------------------------------------------

def verify_linear_solution(maps, c=None, f=None, samples=100, sampler=None):
    """Residual sup over samples of |f(m1(x) + m2(x)) - f(m1(x)) -
    f(m2(x))| for f(x) = c . x by default, or for an arbitrary f (with a
    sampler), e.g. to confirm non-linear solutions when hypotheses fail."""
    rng = np.random.default_rng(0)
    if f is None:
        cvec = np.atleast_1d(np.asarray(c, dtype=float))
        f = lambda x: float(cvec @ np.asarray(x, dtype=float))
        if sampler is None:
            sampler = lambda r: r.uniform(-1.0, 1.0, cvec.size)
    m1, m2 = maps
    worst = 0.0
    for _ in range(samples):
        x = sampler(rng)
        y1 = np.asarray(m1(x), dtype=float)
        y2 = np.asarray(m2(x), dtype=float)
        worst = max(worst, abs(f(y1 + y2) - f(y1) - f(y2)))
    return worst


def test_verify_linear_affine_maps():
    analysis = analyze_affine([[1.0]], [[1.0]], [0.0], [1.0])
    maps = (lambda x: analysis.A1 @ x + analysis.b1,
            lambda x: analysis.A2 @ x + analysis.b2)
    assert verify_linear_solution(maps, c=(1.0,)) < 1e-12


def test_verify_linear_ell1_ball_maps():
    # the plane maps of the unit-ball example sum to the identity, so any
    # linear functional solves exactly
    a1 = lambda x: np.array([0.5 * x[0] + 0.25 * np.sin(x[1]),
                             x[1] / 3.0])
    a2 = lambda x: np.array([0.5 * x[0] - 0.25 * np.sin(x[1]),
                             2.0 * x[1] / 3.0])
    sampler = lambda rng: rng.uniform(-0.5, 0.5, 2)
    resid = verify_linear_solution((a1, a2), c=(2.0, -1.0), samples=100,
                                   sampler=sampler)
    assert resid < 1e-12


def test_ring_counterexample_nonlinear_solution():
    # rotations by +-pi/3 fail the positive-eigenvalue hypothesis, and a
    # genuinely nonlinear solution exists on the ring
    alpha = np.pi / 3.0
    L = np.array([[np.cos(alpha), -np.sin(alpha)],
                  [np.sin(alpha), np.cos(alpha)]])
    R = L.T

    def f(x):
        r2 = float(x[0] ** 2 + x[1] ** 2)
        theta = float(np.arctan2(x[1], x[0]))
        c1 = np.cos(6.0 * theta) * r2
        c2 = np.sin(6.0 * theta) + r2
        return c1 * float(x[0]) + c2 * float(x[1])

    def sampler(rng):
        r = np.sqrt(rng.uniform(0.5, 1.0))
        th = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([r * np.cos(th), r * np.sin(th)])

    resid = verify_linear_solution((lambda x: L @ x, lambda x: R @ x),
                                   f=f, samples=100, sampler=sampler)
    assert resid < 1e-9


def test_propagation_budget_flagged():
    prob = OverdetProblem.jensen((0.0, 1.0), 0.0, 1.0)
    cloud = propagate_values(prob, 14, 2.0 ** -12, cell_cap=40)
    assert cloud.partial
