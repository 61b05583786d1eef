import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN, circle_system
from guided_dynamics.exprlang import _scalar, as_callable, parse
from guided_dynamics.gds import (CircleSpace,
                                 ContractionMinimalityCertificate,
                                 ContractionRefusal, FiniteGraphSpace,
                                 GeneratorMap, GuidedSystem, GuidingSet,
                                 Interval, Orbit, OrbitGraph,
                                 allowed_generators, build_orbit_graph,
                                 check_contraction_minimality,
                                 find_guided_cycles, guided_orbit_set,
                                 map_from, minimal_subsystems,
                                 probe_minimality, probe_weak_attractor,
                                 validate_orbit, verify_conjugacy,
                                 zero_band_guiding)
from guided_dynamics.gds import (_closures, _golden_min, _witness_intervals,
                                 write_csv)


def standard_interval_system():
    return GuidedSystem(Interval(-1.0, 1.0),
                        [map_from(parse("(t+1)/2"), 0),
                         map_from(parse("(t-1)/2"), 1)])


# --------------------------------------------------------------------------
# allowed generators
# --------------------------------------------------------------------------

def test_allowed_generators_circle():
    system = circle_system(0.25, 0.5)
    # z = 1 (angle 0) lies in the first guiding set: only the second
    # rotation may leave it
    assert allowed_generators(system, 0.0) == (1,)
    assert allowed_generators(system, math.pi / 3) == (0, 1)
    # inside the tolerance band counts as membership
    assert allowed_generators(system, 1e-12) == (1,)


def test_guiding_set_intersection_rejected():
    with pytest.raises(ValueError, match="intersect"):
        GuidedSystem(Interval(0.0, 1.0),
                     [map_from(parse("t/2"), 0), map_from(parse("t/2"), 1)],
                     [GuidingSet.points([0.5]), GuidingSet.points([0.5])])


def test_range_escape_rejected():
    with pytest.raises(Exception, match="leaves the interval"):
        GuidedSystem(Interval(0.0, 1.0), [map_from(parse("t + 1"), 0)])


# --------------------------------------------------------------------------
# guided orbit sets
# --------------------------------------------------------------------------

def test_orbit_set_dyadic_coverage():
    system = standard_interval_system()
    cloud = guided_orbit_set(system, 1.0, 12, 2.0 ** -9)
    assert cloud.coverage == 1.0


def test_orbit_set_golden_circle_full_coverage():
    system = circle_system(GOLDEN, 0.3)
    cloud = guided_orbit_set(system, 0.0, 10 ** 4, 0.01)
    assert cloud.coverage == 1.0
    assert cloud.depth_used <= 10 ** 4


def test_orbit_set_rational_circle_four_points():
    system = circle_system(0.25, 0.5)
    # a generic seed reaches exactly the four quarter turns
    cloud = guided_orbit_set(system, 0.7, 100, 0.01)
    assert cloud.coverage < 1.0
    assert cloud.saturated
    targets = np.sort(np.mod(0.7 + np.arange(4) * math.pi / 2, 2 * math.pi))
    assert np.allclose(np.sort(cloud.points), targets, atol=1e-9)


def test_orbit_set_guided_seed_restricted():
    system = circle_system(0.25, 0.5)
    # angle 0 sits in the first guiding set, so only the half turn acts
    cloud = guided_orbit_set(system, 0.0, 100, 0.01)
    assert np.allclose(np.sort(cloud.points), [0.0, math.pi], atol=1e-12)


# --------------------------------------------------------------------------
# minimality probe
# --------------------------------------------------------------------------

def test_probe_minimality_standard_interval():
    verdict = probe_minimality(standard_interval_system(), 0.01, 10 ** 4)
    assert verdict.kind == "minimal_evidence"
    assert verdict.coverage == 1.0


def test_probe_minimality_rational_circle_witness():
    verdict = probe_minimality(circle_system(0.25, 0.5), 0.01, 10 ** 5)
    assert verdict.kind == "not_minimal"
    assert len(verdict.witness) == 4
    centers = [0.5 * (lo + hi) for lo, hi in verdict.witness]
    for k, target in enumerate([0.0, math.pi / 2, math.pi,
                                3 * math.pi / 2]):
        assert min(abs(c - target) for c in centers) < 0.01


def test_probe_minimality_golden_circle():
    verdict = probe_minimality(circle_system(GOLDEN, 0.3), 0.01, 10 ** 5)
    assert verdict.kind == "minimal_evidence"


def test_not_minimal_witness_is_forward_closed():
    system = circle_system(0.25, 0.5)
    verdict = probe_minimality(system, 0.01, 10 ** 5)
    # apply every allowed generator to every witness interval and check
    # the image stays inside the witness set
    witness = verdict.witness
    for lo, hi in witness:
        for i, gen in enumerate(system.generators):
            if system.guiding[i].covers_interval(lo, hi,
                                                 system.tol_lambda):
                continue
            img_lo = float(np.atleast_1d(gen(np.array([lo])))[0])
            img_hi = float(np.atleast_1d(gen(np.array([hi])))[0])
            span = img_hi - img_lo
            start = float(np.mod(img_lo, 2 * math.pi))
            contained = False
            for wlo, whi in witness:
                for shift in (-2 * math.pi, 0.0, 2 * math.pi):
                    if wlo - 1e-9 <= start + shift and \
                            start + span + shift <= whi + 1e-9:
                        contained = True
            assert contained


# --------------------------------------------------------------------------
# weak attractor probe
# --------------------------------------------------------------------------

def test_weak_attractor_circle_yes():
    verdict = probe_weak_attractor(circle_system(GOLDEN, 0.5), 0.0,
                                   0.01, 10 ** 5)
    assert verdict.kind == "yes"


def test_weak_attractor_standard_interval():
    verdict = probe_weak_attractor(standard_interval_system(), 0.0,
                                   0.01, 10 ** 4)
    assert verdict.kind == "yes"


def test_weak_attractor_rational_no_witness():
    verdict = probe_weak_attractor(circle_system(0.25, 0.5), 0.3,
                                   0.01, 10 ** 5)
    assert verdict.kind == "no"
    assert verdict.witness_seed == 0.0


# --------------------------------------------------------------------------
# guided cycles
# --------------------------------------------------------------------------

def test_guided_cycle_rational_circle():
    system = circle_system(0.25, 0.5)
    report = find_guided_cycles(system, 6)
    assert not report.empty
    cyc = report.cycles[0]
    assert cyc.gens == (1, 1)
    assert np.allclose(np.sort(np.mod(cyc.points[:-1], 2 * math.pi)),
                       [0.0, math.pi], atol=1e-9)
    assert validate_orbit(system, cyc, tol_step=1e-9)


def test_guided_cycles_empty_without_guiding():
    report = find_guided_cycles(standard_interval_system(), 6)
    assert report.empty


def test_guided_cycles_quadratic_pconf_endpoint_fixed_points(
        quadratic_pconf):
    # the endpoint anchors are fixed points of the map whose use is
    # forced there, so each is a guided 1-cycle
    system = quadratic_pconf.as_guided_system()
    report = find_guided_cycles(system, 6)
    points = sorted(round(float(c.points[0]), 6) for c in report.cycles)
    assert points == [-1.0, 1.0]
    for cyc in report.cycles:
        assert validate_orbit(system, cyc, tol_step=1e-7)


# --------------------------------------------------------------------------
# contraction certificates
# --------------------------------------------------------------------------

def test_certificate_standard_pair():
    cert = check_contraction_minimality(standard_interval_system())
    assert isinstance(cert, ContractionMinimalityCertificate)
    assert cert.lipschitz == (0.5, 0.5)
    assert cert.range_cover_defect <= 1e-9
    assert cert.guiding_empty


def test_certificate_square_example_per_axis():
    # the four quarter-square maps x -> (x + p)/2 run per coordinate on
    # each axis interval
    for corner in (-1.0, 1.0):
        system = GuidedSystem(
            Interval(-1.0, 1.0),
            [map_from(parse(f"(t + ({corner!r}))/2"), 0),
             map_from(parse(f"(t - ({corner!r}))/2"), 1)])
        cert = check_contraction_minimality(system)
        assert isinstance(cert, ContractionMinimalityCertificate)


def test_certificate_refusal_identity():
    system = GuidedSystem(Interval(-1.0, 1.0), [map_from(parse("t"), 0)])
    refusal = check_contraction_minimality(system)
    assert isinstance(refusal, ContractionRefusal)
    assert refusal.failed == "contraction"


def test_certificate_refusal_range_gap():
    system = GuidedSystem(Interval(0.0, 1.0), [map_from(parse("t/2"), 0)])
    refusal = check_contraction_minimality(system)
    assert isinstance(refusal, ContractionRefusal)
    assert refusal.failed == "range_cover"


def test_certificate_never_contradicts_probe(quadratic_pconf):
    # if a certificate is issued, the probe must not return NotMinimal
    # for the unguided system
    system = standard_interval_system()
    cert = check_contraction_minimality(system)
    assert isinstance(cert, ContractionMinimalityCertificate)
    assert probe_minimality(system, 0.01, 10 ** 4).kind != "not_minimal"


# --------------------------------------------------------------------------
# orbit graph and terminal components
# --------------------------------------------------------------------------

def test_orbit_graph_standard_hand_count():
    system = standard_interval_system()
    graph = build_orbit_graph(system, 4)
    assert len(graph.edges) == 8
    assert not graph.approximate
    edges = {tuple(e) for e in graph.edges.tolist()}
    # delta1 = (t+1)/2 sends [-1,-1/2] into [0, 1/4], inside cell 2
    assert (0, 2, 0) in edges
    assert (3, 1, 1) in edges


def test_orbit_graph_circle_rational_axis_cells():
    system = circle_system(0.25, 0.5)
    graph = build_orbit_graph(system, 8)
    comps = minimal_subsystems(graph)
    assert [0, 2, 4, 6] in comps
    assert all(len(c) < 8 for c in comps)


def test_orbit_graph_finite_graph_identity():
    space = FiniteGraphSpace(3)
    system = GuidedSystem(space, [GeneratorMap(None, None, 0,
                                               table=[1, 2, 2])])
    graph = build_orbit_graph(system, 3)
    assert sorted(map(tuple, graph.edges.tolist())) == \
        [(0, 1, 0), (1, 2, 0), (2, 2, 0)]


def test_minimal_subsystems_chain():
    graph = OrbitGraph(n_nodes=3,
                       edges=np.array([[0, 1, 0], [1, 2, 0], [2, 2, 0]]),
                       approximate=False)
    assert minimal_subsystems(graph) == [[2]]


def test_minimal_subsystems_two_cycle_plus_tail():
    graph = OrbitGraph(n_nodes=3,
                       edges=np.array([[0, 1, 0], [1, 0, 0], [2, 0, 0]]),
                       approximate=False)
    assert minimal_subsystems(graph) == [[0, 1]]


def brute_force_minimal_sets(n, edges):
    reach = np.eye(n, dtype=bool)
    adj = np.zeros((n, n), dtype=bool)
    for src, dst, _ in edges:
        adj[src, dst] = True
    changed = True
    closure = adj.copy()
    while changed:
        nxt = closure | (closure @ closure)
        changed = bool((nxt != closure).any())
        closure = nxt
    reach |= closure
    out = []
    for v in range(n):
        s = frozenset(np.nonzero(reach[v])[0].tolist())
        if all(frozenset(np.nonzero(reach[u])[0].tolist()) == s
               for u in s):
            if sorted(s) not in out:
                out.append(sorted(s))
    out.sort(key=lambda c: c[0])
    return out


def random_guided_graph(rng, n):
    n_gens = int(rng.integers(1, 4))
    tables = [rng.integers(0, n, n) for _ in range(n_gens)]
    guiding = [set() for _ in range(n_gens)]
    for v in range(n):
        for i in range(n_gens):
            if rng.random() < 0.3:
                guiding[i].add(v)
        if all(v in g for g in guiding):
            guiding[int(rng.integers(0, n_gens))].discard(v)
    system = GuidedSystem(
        FiniteGraphSpace(n),
        [GeneratorMap(None, None, i, table=tab)
         for i, tab in enumerate(tables)],
        [GuidingSet.points(sorted(float(v) for v in g)) for g in guiding])
    return system


def test_minimal_subsystems_match_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        system = random_guided_graph(rng, n)
        graph = build_orbit_graph(system, n)
        got = minimal_subsystems(graph)
        want = brute_force_minimal_sets(n, graph.edges.tolist())
        assert got == want


@given(st.integers(min_value=1, max_value=10), st.integers())
@settings(max_examples=60, deadline=None)
def test_terminal_scc_property(n, seed):
    rng = np.random.default_rng(abs(seed) % 2 ** 32)
    system = random_guided_graph(rng, n)
    graph = build_orbit_graph(system, n)
    comps = minimal_subsystems(graph)
    assert comps, "a finite guided system always has a terminal component"
    for comp in comps:
        members = set(comp)
        for src, dst, _ in graph.edges.tolist():
            if src in members:
                assert dst in members


# --------------------------------------------------------------------------
# conjugacy
# --------------------------------------------------------------------------

def test_identity_conjugacy():
    system = standard_interval_system()
    report = verify_conjugacy(system, system, parse("t"), parse("t"),
                              samples=64)
    assert report.ok
    assert report.map_defect == 0.0


def test_mismatched_conjugacy_fails():
    sys_a = standard_interval_system()
    # phi(t) = -t conjugates (t+1)/2 into (t-1)/2, so pairing it with the
    # unswapped system must fail loudly
    report = verify_conjugacy(sys_a, sys_a, parse("-t"), parse("-t"),
                              samples=64)
    assert not report.ok
    assert report.map_defect > 0.1


def test_conjugacy_affine_rescaling():
    sys_a = standard_interval_system()
    sys_b = GuidedSystem(Interval(-2.0, 2.0),
                         [map_from(parse("(t+2)/2"), 0),
                          map_from(parse("(t-2)/2"), 1)])
    report = verify_conjugacy(sys_a, sys_b, parse("2*t"), parse("t/2"),
                              samples=64)
    assert report.ok
    assert report.map_defect < 1e-12
    assert report.properness_violations == 0


# --------------------------------------------------------------------------
# zero-band scanning
# --------------------------------------------------------------------------

def test_zero_band_detects_quadratic_contact():
    # s(t) has double roots exactly at +-1/3; the grid never dips below
    # tolerance there, so the tangential scan must find them
    s = parse("0.5 - (297/128)*t + (513/64)*t^3 - (729/128)*t^5"
              .replace("297/128", "2.3203125")
              .replace("513/64", "8.015625")
              .replace("729/128", "5.6953125"))
    band = zero_band_guiding(s.eval, Interval(-1.0, 1.0), tol=1e-9)
    assert len(band.intervals) == 1
    lo, hi = band.intervals[0]
    assert lo < 1.0 / 3.0 < hi
    assert hi - lo < 1e-4


def test_zero_band_interval_run():
    fn = lambda t: np.maximum(np.asarray(t, float) - 0.5, 0.0)
    band = zero_band_guiding(fn, Interval(0.0, 1.0), tol=1e-9)
    assert len(band.intervals) == 1
    lo, hi = band.intervals[0]
    assert lo == 0.0
    assert abs(hi - 0.5) < 1e-6


def test_zero_band_empty():
    band = zero_band_guiding(parse("0.5 + t^2").eval, Interval(-1.0, 1.0))
    assert band.is_empty


def zero_band_loops(fn, interval, tol=1e-9, grid_n=8193):
    """Reference: zero_band_guiding with the per-point run walk and dip
    scan the vectorized version replaced."""
    f = as_callable(fn)
    ts = np.linspace(interval.a, interval.b, grid_n)
    vs = np.asarray(f(ts), dtype=float)
    below = vs < tol
    bands = []

    def cross(lo, hi):
        flo = _scalar(f, lo) - tol
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = _scalar(f, mid) - tol
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    j = 0
    while j < grid_n:
        if not below[j]:
            j += 1
            continue
        k = j
        while k + 1 < grid_n and below[k + 1]:
            k += 1
        lo = ts[j] if j == 0 else cross(ts[j - 1], ts[j])
        hi = ts[k] if k == grid_n - 1 else cross(ts[k], ts[k + 1])
        bands.append((lo, hi))
        j = k + 1
    for j in range(1, grid_n - 1):
        if below[j - 1] or below[j] or below[j + 1]:
            continue
        if not (vs[j] <= vs[j - 1] and vs[j] <= vs[j + 1]):
            continue
        denom = vs[j - 1] - 2 * vs[j] + vs[j + 1]
        fitted = vs[j] if denom <= 0 else \
            vs[j] - (vs[j - 1] - vs[j + 1]) ** 2 / (8 * denom)
        if fitted >= tol and vs[j] >= 10 * tol and fitted >= 0.01 * vs[j]:
            continue
        lo, hi = ts[j - 1], ts[j + 1]
        tm, vm = _golden_min(f, lo, hi)
        if vm < tol:
            blo = cross(lo, tm) if vs[j - 1] >= tol else lo
            bhi = cross(tm, hi) if vs[j + 1] >= tol else hi
            bands.append((blo, bhi))
    bands.sort()
    merged = []
    for lo, hi in bands:
        if merged and lo <= merged[-1][1] + (ts[1] - ts[0]) * 1e-6:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@pytest.mark.parametrize("source,interval,grid_n", [
    # constants: every grid point is a flat local minimum
    ("0.25", (-1.0, 1.0), 8193),
    ("0", (-1.0, 1.0), 8193),
    ("1e-9", (-1.0, 1.0), 257),                   # flat, exactly at tol
    ("5e-9", (-1.0, 1.0), 257),                   # flat, below 10 tol
    ("t", (0.0, 1.0), 8193),                      # run touching the left end
    ("1 - t", (0.0, 1.0), 8193),                  # run touching the right end
    ("t^2 * (1 - t)^2", (0.0, 1.0), 8193),        # runs touching both ends
    ("(t - 0.3)^2", (0.0, 1.0), 8193),            # interior run
    ("(t - 0.30001)^2", (0.0, 1.0), 129),         # dip straddled by the grid
    ("(t - 1/3)^2", (-1.0, 1.0), 8193),           # tangential dip
    ("(t - 1/3)^2 * (t + 0.52)^2", (-1.0, 1.0), 1001),   # two dips
    ("abs(t - 0.123456)", (0.0, 1.0), 65),        # corner dip
    ("sin(3*t)^2", (0.0, 2 * math.pi), 8193),     # circle coefficient scan
    ("cos(t)^2 + 1e-12", (0.0, 2 * math.pi), 257),
    ("1 + sin(40*t)", (0.0, 2 * math.pi), 8193),  # many curved minima
])
def test_zero_band_matches_loops(source, interval, grid_n):
    fn = parse(source)
    iv = Interval(*interval)
    band = zero_band_guiding(fn, iv, grid_n=grid_n)
    assert band.intervals == zero_band_loops(fn, iv, grid_n=grid_n)


@pytest.mark.parametrize("columns,header", [
    ([np.array([0.1, -0.0, 1e300, 2.0 ** -1074, 3.0])], "t"),
    ([np.linspace(-1.0, 1.0, 11), np.sin(np.arange(11.0))], "t,value"),
    ([np.array([0.5, -0.0, 1.0 / 3.0]), np.array([-1e-17, 7.0, -0.0]),
      np.array([0, 3, 14], dtype=np.int64)], "t,value,depth"),
    ([np.empty(0), np.empty(0), np.empty(0)], "x,y,u"),
    # 5000 rows cross the 4096-row block boundary
    ([np.linspace(-1.0, 1.0, 5000) ** 3,
      np.where(np.arange(5000) % 7 == 0, -0.0,
               np.exp(np.linspace(-700.0, 700.0, 5000))),
      np.arange(5000, dtype=np.int64) % 97], "t,value,depth"),
])
def test_write_csv_matches_savetxt(tmp_path, columns, header):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_csv(ours, header, columns)
    np.savetxt(ref, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    assert ours.read_bytes() == ref.read_bytes()


def test_conjugate_pair_probe_verdicts_agree():
    # conjugacy preserves minimality verdict categories
    sys_a = standard_interval_system()
    sys_b = GuidedSystem(Interval(-2.0, 2.0),
                         [map_from(parse("(t+2)/2"), 0),
                          map_from(parse("(t-2)/2"), 1)])
    assert verify_conjugacy(sys_a, sys_b, parse("2*t"), parse("t/2")).ok
    va = probe_minimality(sys_a, 0.01, 10 ** 4)
    vb = probe_minimality(sys_b, 0.02, 10 ** 4)  # same resolution after scaling
    assert va.kind == vb.kind == "minimal_evidence"


def test_orbit_cloud_csv_export(tmp_path):
    system = circle_system(0.25, 0.5)
    cloud = guided_orbit_set(system, 0.0, 50, 0.01)
    path = tmp_path / "cloud.csv"
    cloud.to_csv(path)
    pts = np.loadtxt(path, skiprows=1)
    assert np.allclose(pts, [0.0, math.pi], atol=1e-12)


def test_orbit_graph_edge_list_export():
    system = standard_interval_system()
    graph = build_orbit_graph(system, 4)
    # the edge list is the (src, dst, gen) integer rows
    assert graph.edges.shape == (8, 3)
    assert graph.edges.dtype == np.int64


def test_conjugacy_not_invertible():
    from guided_dynamics.errors import NotInvertible
    sys_a = standard_interval_system()
    with pytest.raises(NotInvertible):
        verify_conjugacy(sys_a, sys_a, parse("t^2"), parse("sqrt(abs(t))"),
                         samples=64)


def test_orbit_cloud_budget_flagged():
    system = circle_system(GOLDEN, 0.3)
    cloud = guided_orbit_set(system, 0.0, 10 ** 4, 0.01, cell_cap=50)
    assert cloud.partial


# --------------------------------------------------------------------------
# batched closure kernel
# --------------------------------------------------------------------------

def test_blocked_frontier_at_depth_limit_is_saturated():
    # the only step is forbidden everywhere, so every singleton is a
    # closed orbit, even when the block is met at the last allowed level
    system = GuidedSystem(Interval(0.0, 1.0), [map_from(parse("t/2"), 0)],
                          guiding=[[(0.0, 1.0)]])
    cloud = guided_orbit_set(system, 0.3, 1, 0.1)
    assert cloud.saturated and cloud.depth_used == 0
    verdict = probe_minimality(system, 0.1, 1)
    assert verdict.kind == "not_minimal"
    assert verdict.witness == ((0.0, 0.025),)
    attractor = probe_weak_attractor(system, 0.5, 0.1, 1)
    assert attractor.kind == "no"
    assert attractor.witness_seed == 0.0


@given(st.sampled_from([0.25, 0.3, GOLDEN, 1.0 / (3.0 + GOLDEN)]),
       st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                min_size=2, max_size=6),
       st.sampled_from([0.05, 0.02]), st.integers(0, 300),
       st.sampled_from([2, 16]), st.sampled_from([40, 500_000]),
       st.sampled_from(["none", "covered", "target"]))
@settings(max_examples=60, deadline=None)
def test_batched_closures_do_not_couple_seeds(turn, seeds, eps, depth, mult,
                                              cap, retire):
    system = circle_system(turn, 0.5)
    kw = {"retire_covered": retire == "covered",
          "target": 1.0 if retire == "target" else None,
          "keep_points": True}
    cov, sat, part, hit, _, pts = _closures(system, np.array(seeds), depth,
                                            eps, mult, cap, **kw)
    for k, seed in enumerate(seeds):
        c1, s1, p1, h1, _, (pts1,) = _closures(system, np.array([seed]),
                                               depth, eps, mult, cap, **kw)
        assert (cov[k], sat[k], part[k], hit[k]) == (c1[0], s1[0], p1[0],
                                                      h1[0])
        assert np.array_equal(pts[k], pts1)


def witness_intervals_loop(space, rep_points, pad):
    """Reference: the pad-and-merge loop the vectorized version replaced."""
    pts = np.sort(np.asarray(rep_points, dtype=float))
    ivs = []
    for p in pts:
        lo, hi = p - pad, p + pad
        if isinstance(space, Interval):
            lo, hi = max(lo, space.a), min(hi, space.b)
        if ivs and lo <= ivs[-1][1] + 1e-15:
            ivs[-1] = (ivs[-1][0], max(ivs[-1][1], hi))
        else:
            ivs.append((lo, hi))
    if isinstance(space, CircleSpace) and len(ivs) > 1:
        first_lo, first_hi = ivs[0]
        last_lo, last_hi = ivs[-1]
        if first_lo + space.period <= last_hi + 1e-15:
            ivs[0] = (last_lo - space.period, first_hi)
            ivs.pop()
    return tuple(ivs)


@pytest.mark.parametrize("space", [Interval(-1.0, 1.0), CircleSpace()])
def test_witness_intervals_match_loop(space):
    rng = np.random.default_rng(7)
    lo, hi = (-1.0, 1.0) if isinstance(space, Interval) else (0.0, 2 * math.pi)
    pad_cell = space.length / space.cell_count(0.01 / 2.0) / 2.0
    for trial in range(300):
        n = int(rng.integers(2, 40))
        pts = rng.uniform(lo, hi, n)
        if trial % 3 == 0:
            # pads that reach the ends (Interval) or the seam (circle)
            pts[:2] = (lo + rng.uniform(0.0, 2 * pad_cell),
                       hi - rng.uniform(0.0, 2 * pad_cell))
        if trial % 5 == 0:
            # runs of points one pad apart, where the merge tolerance acts
            pts = lo + 0.3 + 2 * pad_cell * np.arange(n)
        for pad in (pad_cell, 1e-9, 0.05):
            assert _witness_intervals(space, pts, pad) == \
                witness_intervals_loop(space, pts, pad)
