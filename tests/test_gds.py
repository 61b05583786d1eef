import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN, circle_system, validate_orbit
from guided_dynamics import gds
from guided_dynamics.cli import load_config
from guided_dynamics.exprlang import Expression, _scalar, as_callable, parse
from guided_dynamics.pconf import extract_guiding_sets
from guided_dynamics.gds import (CircleSpace,
                                 ContractionMinimalityCertificate,
                                 ContractionRefusal, FiniteGraphSpace,
                                 GeneratorMap, GuidedSystem, GuidingSet,
                                 Interval, OrbitGraph,
                                 allowed_generators, build_orbit_graph,
                                 check_contraction_minimality,
                                 find_guided_cycles, guided_orbit_set,
                                 map_from, minimal_subsystems,
                                 probe_minimality, probe_weak_attractor,
                                 verify_conjugacy, zero_band_guiding)
from guided_dynamics.gds import (_circle_arcs, _closures, _distinct,
                                 _first_claims, _interval_images,
                                 _merge_intervals, _newton, _nth_allowed,
                                 _range_cover_defect,
                                 _roots, _step_rule, _validate_witness,
                                 _witness_intervals, write_csv)

TWO_PI = 2 * math.pi
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def standard_interval_system():
    return GuidedSystem(Interval(-1.0, 1.0),
                        [map_from(parse("(t+1)/2"), 0),
                         map_from(parse("(t-1)/2"), 1)])


def quadratic_pair():
    """The maps of configs/quadratic_pconf.json, unguided: both fix an
    end of [-1, 1] with derivative 1 there."""
    return GuidedSystem(Interval(-1.0, 1.0), [parse("t-((t+1)/2)^2"),
                                              parse("((t+1)/2)^2")])


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


def test_one_generator_guiding_set_rejected():
    # with one generator the common intersection is its guiding set
    with pytest.raises(ValueError, match="intersect"):
        GuidedSystem(Interval(0.0, 1.0), [parse("t/2")],
                     [GuidingSet([(0.0, 1.0)])])
    with pytest.raises(ValueError, match="intersect"):
        GuidedSystem(CircleSpace(), [parse("t + 1")],
                     [GuidingSet.points([2.0])])


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
    # the closure stops at the level that touches its last eps-cell, and
    # saturation is not tested there
    assert cloud.saturated is False
    short = guided_orbit_set(system, 0.0, cloud.depth_used - 1, 0.01)
    assert short.coverage < 1.0


def test_orbit_set_rational_circle_four_points():
    system = circle_system(0.25, 0.5)
    # a generic seed reaches exactly the four quarter turns
    cloud = guided_orbit_set(system, 0.7, 100, 0.01)
    assert cloud.coverage < 1.0
    assert cloud.saturated
    targets = np.sort(np.mod(0.7 + np.arange(4) * math.pi / 2, 2 * math.pi))
    assert np.allclose(np.sort(cloud.points), targets, atol=1e-9)


@pytest.mark.parametrize("eps", [0.005, 0.002])
def test_orbit_set_starved_rotation_is_not_saturated(eps):
    # 710 points of the rotation by 1 rad from 0.3 return within 6e-5 of
    # the seed, inside one dedup cell at every rung: the closure stops
    # growing without being closed, and no witness validates
    system = GuidedSystem(CircleSpace(), [parse("t + 1"), parse("t + 2")])
    cloud = guided_orbit_set(system, 0.3, 10 ** 4, eps)
    assert cloud.coverage < 1.0
    assert not cloud.saturated


def test_orbit_set_parabolic_fixed_point_is_not_saturated():
    # near -1 the first map moves a point at distance d by d^2/4, below
    # the dedup cell: the closure stalls 2 to 4 cells short of the end
    for x0 in (0.3, -0.999):
        cloud = guided_orbit_set(quadratic_pair(), x0, 10 ** 4, 0.01)
        assert 0.9 < cloud.coverage < 1.0
        assert not cloud.saturated


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
            if system.guiding[i].covers_interval(lo, hi, system.space,
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


def test_probe_minimality_falls_back_on_first_tight_witness(monkeypatch):
    # No configs/ probe reaches the tolerance-band fallback, so witness
    # validation is stubbed. A quarter turn's closures are saturated
    # four-point sets at both rungs (12 seeds at eps 0.55); only the
    # tol_lambda pads validate, and with robust_at also the robust pads
    # of the closure through that point.
    system = GuidedSystem(CircleSpace(), [parse(f"t + {TWO_PI / 4!r}")])
    eps = 0.55
    seeds = system.space.cell_left_edges(system.space.cell_count(eps))
    assert len(seeds) == 12
    seeds = seeds.tolist()

    def stub(robust_at=None):
        tight = []

        def validate(system, intervals):
            if np.max(intervals[:, 1] - intervals[:, 0]) < 1e-6:
                tight.append(tuple(map(tuple, intervals.tolist())))
                return True
            lo, hi = intervals.T
            return robust_at is not None and \
                bool(np.any((lo <= robust_at) & (robust_at <= hi)))
        monkeypatch.setattr(gds, "_validate_witness", validate)
        return tight

    tight = stub()
    verdict = probe_minimality(system, eps, 100)
    assert len(tight) == 2 * len(seeds)     # every seed, at both rungs
    assert tight[0] != tight[-1]
    assert verdict.kind == "not_minimal"
    assert verdict.witness == tight[0]
    assert verdict.note == (f"seed {seeds[0]!r}: set invariant through "
                            f"exact guiding exclusions (4 interval(s))")
    # a robust witness after it still wins: seed 2's closure holds seed 5
    stub(robust_at=seeds[5])
    verdict = probe_minimality(system, eps, 100)
    assert verdict.note == (f"seed {seeds[2]!r}: forward-closed set of 4 "
                            f"interval(s)")


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


@pytest.mark.parametrize("x0,eps", [(-0.999, 0.02), (-0.999, 0.01),
                                    (0.999, 0.02), (0.999, 0.01)])
def test_weak_attractor_no_needs_a_witness(x0, eps):
    # every first-map orbit converges to -1, but near that parabolic fixed
    # point its steps fall below the dedup cell, so closures that miss
    # B(x0, eps) saturate without a forward-closed witness
    verdict = probe_weak_attractor(quadratic_pair(), x0, eps, 10 ** 5)
    assert verdict.kind == "inconclusive"
    assert verdict.witness_seed is None


# --------------------------------------------------------------------------
# probe seeds retired by orbit inclusion
# --------------------------------------------------------------------------

# name -> (system, eps, depth, weak-attractor target)
CHAIN_CASES = {
    "golden guided": (lambda: circle_system(GOLDEN, 0.3), 0.05, 10 ** 5,
                      1.0),
    "sqrt2 rad": (lambda: GuidedSystem(CircleSpace(), [
        parse("t + 1.4142135623730951"), parse("t + 2.8284271247461903")]),
        0.05, 10 ** 5, 1.0),
    "rational guided": (lambda: circle_system(0.25, 0.5), 0.05, 10 ** 5,
                        0.3),
    "interval pair": (standard_interval_system, 0.02, 10 ** 4, 0.0),
    "quarter turn": (lambda: GuidedSystem(CircleSpace(), [
        parse(f"t + {TWO_PI / 4!r}")]), 0.55, 100, 1.0),
}


def chains(seeds, kw):
    """Whether the kernel settles this run's seeds by orbit inclusion."""
    return len(seeds) > 1 and not kw.get("keep_points") and \
        kw.get("payload") is None


def per_seed_oracle(monkeypatch):
    """Patch in an oracle kernel that runs each seed of a run the kernel
    would chain as a batch of one, so no seed can reach an earlier one;
    the returned list gets the size of each run it splits."""
    splits = []

    def per_seed_closures(system, seeds, *args, **kw):
        if not chains(seeds, kw):
            return _closures(system, seeds, *args, **kw)
        splits.append(len(seeds))
        runs = [_closures(system, seeds[k:k + 1], *args, **kw)
                for k in range(len(seeds))]
        columns = [None if runs[0][i] is None else
                   np.concatenate([run[i] for run in runs])
                   for i in range(4)]
        return (*columns, max(run[4] for run in runs), None)
    monkeypatch.setattr(gds, "_closures", per_seed_closures)
    return splits


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_probes_match_a_per_seed_oracle(monkeypatch, name):
    make, eps, depth, x0 = CHAIN_CASES[name]

    def probes():
        return (probe_minimality(make(), eps, depth),
                probe_weak_attractor(make(), x0, eps, depth))
    got = probes()
    splits = per_seed_oracle(monkeypatch)
    want = probes()
    assert splits, "the oracle split no run"
    assert got[0].kind == want[0].kind
    if want[0].kind == "not_minimal":
        assert (got[0].witness, got[0].note, got[0].coverage) == (
            want[0].witness, want[0].note, want[0].coverage)
    assert (got[1].kind, got[1].witness_seed) == (want[1].kind,
                                                  want[1].witness_seed)


@pytest.mark.parametrize("name", sorted(CHAIN_CASES) + ["quadratic pair"])
def test_chained_seeds_take_their_roots_outcome(monkeypatch, name):
    # each chained pass links seeds only to lower indices, a linked seed
    # reports its root's outcome, and the next rung reruns exactly the
    # seeds whose root was not covered (not hit): a seed whose root is
    # stuck or unresolved never counts as covered
    make, eps, depth, x0 = CHAIN_CASES.get(
        name, (quadratic_pair, 0.02, 10 ** 5, -0.999))
    roots, found, runs = gds._roots, [], []

    def spy_roots(links):
        found.append(links.copy())
        return roots(links)

    def spy(system, seeds, *args, **kw):
        # every pass (a run that keeps no points); a pass of one seed is
        # not chained and has no links
        n = len(found)
        out = _closures(system, seeds, *args, **kw)
        if not kw.get("keep_points"):
            assert (len(found) > n) == chains(seeds, kw)
            links = found[n] if len(found) > n else np.full(len(seeds), -1)
            runs.append((np.asarray(seeds, dtype=float), links, *out[:4]))
        return out
    monkeypatch.setattr(gds, "_roots", spy_roots)
    monkeypatch.setattr(gds, "_closures", spy)
    verdicts = (probe_minimality(make(), eps, depth),
                probe_weak_attractor(make(), x0, eps, depth))
    n_cov = make().space.cell_count(eps)
    chained = 0
    for k, (seeds, links, cov, sat, part, hit) in enumerate(runs):
        linked = np.flatnonzero(links >= 0)
        chained += linked.size
        assert np.all(links[linked] < linked)
        root = roots(links)
        assert np.all(links[root] < 0)
        for outcome in (cov, sat, part, hit):
            assert outcome is None or np.array_equal(outcome, outcome[root])
        done = hit if cov is None else cov == n_cov
        following = runs[k + 1] if k + 1 < len(runs) else None
        if following is not None and (following[2] is None) == (cov is None):
            assert np.array_equal(following[0], seeds[~done])
        elif done.all():
            assert verdicts[cov is None].kind in ("minimal_evidence", "yes")
    assert chained > 0


def test_probes_try_chained_seeds_on_their_own_closures(monkeypatch):
    # A turn just over a quarter: seed 3's closure reaches seed 0's start
    # cell at level 3, so the chained pass gives it seed 0's stuck outcome,
    # but its own saturated closure holds its start point, which seed 0's
    # does not. Witness validation is stubbed so that only sets around
    # seed 3's start validate: the verdicts must name seed 3, as when
    # every seed runs to its own end, not give up on seed 0's closure.
    system = GuidedSystem(CircleSpace(), [parse(f"t + {TWO_PI / 4 + 1e-7!r}")])
    eps = 0.55
    seeds = system.space.cell_left_edges(system.space.cell_count(eps))
    assert len(seeds) == 12
    start = float(seeds[3])

    def validate(system, intervals):
        return bool(np.any(np.abs(intervals.mean(axis=1) - start) < 1e-9))
    monkeypatch.setattr(gds, "_validate_witness", validate)
    verdict = probe_minimality(system, eps, 100)
    assert verdict.kind == "not_minimal"
    assert verdict.note == f"seed {start!r}: forward-closed set of 4 " \
                           f"interval(s)"
    # B(x0, eps) between seeds 1 and 2 catches the orbits through them
    # but none through seeds 0, 3, 6 and 9
    attractor = probe_weak_attractor(system, float(seeds[1] + seeds[2]) / 2,
                                     eps, 100)
    assert attractor.kind == "no"
    assert attractor.witness_seed == start
    splits = per_seed_oracle(monkeypatch)
    assert probe_minimality(system, eps, 100).note == verdict.note
    assert probe_weak_attractor(system, float(seeds[1] + seeds[2]) / 2, eps,
                                100).witness_seed == start
    assert splits


@pytest.mark.parametrize("make,eps,kind,cells", [
    (lambda: load_config(os.path.join(CONFIGS, "circle_irrational.json"))
     .guided_system(), 0.005, "minimal_evidence", 1257),
    (lambda: GuidedSystem(CircleSpace(), [parse("t + 1"), parse("t + 2")]),
     0.005, "inconclusive", 710),
    (lambda: GuidedSystem(CircleSpace(), [
        parse(f"t + {TWO_PI * (1 / 3 + math.sqrt(2) * 1e-7)!r}")]),
     0.01, "inconclusive", 3),
    (quadratic_pair, 0.02, "inconclusive", 94),
], ids=["circle_irrational", "one-rad", "near-third", "quadratic_pconf"])
def test_probe_hard_cases_keep_their_verdicts(make, eps, kind, cells):
    # rotations with close rational approximants (710/113 for 1 rad) and a
    # pair with parabolic fixed points: never not_minimal, and each reads
    # the coverage it read when every seed ran to its own end
    system = make()
    verdict = probe_minimality(system, eps, 10 ** 5)
    assert verdict.kind == kind
    assert verdict.coverage == cells / system.space.cell_count(eps)


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
    system = GuidedSystem(quadratic_pconf.interval, quadratic_pconf.maps,
                          extract_guiding_sets(quadratic_pconf))
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


def test_graph_contains_integer_nodes_only():
    space = FiniteGraphSpace(5)
    assert space.contains(2) and space.contains(2.0)
    assert space.contains(np.array([0, 4]))
    for x in (2.7, -1, 5, np.nan, np.array([0, 1.5])):
        assert not space.contains(x)


def _chain5():
    return GuidedSystem(FiniteGraphSpace(5), [GeneratorMap(
        None, None, 0, table=[1, 2, 3, 4, 4])])


@pytest.mark.parametrize("system,x0", [
    (_chain5(), 2.7), (_chain5(), 5), (_chain5(), -1),
    (GuidedSystem(Interval(-1.0, 1.0), [parse("t/2")]), 5.0),
    (GuidedSystem(Interval(-1.0, 1.0), [parse("t/2")]), np.nan),
    (circle_system(0.1, 0.2), np.nan), (circle_system(0.1, 0.2), np.inf)])
def test_seed_off_the_space_is_refused(system, x0):
    with pytest.raises(ValueError, match="is not a point of"):
        guided_orbit_set(system, x0, 10, 0.1)
    with pytest.raises(ValueError, match="is not a point of"):
        probe_weak_attractor(system, x0, 0.1, 10)


def test_graph_seed_on_a_node_runs():
    cloud = guided_orbit_set(_chain5(), 2.0, 10, 0.1)
    assert cloud.seed == 2.0
    assert cloud.points.tolist() == [2.0, 3.0, 4.0]
    assert probe_weak_attractor(_chain5(), 4, 0.1, 10).kind == "yes"


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


def brute_force_reach(n, edges):
    """reach[u, v]: v is reachable from u (u itself included), from the
    transitive closure of the edges (src, dst, ...)."""
    reach = np.eye(n, dtype=bool)
    adj = np.zeros((n, n), dtype=bool)
    for src, dst, *_ in edges:
        adj[src, dst] = True
    changed = True
    closure = adj.copy()
    while changed:
        nxt = closure | (closure @ closure)
        changed = bool((nxt != closure).any())
        closure = nxt
    return reach | closure


def brute_force_minimal_sets(n, edges):
    reach = brute_force_reach(n, edges)
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


@st.composite
def multigraphs(draw):
    """(n, edges): a directed multigraph on 1-40 nodes. Each node falls in
    one of up to four parts, and an edge stays inside its source's part
    unless it is drawn as a crossing edge (one in ten), so disconnected
    parts are common; self-loops, repeated edges and nodes without
    out-edges occur too."""
    n = draw(st.integers(1, 40))
    part = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    edges = []
    for src, pick, cross in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(0, 9)), max_size=3 * n)):
        inside = [v for v in range(n) if part[v] == part[src]]
        edges.append((src, pick if cross == 0
                       else inside[pick % len(inside)]))
    return n, edges


def multigraph_system(n, edges):
    """A guided system on n nodes whose orbit graph has exactly these
    edges: generator i follows each node's i-th out-edge and is guided at
    the nodes with fewer. Built unvalidated, since a node without
    out-edges lies in every guiding set."""
    out = [[] for _ in range(n)]
    for src, dst in edges:
        out[src].append(dst)
    k = max(1, max(map(len, out)))
    return GuidedSystem(
        FiniteGraphSpace(n),
        [GeneratorMap(None, None, i, table=np.array(
            [o[i] if i < len(o) else v for v, o in enumerate(out)]))
         for i in range(k)],
        [GuidingSet.points([float(v) for v, o in enumerate(out)
                            if len(o) <= i]) for i in range(k)],
        validate=False)


@given(multigraphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_graph_routes_match_transitive_closure(multigraph, data):
    # minimal subsystems are the terminal components of the closure, and
    # the graph weak-attractor verdict is "every node reaches x0", with
    # the smallest node that does not as its witness
    n, edges = multigraph
    system = multigraph_system(n, edges)
    graph = build_orbit_graph(system, n)
    assert sorted(map(tuple, graph.edges[:, :2].tolist())) == sorted(edges)
    assert minimal_subsystems(graph) == brute_force_minimal_sets(n, edges)
    x0 = data.draw(st.integers(0, n - 1), label="x0")
    verdict = probe_weak_attractor(system, x0, 0.1, 10)
    missing = np.flatnonzero(~brute_force_reach(n, edges)[:, x0])
    if missing.size:
        assert (verdict.kind, verdict.witness_seed) == \
            ("no", float(missing[0]))
    else:
        assert (verdict.kind, verdict.witness_seed) == ("yes", None)


@pytest.mark.parametrize("shape", ["path", "cycle"])
def test_graph_routes_on_long_paths_need_no_recursion(shape):
    # one depth-first path through all 10**5 nodes, in both directions
    n = 10 ** 5
    if shape == "path":
        system = multigraph_system(n, [(v, v + 1) for v in range(n - 1)])
        terminal = [[n - 1]]
    else:
        system = multigraph_system(n, [(v, (v + 1) % n) for v in range(n)])
        terminal = [list(range(n))]
    graph = build_orbit_graph(system, n)
    start = time.perf_counter()
    assert minimal_subsystems(graph) == terminal
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert probe_weak_attractor(system, n - 1, 0.1, 10).kind == "yes"
    assert time.perf_counter() - start < 1.0


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


def test_nan_defects_fail_conjugacy():
    # a generator of sys_b that is NaN on half of [0, 1]: its map defect
    # is NaN, which must not read as 0
    iv = Interval(0.0, 1.0)
    sys_a = GuidedSystem(iv, [lambda t: t / 2])
    sys_b = GuidedSystem(iv, [lambda t: np.where(t < 0.5, t / 2, np.nan)],
                         validate=False)
    report = verify_conjugacy(sys_a, sys_b, parse("t"), parse("t"))
    assert math.isnan(report.map_defect) and not report.ok
    # an inverse that is NaN on half of [0, 1] does not invert phi
    from guided_dynamics.errors import NotInvertible
    with pytest.raises(NotInvertible):
        verify_conjugacy(sys_a, sys_a, parse("t"),
                         lambda t: np.where(t < 0.5, t, np.nan))
    # a phi that is NaN at the guiding point of the second generator:
    # its guiding defect is NaN, after a 0.0 for the first
    guided = GuidedSystem(Interval(-1.0, 1.0),
                          [parse("(t+1)/2"), parse("(t-1)/2")],
                          [GuidingSet.empty(), GuidingSet.points([0.3])])
    report = verify_conjugacy(guided, guided,
                              lambda t: np.where(t == 0.3, np.nan, t),
                              parse("t"))
    assert report.guiding_defects[0] == 0.0
    assert math.isnan(report.guiding_defects[1]) and not report.ok


def nth_allowed_loop(masks, pick):
    """Reference: the (pick + 1)-th allowed generator of each row by a
    running count over the generators, -1 for a row with none."""
    chosen = np.full(masks.shape[0], -1, dtype=np.int64)
    running = np.zeros(masks.shape[0], dtype=np.int64)
    for i in range(masks.shape[1]):
        chosen[masks[:, i] & (running == pick)] = i
        running += masks[:, i]
    return chosen


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.lists(st.booleans(), min_size=n, max_size=n),
              st.floats(0.0, 1.0, exclude_max=True)),
    min_size=1, max_size=30)))
def test_nth_allowed_matches_running_count(rows):
    masks = np.array([m for m, _ in rows])
    # the pick is drawn as verify_conjugacy draws it
    pick = (np.array([u for _, u in rows]) * masks.sum(axis=1)).astype(
        np.int64)
    live = masks.any(axis=1)
    want = nth_allowed_loop(masks, pick)
    assert np.all(want[~live] == -1)
    assert np.array_equal(_nth_allowed(masks, pick)[live], want[live])


def test_step_each_steps_each_point_by_its_generator():
    # on the circle, so that the images are normalized as by step
    system = circle_system(GOLDEN, 0.7)
    x = np.linspace(0.0, 6.0, 9)
    chosen = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1])
    got = system.step_each(chosen, x)
    want = [system.step(i, xk)[0] for i, xk in zip(chosen, x)]
    assert got.tolist() == want
    assert system.step_each(chosen[:0], x[:0]).shape == (0,)


def test_conjugacy_properness_uses_tol_lambda():
    # every step maps onto p, allowed in sys_a (2e-9 from its guiding
    # point) but within sys_b's tol_lambda 1e-9 of its guiding point
    # (one generator with a guiding point: systems that validation
    # refuses, since their guiding sets intersect)
    p = 0.25
    sys_a, sys_b = (GuidedSystem(Interval(-1.0, 1.0), [parse("0.25")],
                                 [GuidingSet.points([p + off])],
                                 validate=False)
                    for off in (2e-9, 5e-10))
    report = verify_conjugacy(sys_a, sys_b, parse("t"), parse("t"))
    # the first step of each of the 100 orbits starts off p
    assert report.properness_checked == 800
    assert report.properness_violations == 700
    assert not report.ok


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
    band = zero_band_guiding(s, Interval(-1.0, 1.0))
    assert len(band.intervals) == 1
    lo, hi = band.intervals[0]
    assert lo < 1.0 / 3.0 < hi
    assert hi - lo < 1e-4


def test_zero_band_interval_run():
    # max(t - 0.5, 0), exactly
    fn = parse("(t - 0.5 + abs(t - 0.5))/2")
    band = zero_band_guiding(fn, Interval(0.0, 1.0))
    assert len(band.intervals) == 1
    lo, hi = band.intervals[0]
    assert lo == 0.0
    assert abs(hi - 0.5) < 1e-6


def test_zero_band_finds_a_tilted_flat_dip():
    # 1e-6 u^4 - 4e-9 u + 8e-10 with u = 4096 t - 1024.2, one grid step per
    # unit of u: its minimum 5e-10 < tol at u = 0.1 lies between grid
    # nodes, and fn' is a cubic whose Newton steps from the scan minimum
    # shrink towards its flat point u = 0 before they grow again
    fn = parse("1e-6*(4096*t - 1024.2)^4 - 4e-9*(4096*t - 1024.2) + 8e-10")
    band = zero_band_guiding(fn, Interval(-1.0, 1.0))
    assert len(band.intervals) == 1
    lo, hi = band.intervals[0]
    assert lo < 1024.3 / 4096 < hi
    assert hi - lo < 1e-4


def test_zero_band_empty():
    band = zero_band_guiding(parse("0.5 + t^2"), Interval(-1.0, 1.0))
    assert band.is_empty


def zero_band_loops(fn, interval, tol=1e-9, grid_n=8193):
    """Reference: zero_band_guiding with the per-point run walk, the dip
    scan, the bisection and the golden-section search the library calls
    replaced."""
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
        tm, vm = golden_min(f, lo, hi)
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


def golden_min(f, lo, hi, iters=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = _scalar(f, x1)
    f2 = _scalar(f, x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = _scalar(f, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = _scalar(f, x2)
        if hi - lo < 1e-15 * (1 + abs(lo)):
            break
    xm = 0.5 * (lo + hi)
    return xm, _scalar(f, xm)


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
    ("(t - 0.5)^2", (0.0, 1.0), 4),               # two grid minima, one dip
])
def test_zero_band_matches_loops(source, interval, grid_n, monkeypatch):
    fn = parse(source)
    iv = Interval(*interval)
    monkeypatch.setattr(gds, "ZERO_BAND_N", grid_n)
    band = zero_band_guiding(fn, iv)
    ref = zero_band_loops(fn, iv, grid_n=grid_n)
    # the library solvers stop at other floats than the loops did
    assert len(band.intervals) == len(ref)
    np.testing.assert_allclose(np.reshape(band.intervals, (-1, 2)),
                               np.reshape(ref, (-1, 2)), rtol=0, atol=1e-12)
    # an end off the grid is a tol crossing: fn - tol changes sign
    # within 1e-12 of it
    grid = np.linspace(iv.a, iv.b, grid_n)
    ends = np.ravel(band.intervals)
    ends = ends[~np.isin(ends, grid)]
    f = as_callable(fn)
    below = np.asarray(f(ends - 1e-12)) < 1e-9
    assert np.all(below != (np.asarray(f(ends + 1e-12)) < 1e-9))


@pytest.mark.parametrize("value", [5e-9, 1e-9])
def test_zero_band_flat_coefficient_is_cheap(value, monkeypatch):
    # a flat value in [tol, 10 tol) passes the dip prefilter at every grid
    # point; all of them are refined together, not one search each
    calls = []
    evaluate = Expression.eval

    def counted(node, t):
        calls.append(np.size(t))
        return evaluate(node, t)

    monkeypatch.setattr(Expression, "eval", counted)
    band = zero_band_guiding(parse(repr(value)), Interval(-1.0, 1.0))
    assert band.is_empty
    assert len(calls) < 100


def test_newton_solves_mixed_elements_in_one_call():
    # one piecewise F holds every case, each in its own bracket:
    # x^3 on [0, 1] (increasing; F' = 0 at the start 0, and an exact root
    # at the end 1 started there), (3 - x)^2 on [2, 3] (decreasing),
    # 2x + |x - 4.5| on [4, 5] (a kink at the root 4.5) and
    # sign(x - 6.3) with F' = 0 on [6, 7], the derivative of |x - 6.3| as
    # a zero-band dip refines it
    def fn(x):
        return np.select([x < 1.5, x < 3.5, x < 5.5],
                         [x ** 3, (3.0 - x) ** 2, 2.0 * x + np.abs(x - 4.5)],
                         np.sign(x - 6.3))

    def dfn(x):
        return np.select([x < 1.5, x < 3.5, x < 5.5],
                         [3.0 * x ** 2, 2.0 * (x - 3.0),
                          2.0 + np.sign(x - 4.5)], 0.0)

    y = np.array([0.001, 1.0, 0.25, 9.0, 0.0])
    neg = np.array([0.0, 0.0, 3.0, 4.0, 6.0])
    pos = np.array([1.0, 1.0, 2.0, 5.0, 7.0])
    start = np.array([0.0, 1.0, 2.2, 4.0, 6.9])
    roots, steps = _newton(fn, dfn, y, neg, pos, start)
    want = np.array([np.cbrt(0.001), 1.0, 2.5, 4.5, 6.3])
    assert np.all(np.abs(roots - want) <= 2 * np.spacing(want))
    assert roots[1] == 1.0 and steps[1] == 1
    assert roots[3] == 4.5
    assert np.all((steps >= 1) & (steps < gds.NEWTON_MAX_ITER))
    # each element's iteration is its own: solved alone, the same bits
    for k in range(y.size):
        alone = _newton(fn, dfn, y[k:k + 1], neg[k:k + 1], pos[k:k + 1],
                        start[k:k + 1])
        assert (alone[0][0].tobytes(), alone[1][0]) == \
            (roots[k].tobytes(), steps[k])


def test_newton_steps_onto_an_end_it_has_not_visited():
    # F(x) = x on [0, 1] from 0.5 and F(x) = x - 0.5 on [0.5, 1] from 0.75:
    # the first step lands exactly on the root at a bracket end
    roots, steps = _newton(lambda x: x, np.ones_like, np.array([0.0, 0.5]),
                           np.array([0.0, 0.5]), np.array([1.0, 1.0]),
                           np.array([0.5, 0.75]))
    assert roots.tolist() == [0.0, 0.5]
    assert np.all(steps <= 3)


def test_newton_settles_only_into_its_bracket():
    # (x - 0.25)(x - 0.75) = 1e-18 on [0.25, 1] from 0.25: F - y is -1e-18
    # at the start and its sub-ulp Newton step leaves the bracket outwards,
    # towards the root just left of 0.25; the root in the bracket is 0.75
    roots, steps = _newton(lambda x: (x - 0.25) * (x - 0.75),
                           lambda x: 2.0 * x - 1.0, np.array([1e-18]),
                           np.array([0.25]), np.array([1.0]),
                           np.array([0.25]))
    assert abs(roots[0] - 0.75) <= 2 * np.spacing(0.75)


def test_newton_settles_within_an_ulp():
    # x^3 + x = y: each element stops once its Newton step is below one
    # ulp, although its iterate has just become a bracket end
    y = np.linspace(1.01, 3.99, 1000)
    roots, steps = _newton(lambda x: x ** 3 + x, lambda x: 3.0 * x * x + 1.0,
                           y, np.full(y.size, 0.5), np.full(y.size, 1.5),
                           np.ones(y.size))
    lo, hi = np.full(y.size, 0.5), np.full(y.size, 1.5)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mid ** 3 + mid < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert np.all(steps <= 6)
    assert np.all(np.abs(roots - lo) <= 2 * np.spacing(lo))


def test_newton_far_starts_reach_the_root():
    # Newton's global phase is not rounding noise, however its steps grow
    # or shrink: log x = 0 from 0.1 on [0.1, 2] (the second step is longer
    # than the first), atan x = 0 from 1.4 on [-10, 10] (it overshoots to
    # -1.41), and x^3 = 1e-3 from -1 on [-1, 1] and from -0.18 on
    # [-0.18, 0.12] (the steps shrink towards the flat point 0, then grow)
    for fn, dfn, y, neg, pos, start, want in (
            (np.log, np.reciprocal, 0.0, 0.1, 2.0, 0.1, 1.0),
            (np.arctan, lambda x: 1.0 / (1.0 + x * x), 0.0, -10.0, 10.0,
             1.4, 0.0),
            (lambda x: x ** 3, lambda x: 3.0 * x * x, 1e-3, -1.0, 1.0, -1.0,
             0.1),
            (lambda x: x ** 3, lambda x: 3.0 * x * x, 1e-3, -0.18, 0.12,
             -0.18, 0.1)):
        roots, steps = _newton(fn, dfn, np.array([y]), np.array([neg]),
                               np.array([pos]), np.array([start]))
        assert abs(roots[0] - want) <= 1e-15
        assert steps[0] < 20


def _savetxt_bytes(path, columns, header):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return path.read_bytes()


# rows that cross a block boundary of write_csv
_BLOCK_CROSSING = gds._CSV_BLOCK_ROWS + 904
_INT_DTYPES = (np.int64, np.int32, np.uint64)
# 0, 1 and each 10**k - 1, 10**k through one decade past the digit-table
# limit 10**4
_INT_EDGES = [0, 1] + [v for k in range(1, 6) for v in (10 ** k - 1, 10 ** k)]
# per dtype: its extremes; the int64 and uint64 ones round in float64
_INT_EXTREMES = {np.int64: [2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63, -1],
                 np.int32: [2 ** 31 - 1, -2 ** 31, -1, -9999],
                 np.uint64: [2 ** 53 + 1, 2 ** 64 - 1, 2 ** 63]}


def _int_column_cases():
    """Integer columns alone, first, in the middle and last, empty, and
    across a block boundary with the digit-table path taken in one block
    and not in the other."""
    rows = np.arange(_BLOCK_CROSSING)
    past = rows >= gds._CSV_BLOCK_ROWS
    for dtype in _INT_DTYPES:
        edges = np.array(_INT_EDGES, dtype=dtype)
        below = edges[edges < gds._INT_LIMIT]
        extremes = np.array(_INT_EXTREMES[dtype], dtype=dtype)
        floats = np.linspace(-1.0, 1.0, below.size)
        yield [edges], "d"
        yield [extremes, extremes[::-1] % 10], "d,e"
        yield [below, floats, below[::-1]], "d,t,e"
        yield [floats, below, floats ** 3], "t,d,v"
        yield [np.empty(0, dtype=dtype), np.empty(0)], "d,t"
        yield [(rows % 9973).astype(dtype),
               np.where(past, 10 ** 4 + rows, rows % 10).astype(dtype),
               np.where(past, rows % 7, extremes[-1]).astype(dtype),
               np.cos(rows)], "a,b,c,t"


def _many_block_cases():
    """Three whole blocks, the middle one's integers past the digit-table
    limit, and 17 blocks, the last of one row."""
    rows = np.arange(3 * gds._CSV_BLOCK_ROWS)
    middle = (rows >= gds._CSV_BLOCK_ROWS) & (rows < 2 * gds._CSV_BLOCK_ROWS)
    yield [np.where(middle, 10 ** 4 + rows, rows % 10), np.sin(rows)], "d,t"
    rows = np.arange(16 * gds._CSV_BLOCK_ROWS + 1)
    yield [np.where(rows % 5 == 0, 0.0, np.tan(rows) * 1e-3),
           rows % 23], "t,d"


@pytest.mark.parametrize("columns,header", [
    ([np.array([0.1, -0.0, 1e300, 2.0 ** -1074, 3.0])], "t"),
    ([np.linspace(-1.0, 1.0, 11), np.sin(np.arange(11.0))], "t,value"),
    ([np.array([0.5, -0.0, 1.0 / 3.0]), np.array([-1e-17, 7.0, -0.0]),
      np.array([0, 3, 14], dtype=np.int64)], "t,value,depth"),
    ([np.empty(0), np.empty(0), np.empty(0)], "x,y,u"),
    ([np.linspace(-1.0, 1.0, _BLOCK_CROSSING) ** 3,
      np.where(np.arange(_BLOCK_CROSSING) % 7 == 0, -0.0,
               np.exp(np.linspace(-700.0, 700.0, _BLOCK_CROSSING))),
      np.arange(_BLOCK_CROSSING, dtype=np.int64) % 97], "t,value,depth"),
    *_int_column_cases(),
    *_many_block_cases(),
])
def test_write_csv_matches_savetxt(tmp_path, monkeypatch, columns, header):
    # one, two and three formatting threads, whatever the CPU count
    ref = _savetxt_bytes(tmp_path / "ref.csv", columns, header)
    ours = tmp_path / "ours.csv"
    for threads in (1, 2, 3):
        monkeypatch.setattr(gds, "_csv_cpus", lambda: threads)
        write_csv(ours, header, columns)
        assert ours.read_bytes() == ref, threads


def test_write_csv_raises_what_a_worker_raises(tmp_path, monkeypatch):
    # of three threads, worker 1 fails on block 1 while worker 2 is still
    # formatting block 2; both have ended when write_csv raises
    rows = gds._CSV_BLOCK_ROWS
    caller = threading.current_thread()
    format_fields = gds._format_fields

    def fail_on_block_1(x, *args):
        if x[0] == rows and threading.current_thread() is not caller:
            raise ValueError("formatting failed in a worker")
        if x[0] == 2 * rows:
            time.sleep(0.2)
        format_fields(x, *args)

    monkeypatch.setattr(gds, "_csv_cpus", lambda: 3)
    monkeypatch.setattr(gds, "_format_fields", fail_on_block_1)
    before = threading.enumerate()
    with pytest.raises(ValueError, match="failed in a worker"):
        write_csv(tmp_path / "t.csv", "t", [np.arange(5.0 * rows)])
    assert threading.enumerate() == before


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_write_csv_holds_one_block_per_thread(tmp_path, monkeypatch,
                                              threads):
    # while block 0 is held back, at most threads - 1 later blocks are
    # formatted: the memory held stays bounded however long the CSV
    rows = gds._CSV_BLOCK_ROWS
    release = threading.Event()
    formatted = []
    csv_block = gds._csv_block

    def held_back(columns, seps, start):
        if start == 0:
            release.wait(timeout=120)
        out = csv_block(columns, seps, start)
        formatted.append(start)
        return out

    monkeypatch.setattr(gds, "_csv_cpus", lambda: threads)
    monkeypatch.setattr(gds, "_csv_block", held_back)
    columns = [np.arange((2 * threads + 1) * rows, dtype=float)]
    ours = tmp_path / "ours.csv"
    writer = threading.Thread(target=write_csv, args=(ours, "t", columns))
    writer.start()
    try:
        deadline = time.monotonic() + 60
        while len(formatted) < threads - 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)     # time for a block past the bound to show
        held = len(formatted)
    finally:
        release.set()
        writer.join(timeout=120)
    assert not writer.is_alive()
    assert held == threads - 1
    assert ours.read_bytes() == _savetxt_bytes(tmp_path / "ref.csv",
                                               columns, "t")


def test_write_csv_eight_threads_switching_fast(tmp_path, monkeypatch):
    # more threads than CPUs, the GIL handed over every 10 us: a block lost
    # or written out of order changes the bytes, a deadlock outlasts the join
    columns, header = list(_many_block_cases())[-1]
    monkeypatch.setattr(gds, "_csv_cpus", lambda: 8)
    ours = tmp_path / "ours.csv"
    writer = threading.Thread(target=write_csv, args=(ours, header, columns))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer.start()
        writer.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert ours.read_bytes() == _savetxt_bytes(tmp_path / "ref.csv",
                                               columns, header)


def _bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


_POW10_NEIGHBOURS = [np.nextafter(10.0 ** k, side) for k in range(-5, 18)
                     for side in (-np.inf, np.inf)]
# 17-digit ties, rounded half-even: ...345.62|5 -> .62, ...345.37|5 -> .38;
# every odd n / 2**18 in [0.5, 1) has 18 digits ending in 5
_TIES = [123456789012345.625, 123456789012345.375, 987654321098765.125,
         -131073 / 2 ** 18, 262143 / 2 ** 18, 0.75 + 2.0 ** -18]
_FIXED_RANGE = st.floats(1e-4, 1e17, exclude_max=True).flatmap(
    lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                               _FIXED_RANGE.map(lambda v: _bits(v)[0])),
                     min_size=1, max_size=60),
       n_columns=st.integers(1, 3))
@example(bits=_bits(0.0, -0.0, np.nan, np.inf, -np.inf), n_columns=1)
@example(bits=_bits(1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
                    -1e-4), n_columns=2)
@example(bits=_bits(np.nextafter(1e17, 0.0), 2.0 ** -1074, 1e300),
         n_columns=3)
@example(bits=_bits(*_POW10_NEIGHBOURS), n_columns=2)
@example(bits=_bits(*_TIES, 0.5, 0.125, -2.0 ** -13, 3 * 2.0 ** 40),
         n_columns=1)
def test_write_csv_bytes_match_savetxt(tmp_path_factory, bits, n_columns):
    """%.17g text of any float64 bit pattern, in one to three columns."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[:len(values) // n_columns * n_columns]
    columns = list(values.reshape(-1, n_columns).T)
    path = tmp_path_factory.mktemp("csv")
    write_csv(path / "ours.csv", "a,b,c"[:2 * n_columns - 1], columns)
    assert (path / "ours.csv").read_bytes() == _savetxt_bytes(
        path / "ref.csv", columns, "a,b,c"[:2 * n_columns - 1])


@st.composite
def _csv_column(draw, rows):
    """A float64 column of any bits, or an integer column of one of
    _INT_DTYPES whose values lie below the digit-table limit, at it, or
    anywhere in the dtype's range."""
    dtype = draw(st.sampled_from((np.float64,) + _INT_DTYPES))
    if dtype is np.float64:
        bits = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=rows,
                             max_size=rows))
        return np.array(bits, dtype=np.uint64).view(np.float64)
    info = np.iinfo(dtype)
    lo = draw(st.sampled_from([0, int(info.min)]))
    hi = draw(st.sampled_from([gds._INT_LIMIT - 1, gds._INT_LIMIT,
                               int(info.max)]))
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=rows,
                                  max_size=rows)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(0, 40), n_columns=st.integers(1, 3))
def test_write_csv_integer_columns_match_savetxt(tmp_path_factory, data,
                                                 rows, n_columns):
    """%.17g text of int64, int32 and uint64 columns, beside float64
    columns in any position."""
    columns = [data.draw(_csv_column(rows)) for _ in range(n_columns)]
    header = "a,b,c"[:2 * n_columns - 1]
    path = tmp_path_factory.mktemp("csv")
    write_csv(path / "ours.csv", header, columns)
    assert (path / "ours.csv").read_bytes() == _savetxt_bytes(
        path / "ref.csv", columns, header)


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
    # (a system that validation refuses: its guiding sets intersect)
    system = GuidedSystem(Interval(0.0, 1.0), [map_from(parse("t/2"), 0)],
                          guiding=[[(0.0, 1.0)]], validate=False)
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
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_batched_closures_do_not_couple_seeds(turn, seeds, eps, depth, mult,
                                              cap, target):
    # a run that keeps points is not chained: each seed runs to its end
    system = circle_system(turn, 0.5)
    kw = {"target": 1.0 if target else None, "keep_points": True}
    cov, sat, part, hit, _, pts = _closures(system, np.array(seeds), depth,
                                            eps, mult, cap, **kw)
    for k, seed in enumerate(seeds):
        c1, s1, p1, h1, _, (pts1,) = _closures(system, np.array([seed]),
                                               depth, eps, mult, cap, **kw)
        assert (sat[k], part[k], hit[k]) == (s1[0], p1[0], h1[0])
        assert (cov is c1 is None) if target else cov[k] == c1[0]
        assert np.array_equal(pts[k], pts1)


def cell_index_reference(space, x, n_cells):
    """Reference: the cell index the kernel took before its one
    normalization per level; on a circle it normalized x again."""
    if not isinstance(space, CircleSpace):
        return space.cell_index(x, n_cells)
    idx = np.floor(space.normalize(x) / (space.period / n_cells))
    return np.mod(idx.astype(np.int64), n_cells)


def closures_reference(system, seeds, depth, eps, fine_mult, cell_cap,
                       cover=None, target=None, keep_points=False):
    """Reference: the level loop of _closures before its lean level step
    (each generator's images normalized apart, the cell indices
    normalized again, allowed_mask per generator, per-seed cell counts
    every level)."""
    space = system.space
    n_seeds = len(seeds)
    n_fine = space.cell_count(eps / fine_mult)
    n_cov = space.cell_count(eps)
    occ = np.zeros(n_seeds * n_fine, dtype=bool)
    covd = np.zeros(n_seeds * n_cov, dtype=bool)
    cov_count = None if cover is None else np.zeros(n_seeds, dtype=np.int64)
    occ_count = np.zeros(n_seeds, dtype=np.int64)
    hit = np.zeros(n_seeds, dtype=bool)
    partial = np.zeros(n_seeds, dtype=bool)
    active = np.ones(n_seeds, dtype=bool)
    kept = []
    cand = space.normalize(np.asarray(seeds, dtype=float)).astype(float)
    csid = np.arange(n_seeds)
    level = 0
    while True:
        if cover == "retire":
            lin = csid * n_cov + cell_index_reference(space, cand, n_cov)
            fresh = np.unique(lin[~covd[lin]])
            covd[fresh] = True
            cov_count += np.bincount(fresh // n_cov, minlength=n_seeds)
            active &= cov_count < n_cov
        if target is not None:
            hit[csid[space.metric(cand, target) <= eps]] = True
            active &= ~hit
        linf = csid * n_fine + cell_index_reference(space, cand, n_fine)
        ulinf, first = np.unique(linf, return_index=True)
        new = ~occ[ulinf]
        occ[ulinf[new]] = True
        sel = first[new]
        pts, sid = cand[sel], csid[sel]
        if keep_points:
            kept.append((ulinf[new], pts))
        occ_count += np.bincount(sid, minlength=n_seeds)
        over = occ_count > cell_cap
        partial |= over & active
        active &= ~over
        keep = active[sid]
        pts, sid = pts[keep], sid[keep]
        if level >= depth or pts.size == 0:
            break
        outs_p, outs_s = [], []
        for i, gen in enumerate(system.generators):
            mask = system.allowed_mask(i, pts)
            if not np.any(mask):
                continue
            outs_p.append(space.normalize(
                np.asarray(gen(pts[mask]), dtype=float)))
            outs_s.append(sid[mask])
        if not outs_p:
            sid = sid[:0]
            break
        cand, csid = np.concatenate(outs_p), np.concatenate(outs_s)
        level += 1
    in_frontier = np.zeros(n_seeds, dtype=bool)
    in_frontier[sid] = True
    saturated = active & ~in_frontier
    points = None
    if keep_points:
        keys = np.concatenate([k for k, _ in kept])
        order = np.argsort(keys)
        counts = np.bincount(keys // n_fine, minlength=n_seeds)
        points = np.split(np.concatenate([p for _, p in kept])[order],
                          np.cumsum(counts)[:-1])
    return cov_count, saturated, partial, hit, level, points


# circle rotations without and with guiding arcs; a reflection whose
# image of a tiny angle is np.mod(-tiny, 2 pi) = 2 pi, guided by an arc
# across the seam and beside an arc from 0 (the shifts +P and -P); an
# interval system whose images leave [-1, 1] and are clipped
KERNEL_SYSTEMS = {
    "circle unguided": GuidedSystem(CircleSpace(), [
        parse("t + 1"), parse("t + 1.4142135623730951")]),
    "circle arcs": GuidedSystem(CircleSpace(), [
        parse(f"t + {TWO_PI * GOLDEN!r}"), parse(f"t + {TWO_PI * 0.3!r}")],
        guiding=[[(0.5, 0.9), (3.0, 3.0)], [(2.0, 2.4), (5.5, 5.5)]]),
    "circle seam": GuidedSystem(CircleSpace(), [
        parse("-t"), parse("t + 2.3"), parse("t + 1")],
        guiding=[[(6.0, 6.6)], [(0.0, 0.3)], []]),
    "interval clipped": GuidedSystem(Interval(-1.0, 1.0), [
        parse("1.5*t + 0.4"), parse("(t - 1)/2")],
        guiding=[[(-0.2, 0.1)], []], validate=False),
}
# 2 pi / 62.5: 63 eps-cells and 125, 500 and 1000 fine cells, counts at
# which 2 pi / (2 pi / n) rounds below n
SEAM_EPS = TWO_PI / 62.5
# the kernel at width, as `probe` runs it: a seed at each eps-cell's left
# edge (126 at eps 0.05), so every level dedups thousands of candidates
# across seeds; the first two examples below keep points, so no seed is
# chained, and retire all seeds on full coverage at level 22 (unguided)
# and 117 of them before depth 40 (arcs); the other three keep none, so
# seeds also settle by orbit inclusion, as in `probe`'s passes; the last
# runs as `weak-attractor` does, with a target and so without cover
WIDE_UNITS = [k / 126 for k in range(126)]


@given(st.sampled_from(sorted(KERNEL_SYSTEMS)),
       st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                          st.sampled_from([-1e-300, 1e-300])),
                min_size=1, max_size=6),
       st.sampled_from([0.05, 0.02, SEAM_EPS]), st.integers(0, 300),
       st.sampled_from([2, 8, 16]), st.sampled_from([0, 40, 500_000]),
       st.booleans(), st.booleans())
@example("circle seam", [-1e-300, 1e-300], SEAM_EPS, 3, 8, 500_000, False,
         True)
@example("circle seam", [0.3], SEAM_EPS, 300, 8, 500_000, False, True)
@example("circle unguided", WIDE_UNITS, 0.05, 30, 16, 500_000, False, True)
@example("circle arcs", WIDE_UNITS, 0.05, 40, 16, 500_000, False, True)
@example("circle arcs", WIDE_UNITS, 0.05, 20, 16, 150, False, False)
@example("circle unguided", WIDE_UNITS, 0.05, 3, 16, 500_000, False, False)
@example("circle arcs", WIDE_UNITS, 0.05, 40, 16, 500_000, True, False)
@settings(max_examples=150, deadline=None)
def test_closures_match_reference(name, units, eps, depth, mult, cap,
                                  target, keep_points):
    system = KERNEL_SYSTEMS[name]
    space = system.space
    # a unit in [0, 1) names a point of the space; +-1e-300 stay as given
    seeds = np.array([u if abs(u) < 1e-200 else
                      (space.a + u * space.length
                       if isinstance(space, Interval) else u * space.period)
                      for u in units])
    kw = {"target": 0.5 if target else None, "keep_points": keep_points}
    found = []

    def spy_roots(links):
        found.append(links)
        return _roots(links)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gds, "_roots", spy_roots)
        got = _closures(system, seeds, depth, eps, mult, cap, **kw)
    want = closures_reference(system, seeds, depth, eps, mult, cap,
                              cover=None if target else "retire", **kw)
    if chains(seeds, kw):
        # a seed that links runs no further and takes its root's outcome;
        # a root runs to its own end as in the reference
        root = _roots(found.pop())
        assert got[4] <= want[4]
        want = (*(None if w is None else w[root] for w in want[:4]),
                got[4], want[5])
    assert not found
    assert_same_closures(got, want)


def assert_same_closures(got, want):
    for g, w in zip(got[:4], want[:4]):
        assert g is w is None or np.array_equal(g, w)
    assert got[4] == want[4]
    if want[5] is None:
        assert got[5] is None
    else:
        assert len(got[5]) == len(want[5])
        assert all(np.array_equal(g, w) for g, w in zip(got[5], want[5]))


def payload_update(i, p, v):
    return 0.5 * v + p - i


@given(st.sampled_from(sorted(KERNEL_SYSTEMS)),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                max_size=4),
       st.booleans(), st.integers(0, 40), st.sampled_from([2, 8]),
       st.sampled_from([1, 40, 500_000]))
@example("circle arcs", [0.1, 0.6], True, 40, 8, 500_000)
@example("interval clipped", [0.2, 0.7, 0.95], False, 20, 2, 40)
@settings(max_examples=80, deadline=None)
def test_closures_payload_replays_its_claims(name, units, one_seed, depth,
                                             mult, cap):
    # a payload run claims what a keep_points run claims for each seed
    # that does not cover (a payload run counts no coverage, so covers
    # nothing), and each claim is its generator's image of its parent,
    # with the updated value
    system = KERNEL_SYSTEMS[name]
    space = system.space
    starts = np.array([space.a + u * space.length
                       if isinstance(space, Interval) else u * space.period
                       for u in units])
    seeds = starts[None, :] if one_seed else starts
    eps = 0.05
    got = _closures(system, seeds, depth, eps, mult, cap,
                    payload=(-starts, payload_update))
    want = _closures(system, seeds, depth, eps, mult, cap, keep_points=True)
    # each claim's seed, carried as its value
    seed_of = _closures(system, seeds, depth, eps, mult, cap, payload=(
        np.arange(len(seeds)).repeat(starts.size // len(seeds)),
        lambda i, p, v: v))[5][0][1]
    open_ = want[0] < space.cell_count(eps)
    assert got[0] is None
    for g, w in zip(got[1:4], want[1:4]):
        assert np.array_equal(g[open_], w[open_])
    assert got[4] == want[4] if open_.all() else got[4] >= want[4]
    (pts, vals, levels, parents, gens), (owners, lpts, lvals, llevels) = \
        got[5]
    for k in np.flatnonzero(open_):
        assert np.array_equal(pts[seed_of == k], want[5][k])
    root = parents < 0
    assert np.array_equal(root, gens < 0) and np.array_equal(root,
                                                             levels == 0)
    assert set(zip(pts[root], vals[root])) <= set(
        zip(space.normalize(starts), -starts))
    for i, gen in enumerate(system.generators):
        kids = np.flatnonzero(gens == i)
        src = parents[kids]
        assert np.all(system.allowed_mask(i, pts[src]))
        assert np.array_equal(pts[kids], space.normalize(
            np.asarray(gen(pts[src]), dtype=float)))
        assert np.array_equal(vals[kids],
                              payload_update(i, pts[src], vals[src]))
        assert np.array_equal(levels[kids], levels[src] + 1)
    # a loser shares its owner's fine cell, and comes no earlier
    n_fine = space.cell_count(eps / mult)
    assert np.array_equal(space.cell_index(lpts, n_fine),
                          space.cell_index(pts[owners], n_fine))
    assert np.all(llevels >= levels[owners])
    assert np.all(np.diff(llevels) >= 0)


INT64_ENDS = [-2 ** 63, 2 ** 63 - 1]


@given(st.lists(st.tuples(st.one_of(st.integers(-5, 20),
                                    st.sampled_from(INT64_ENDS)),
                          st.booleans()), max_size=60))
@example([])
@example([(3, True)])
@example([(3, False)])
@example([(4, False), (1, False), (4, False)])   # every key taken
@example([(7, True)] * 5)                        # all one key
@example([(7, False), (7, True), (7, True)])
@settings(max_examples=300, deadline=None)
def test_dedup_helpers_match_numpy_unique(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    free = np.array([f for _, f in pairs], dtype=bool)
    before = keys.copy()
    got = _distinct(keys)
    assert got.dtype == np.int64 and np.array_equal(got, np.unique(keys))
    claims = _first_claims(keys, free)
    cells, first = np.unique(keys[free], return_index=True)
    assert np.array_equal(claims, np.flatnonzero(free)[first])
    assert np.array_equal(keys[claims], cells)
    assert np.array_equal(keys, before)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
def test_step_rule_matches_distance(data, tol):
    space, gset = data.draw(unions())
    # the system holds the guiding set as the kernel sees it: on a
    # circle, arcs moved to start in [0, 2 pi)
    system = GuidedSystem(space, [parse("t")], [gset], tol_lambda=tol,
                          validate=False)
    lam = system.guiding[0]
    rule = _step_rule(lam, space, tol)
    ends = np.ravel(lam.intervals)
    near = np.r_[ends, ends - tol, ends + tol]
    x = np.r_[near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf),
              -1e-300, 0.0, space.length, -1.0, 1.0, np.nan]
    x = space.normalize(x)
    if isinstance(space, CircleSpace):
        x = np.r_[x, space.period]   # np.mod(-1e-300, P) gives P too
    want = lam.distance(x, space) > tol
    if rule is None:
        assert lam.is_empty and want.all()
    else:
        assert np.array_equal(rule(x), want)
    # allowed_mask answers from the same rule for points not normalized:
    # the set's own ends, +-inf, beyond an interval's ends, and angles
    # below 0 and above P on a circle
    lo, hi = (0.0, TWO_PI) if isinstance(space, CircleSpace) else (-1.0, 1.0)
    raw = np.r_[near, np.ravel(gset.intervals), lo - 0.5, hi + 0.5,
                lo - 1e-300, hi + 1e-12, lo - TWO_PI - 1.0, hi + 7.0,
                np.inf, -np.inf, np.nan]
    with np.errstate(invalid="ignore"):
        want = lam.distance(raw, space) > tol
    assert np.array_equal(system.allowed_mask(0, raw), want)


def test_circle_cell_index_puts_the_seam_point_in_cell_zero():
    # x = P (np.mod of a tiny negative angle) is the angle 0; P / (P / n)
    # rounds below n for some n (25 and 63 for 2 pi)
    rng = np.random.default_rng(3)
    for period in (TWO_PI, 1.0, 7.3):
        space = CircleSpace(period)
        x = np.r_[0.0, rng.uniform(0.0, period, 200), period]
        for n in range(1, 400):
            got = space.cell_index(x, n)
            assert got[0] == got[-1] == 0
            assert np.array_equal(got, cell_index_reference(space, x, n))


def test_guided_system_rejects_tol_lambda_not_finite_nonnegative():
    for value in (math.nan, math.inf, -1e-12):
        with pytest.raises(ValueError, match="tol_lambda"):
            GuidedSystem(Interval(-1.0, 1.0), [parse("t/2")],
                         tol_lambda=value)


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
            result = _witness_intervals(space, pts, pad)
            assert tuple(map(tuple, result.tolist())) == \
                witness_intervals_loop(space, pts, pad)


# --------------------------------------------------------------------------
# witness validation and orbit graphs against per-interval loops
# --------------------------------------------------------------------------

# increasing, decreasing and non-monotone maps of [-1, 1] and of the
# circle, plus images of zero width and images 1.5 tau wide that straddle
# a cell edge at 2 cells (tau = 1e-9 of a cell width)
INTERVAL_MAPS = ("(t+1)/2", "(t-1)/2", "-0.5*t + 0.2", "0.5 + 0.4*cos(3*t)",
                 "t^2 - 0.5", "0.5", "1.5e-9*(t - 0.5)")
CIRCLE_MAPS = ("t + 1.5707963267948966", "t + 1", "-t + 0.5",
               "t + 2*sin(t) + 7", "sin(t) + 15", "t + 0.3*sin(2*t)", "2*t",
               "5*t", "0.5", "1.5e-9*(t - 4.71238898038469)")


def covers_interval_loop(gset, lo, hi, space, tol):
    """Reference: the member loop of GuidingSet.covers_interval, at the
    circle shifts GuidingSet.distance applies."""
    shifts = ((-space.period, 0.0, space.period)
              if isinstance(space, CircleSpace) else (0.0,))
    return any(glo - tol <= lo + k and hi + k <= ghi + tol
               for glo, ghi in gset.intervals for k in shifts)


def arc_inside_loop(space, s_lo, s_hi, w_lo, w_hi, tol):
    if isinstance(space, CircleSpace):
        for k in (-space.period, 0.0, space.period):
            if w_lo - tol <= s_lo + k and s_hi + k <= w_hi + tol:
                return True
        return False
    return w_lo - tol <= s_lo and s_hi <= w_hi + tol


def image_loop(space, gen, lo, hi, samples):
    if gen.monotone is not None:
        e1, e2 = _scalar(gen, lo), _scalar(gen, hi)
        img_lo, img_hi = min(e1, e2), max(e1, e2)
    else:
        img = np.asarray(gen(np.linspace(lo, hi, samples)), dtype=float)
        img_lo, img_hi = float(img.min()), float(img.max())
    return img_lo, img_hi


def image_inside_loop(system, gen, lo, hi, intervals):
    space = system.space
    img_lo, img_hi = image_loop(space, gen, lo, hi, 33)
    if isinstance(space, CircleSpace):
        span = img_hi - img_lo
        start = float(space.normalize(np.array([img_lo]))[0])
        img_lo, img_hi = start, start + span
    return any(arc_inside_loop(space, img_lo, img_hi, wlo, whi,
                               gds.TOL_STEP) for wlo, whi in intervals)


def validate_witness_loop(system, intervals):
    """Reference: the per-interval, per-member loop the vectorized
    _validate_witness replaced."""
    for lo, hi in intervals:
        for i, gen in enumerate(system.generators):
            if covers_interval_loop(system.guiding[i], lo, hi, system.space,
                                    system.tol_lambda):
                continue
            if not image_inside_loop(system, gen, lo, hi, intervals):
                return False
    return True


def cells_overlapping_loop(space, ilo, ihi, cells, w, lo0, tau):
    if isinstance(space, CircleSpace):
        if ihi - ilo >= space.period:
            return list(range(cells))
        start = float(space.normalize(np.array([ilo]))[0])
        span = ihi - ilo
        ilo, ihi = start, start + span
    if ihi - ilo <= 2 * tau:
        k = int(math.floor((0.5 * (ilo + ihi) - lo0) / w))
        return [k % cells if isinstance(space, CircleSpace)
                else min(max(k, 0), cells - 1)]
    jlo = int(math.floor((ilo - lo0 + tau) / w))
    jhi = int(math.floor((ihi - lo0 - tau) / w))
    ks = range(jlo, jhi + 1)
    if isinstance(space, CircleSpace):
        return [k % cells for k in ks]
    return [min(max(k, 0), cells - 1) for k in ks]


def build_orbit_graph_loop(system, cells):
    """Reference: the per-cell loops the vectorized build_orbit_graph
    replaced, returning (edges, approximate)."""
    space = system.space
    rows = []
    if isinstance(space, FiniteGraphSpace):
        for i, gen in enumerate(system.generators):
            for v in range(space.n_nodes):
                if system.guiding[i].distance(float(v), space)[0] \
                        > system.tol_lambda:
                    rows.append((v, int(gen.table[v]), i))
        return np.array(rows, dtype=np.int64).reshape(-1, 3), False
    w = space.length / cells
    lo0 = space.a if isinstance(space, Interval) else 0.0
    tau = w * 1e-9
    approx = False
    for i, gen in enumerate(system.generators):
        for c in range(cells):
            clo, chi = lo0 + c * w, lo0 + (c + 1) * w
            if covers_interval_loop(system.guiding[i], clo, chi, space,
                                    system.tol_lambda):
                continue
            approx = approx or gen.monotone is None
            ilo, ihi = image_loop(space, gen, clo, chi, 9)
            for dst in cells_overlapping_loop(space, ilo, ihi, cells, w,
                                              lo0, tau):
                rows.append((c, dst, i))
    return np.array(rows, dtype=np.int64).reshape(-1, 3), approx


@st.composite
def guided_cases(draw):
    """A space, one or two generators, and a guiding set on the first:
    up to three intervals, some nested or overlapping, some across the
    circle seam. A nonempty guiding set comes with a second generator:
    with one, it would be the common intersection, which must be empty."""
    circle = draw(st.booleans())
    space = CircleSpace() if circle else Interval(-1.0, 1.0)
    lo, hi = (0.0, TWO_PI) if circle else (-1.0, 1.0)
    names = list(CIRCLE_MAPS if circle else INTERVAL_MAPS)
    if circle:
        angle = draw(st.integers(0, 10 ** 6)) * 2e-5
        names.append(f"t + {angle!r}")
    srcs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2,
                         unique=True))
    ivs = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.floats(lo - 0.5, hi + 0.5))
        ivs.append((a, a + draw(st.floats(0.0, 1.5))))
    if ivs and draw(st.booleans()):
        a, b = ivs[0]
        ivs.append((a + 0.25 * (b - a), a + 0.5 * (b - a)))
    if ivs and len(srcs) == 1:
        srcs.append(draw(st.sampled_from([n for n in names if n != srcs[0]])))
    guiding = [ivs] + [[]] * (len(srcs) - 1)
    return GuidedSystem(space, [map_from(parse(src), k)
                                for k, src in enumerate(srcs)], guiding)


@settings(max_examples=150, deadline=None)
@given(guided_cases(), st.data())
def test_validate_witness_matches_loop(system, data):
    space = system.space
    lo, hi = (0.0, TWO_PI) if isinstance(space, CircleSpace) else (-1.0, 1.0)
    kind = data.draw(st.sampled_from(["random", "seam", "orbit", "dense"]))
    if kind == "orbit":
        # a rational rotation orbit: forward-closed under t + pi/2
        x0 = data.draw(st.floats(lo, hi - 1e-3))
        pts = np.mod(x0 + TWO_PI / 4 * np.arange(4), TWO_PI) \
            if isinstance(space, CircleSpace) else np.array([x0])
    elif kind == "dense":
        # at the wider pads, one interval covering the whole space
        pts = np.linspace(lo, hi, 30, endpoint=False)
    else:
        pts = np.array(data.draw(st.lists(st.floats(lo, hi - 1e-3),
                                          min_size=1, max_size=25)))
        if kind == "seam":
            # pads reaching past both ends merge across the circle seam
            pts = np.r_[pts, lo + 1e-4, hi - 1e-4]
    pad = data.draw(st.sampled_from([system.tol_lambda, 0.0025, 0.05, 0.3]))
    witness = _witness_intervals(space, pts, pad)
    guide = data.draw(st.sampled_from(["as drawn", "some", "escaping"]))
    if guide != "as drawn":
        # guide the first generator off some witness intervals exactly, or
        # off those it maps out of the witness (which then validates when
        # it is the only generator). The generators were validated above;
        # the guided system is not, since one guided generator has a
        # nonempty common intersection.
        ivs = tuple(map(tuple, witness.tolist()))
        gen = system.generators[0]
        picked = data.draw(st.lists(st.sampled_from(ivs), max_size=3)) \
            if guide == "some" else \
            [iv for iv in ivs if not image_inside_loop(system, gen, *iv, ivs)]
        guiding = [picked] + [[]] * (system.n_generators - 1)
        system = GuidedSystem(space, system.generators, guiding,
                              validate=False)
    assert _validate_witness(system, witness) == \
        validate_witness_loop(system, tuple(map(tuple, witness.tolist())))


@settings(max_examples=100, deadline=None)
@given(guided_cases(), st.data())
def test_interval_images_match_scalar_loop(system, data):
    # the images carry the floats of one endpoint or linspace call per
    # interval, bit for bit
    space = system.space
    lo, hi = (0.0, TWO_PI) if isinstance(space, CircleSpace) else (-1.0, 1.0)
    a = np.array(data.draw(st.lists(st.floats(lo - 0.01, hi), min_size=1,
                                    max_size=20)))
    b = a + np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=a.size,
                                        max_size=a.size)))
    for gen in system.generators:
        for samples in (9, 33):
            got = _interval_images(space, gen, a, b, samples)
            want = [image_loop(space, gen, x, y, samples)
                    for x, y in zip(a.tolist(), b.tolist())]
            span = [y - x for x, y in want]
            if isinstance(space, CircleSpace):
                want = [(float(np.mod(x, space.period)),
                         float(np.mod(x, space.period)) + d)
                        for (x, _), d in zip(want, span)]
            assert got[0].tolist() == [x for x, _ in want]
            assert got[1].tolist() == [y for _, y in want]
            assert got[2].tolist() == span


def test_interval_images_sample_the_interval_end():
    # lo + 8 * ((hi - lo) / 8) is one ulp below hi here, and t^2 - 0.5
    # takes its max at hi
    system = GuidedSystem(Interval(-1.0, 1.0), [parse("t^2 - 0.5")])
    lo, hi = -0.18672976079972758, 0.9127555772777217
    _, img_hi, _ = _interval_images(system.space, system.generators[0],
                                    np.array([lo]), np.array([hi]), 9)
    assert img_hi.tolist() == [hi * hi - 0.5]


@settings(max_examples=150, deadline=None)
@given(guided_cases(), st.sampled_from([2, 3, 7, 64, 1000]))
def test_build_orbit_graph_matches_loop(system, cells):
    graph = build_orbit_graph(system, cells)
    edges, approx = build_orbit_graph_loop(system, cells)
    assert np.array_equal(graph.edges, edges)
    assert graph.edges.dtype == np.int64
    assert graph.approximate == approx


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_build_orbit_graph_matches_loop_on_graphs(data):
    n = data.draw(st.integers(1, 12))
    tables = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                         max_size=n), min_size=1, max_size=3))
    guiding = [GuidingSet.points(data.draw(st.lists(st.integers(0, n - 1),
                                                    max_size=n)))
               for _ in tables]
    guiding[-1] = GuidingSet.empty()
    system = GuidedSystem(FiniteGraphSpace(n),
                          [GeneratorMap(None, table=t, label=k)
                           for k, t in enumerate(tables)], guiding)
    graph = build_orbit_graph(system, n)
    edges, _ = build_orbit_graph_loop(system, n)
    assert np.array_equal(graph.edges, edges)
    assert not graph.approximate


def range_cover_defect_loop(system):
    """Reference: the per-range loops the shared image rule and
    GuidingSet.distance replaced."""
    space = system.space
    ends = (space.a, space.b) if isinstance(space, Interval) \
        else (0.0, space.period)
    arcs = []
    for gen in system.generators:
        if gen.monotone is not None:
            arcs.append(image_loop(space, gen, *ends, 2))
        else:
            img = np.asarray(gen(space.grid(4097)), dtype=float)
            arcs.append((float(img.min()), float(img.max())))
    if isinstance(space, CircleSpace):
        if any(hi - lo >= space.period for lo, hi in arcs):
            return 0.0
        arcs = [(float(np.mod(lo, space.period)),
                 float(np.mod(lo, space.period)) + (hi - lo))
                for lo, hi in arcs]
        pts = space.grid(4096)
        best = np.full(pts.shape, np.inf)
        for lo, hi in arcs:
            for k in (-space.period, 0.0, space.period):
                d = np.maximum(np.maximum(lo - (pts + k), (pts + k) - hi),
                               0.0)
                best = np.minimum(best, d)
        return float(best.max())
    arcs.sort()
    gap = max(arcs[0][0] - space.a, 0.0)
    reach = arcs[0][1]
    for lo, hi in arcs[1:]:
        gap = max(gap, lo - reach)
        reach = max(reach, hi)
    return float(max(gap, space.b - reach, 0.0))


@settings(max_examples=100, deadline=None)
@given(guided_cases())
def test_range_cover_defect_matches_loop(system):
    assert _range_cover_defect(system) == range_cover_defect_loop(system)


def two_rotations(guiding):
    return GuidedSystem(CircleSpace(), [parse("t + 1"), parse("t + 2")],
                        guiding)


def test_circle_arcs_are_matched_modulo_the_period():
    # [13, 13.5] is [13 - 4 pi, 13.5 - 4 pi] on the circle
    system = two_rotations([[(13.0, 13.5)], []])
    (lo, hi), = system.guiding[0].intervals
    assert lo == pytest.approx(13.0 - 2 * TWO_PI, abs=1e-14)
    assert hi - lo == 0.5
    assert allowed_generators(system, 0.5) == (1,)
    assert allowed_generators(system, 0.4) == (0, 1)
    # an arc as long as the circle is the whole circle
    system = two_rotations([[(-1.0, TWO_PI - 1.0)], []])
    assert system.guiding[0].intervals == ((0.0, TWO_PI),)
    assert not system.allowed_mask(0, np.linspace(0.0, 20.0, 101)).any()


def test_bare_circle_set_measures_arcs_modulo_the_period():
    # [14, 14.5] starts beyond [-P, 2P): it is [14 - 4 pi, 14.5 - 4 pi]
    lam = GuidingSet([(14.0, 14.5)])
    assert lam.distance(14.2 - 2 * TWO_PI, CircleSpace())[0] == 0.0
    assert lam.distance(14.0 - 2 * TWO_PI - 0.5, CircleSpace())[0] == \
        pytest.approx(0.5)


def test_circle_arcs_in_range_are_kept():
    g = [GuidingSet([(0.0, 1.0), (TWO_PI - 0.3, TWO_PI + 0.3)]),
         GuidingSet.points([2.0, 3.0])]
    system = two_rotations(g)
    assert system.guiding[0] is g[0] and system.guiding[1] is g[1]


@pytest.mark.parametrize("arcs", [
    [(0.0, 1.0), (TWO_PI, TWO_PI + 1.0)],              # one arc, 2 spellings
    [(TWO_PI - 0.5, TWO_PI + 0.5), (-0.2, -0.1)],      # across the seam
    [(TWO_PI - 0.5, TWO_PI + 0.5), (0.2, 0.3)],
    [(TWO_PI - 0.5, TWO_PI), (0.0, 0.1)],              # meet at 0 = 2 pi
    [(13.0, 13.5), (0.5, 0.6)],                        # two turns up
    [(-20.0, -19.0), (-1.0, 20.0)],                    # the whole circle
])
def test_circle_guiding_intersection_is_taken_modulo_the_period(arcs):
    with pytest.raises(ValueError, match="intersect"):
        two_rotations([[arcs[0]], [arcs[1]]])


def test_circle_guiding_across_the_seam_apart_is_accepted():
    system = two_rotations([[(TWO_PI - 0.5, TWO_PI + 0.5)], [(1.0, 2.0)]])
    assert allowed_generators(system, 0.25) == (1,)
    assert allowed_generators(system, 1.5) == (0,)
    assert allowed_generators(system, 3.0) == (0, 1)


def test_covers_interval_sees_the_circle_seam():
    # the same guiding arc written across the seam and below 0: both
    # spellings skip the six cells inside it, where allowed_mask forbids
    # the quarter rotation, and validate the same witnesses (an unguided
    # second rotation keeps the common intersection of the guiding sets
    # empty)
    systems = [GuidedSystem(CircleSpace(), [parse("t + 1.5707963267948966"),
                                            parse("t + 1")], [[arc], []])
               for arc in ((TWO_PI - 0.3, TWO_PI + 0.3), (-0.3, 0.3))]
    graphs = [build_orbit_graph(s, 64) for s in systems]
    assert np.array_equal(graphs[0].edges, graphs[1].edges)
    quarter_edges = graphs[0].edges[graphs[0].edges[:, 2] == 0]
    assert sorted(set(range(64)) - set(quarter_edges[:, 0].tolist())) == \
        [0, 1, 2, 61, 62, 63]
    for system in systems:
        assert not system.allowed_mask(0, np.array([0.0, 0.25, TWO_PI - 0.25
                                                    ])).any()
    quarter = TWO_PI / 4 * np.arange(4)
    for pts in (quarter, np.r_[quarter, 0.1], np.r_[quarter, 1.0]):
        witness = _witness_intervals(systems[0].space, pts, 0.02)
        results = {_validate_witness(s, witness) for s in systems}
        assert len(results) == 1
    assert systems[0].guiding[0].covers_interval(0.0, 0.2, systems[0].space)


# --------------------------------------------------------------------------
# sorted unions of closed intervals: the prefix lookup and the merge
# against the rules they replaced
# --------------------------------------------------------------------------

def broadcast_distance(gset, x, space):
    """Reference: the point-by-member broadcast GuidingSet.distance
    replaced, against the arcs as _circle_arcs moves them on a circle."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if gset.is_empty:
        return np.full(x.shape, np.inf)
    if isinstance(space, CircleSpace):
        gset = _circle_arcs(gset, space.period)
    lo = np.array([iv[0] for iv in gset.intervals])[None, :]
    hi = np.array([iv[1] for iv in gset.intervals])[None, :]
    shifts = (0.0,)
    if isinstance(space, CircleSpace):
        x, shifts = space.normalize(x), (-space.period, 0.0, space.period)
    best = np.full(x.shape, np.inf)
    for k in shifts:
        xc = x[:, None] + k
        d = np.maximum(np.maximum(lo - xc, xc - hi), 0.0)
        best = np.minimum(best, d.min(axis=1))
    return best


@st.composite
def unions(draw):
    """A space and 0 to 6 members: overlapping, nested, points, equal left
    ends, across the circle seam and outside the space."""
    circle = draw(st.booleans())
    space = CircleSpace() if circle else Interval(-1.0, 1.0)
    lo, hi = (0.0, TWO_PI) if circle else (-1.0, 1.0)
    ivs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "point", "same start", "nested",
                                     "seam", "outside"]))
        a = draw(st.floats(lo, hi))
        w = draw(st.floats(0.0, 1.5))
        if kind == "point":
            w = 0.0
        elif kind in ("same start", "nested") and ivs:
            a0, b0 = ivs[draw(st.integers(0, len(ivs) - 1))]
            a = a0 if kind == "same start" else a0 + draw(
                st.floats(0.0, 1.0)) * (b0 - a0)
            w = min(w, b0 - a) if kind == "nested" else w
        elif kind == "seam":
            a = hi - w / 2
        elif kind == "outside":
            a = draw(st.sampled_from([lo - 3.0, hi + 0.5, hi + 7.0]))
        ivs.append((a, a + w))
    return space, GuidingSet(ivs)


@settings(max_examples=300, deadline=None)
@given(unions(), st.lists(st.floats(-20.0, 20.0), max_size=8))
def test_distance_matches_broadcast(case, free):
    space, gset = case
    lo, hi = (0.0, TWO_PI) if isinstance(space, CircleSpace) else (-1.0, 1.0)
    ends = np.ravel(gset.intervals)
    # x = +-inf lies inf away on an interval (NaN on a circle, where it
    # has no angle); NaN stays NaN
    x = np.r_[ends, ends - 1e-9, ends + 1e-9, 0.0, -0.0, lo, hi, lo - 0.5,
              hi + 0.5, hi + 1.0, lo - TWO_PI - 1.0, np.inf, -np.inf,
              np.nan, free]
    with np.errstate(invalid="ignore"):
        got, want = gset.distance(x, space), broadcast_distance(gset, x, space)
    assert np.array_equal(got, want, equal_nan=True)
    # a zero distance is +0.0, also at x = -0.0
    assert not np.signbit(got[got == 0.0]).any()


def test_distance_at_negative_zero_is_positive_zero():
    # the member ends at x, so x - reach is -0.0 - 0.0 = -0.0
    for space in (Interval(-1.0, 1.0), CircleSpace()):
        d = GuidingSet([(-0.5, 0.0)]).distance(np.array([-0.0, 0.0]), space)
        assert d.tolist() == [0.0, 0.0] and not np.signbit(d).any()


def pad_merge_reference(pts, pad):
    """Reference: the merge of sorted pads in _witness_intervals that
    _merge_intervals replaced."""
    pts = np.sort(pts)
    lo, hi = pts - pad, pts + pad
    start = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1] + 1e-15])
    end = np.r_[start[1:] - 1, pts.size - 1]
    return lo[start], hi[end]


def band_merge_reference(lo, hi, slack):
    """Reference: the band merge at the end of zero_band_guiding."""
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi) + slack
    heads = np.flatnonzero(lo > np.r_[-np.inf, reach[:-1]])
    return lo[heads], np.maximum.reduceat(hi, heads)


def gap_sweep_reference(lo, hi, a, b):
    """Reference: the widest gap of [a, b] left by the ranges, from the
    running-max sweep of _range_cover_defect on an interval."""
    order = np.argsort(lo, kind="stable")
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    return float(np.max(np.r_[lo[0] - a, lo[1:] - reach[:-1],
                              b - reach[-1], 0.0]))


# ends on a 1/16 grid touch, nest and repeat; free ends do not
interval_ends = st.one_of(st.integers(-20, 20).map(lambda k: k / 16),
                          st.floats(-1.25, 1.25))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(interval_ends, interval_ends), min_size=1,
                max_size=12),
       st.sampled_from([0.0, 1e-15, 2.0 ** -12 * 1e-6, 1e-3]))
def test_merge_intervals_matches_the_merges_it_replaced(pairs, slack):
    lo, hi = np.array(sorted((min(p), max(p)) for p in pairs)).T
    rng = np.random.default_rng(len(pairs))
    shuffled = rng.permutation(lo.size)
    m_lo, m_hi = _merge_intervals(lo[shuffled], hi[shuffled], slack)
    r_lo, r_hi = band_merge_reference(lo, hi, slack)
    assert np.array_equal(m_lo, r_lo) and np.array_equal(m_hi, r_hi)
    # sorted and disjoint beyond the slack
    assert np.all(m_lo[1:] > m_hi[:-1] + slack)
    assert np.all(m_lo <= m_hi)
    # the gaps between the members are the sweep's positive gaps
    m_lo, m_hi = _merge_intervals(lo, hi, 0.0)
    assert float(np.max(np.r_[m_lo[0] + 1.0, m_lo[1:] - m_hi[:-1],
                              1.0 - m_hi[-1], 0.0])) == \
        gap_sweep_reference(lo, hi, -1.0, 1.0)
    # pads of one width around points, unsorted
    for pad in (1e-9, 1.0 / 32, 0.1):
        got = _merge_intervals(lo - pad, lo + pad, 1e-15)
        want = pad_merge_reference(lo, pad)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
