import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compute_g_n
from guided_dynamics.errors import HypothesisFailure, MapEscape, NotCertified
from guided_dynamics.exprlang import parse
from guided_dynamics.funceq import (ContractionCertificate,
                                    ContractionFailure, FunceqSystem,
                                    GridFunction, apply_operator,
                                    certify_contraction, grid_nodes,
                                    interp_weights, solve_neumann)
from guided_dynamics.gds import CircleSpace, Interval

IV = Interval(-1.0, 1.0)


# --------------------------------------------------------------------------
# grid functions
# --------------------------------------------------------------------------

def test_grid_function_roundtrip_csv(tmp_path):
    f = GridFunction.from_callable(IV, 64, lambda t: t ** 3 - t)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = GridFunction.from_csv(path, IV)
    assert np.array_equal(f.values, g.values)
    assert g.domain.a == -1.0 and g.domain.b == 1.0


def test_grid_function_csv_roundtrip_is_bit_exact(tmp_path):
    # magnitudes 1e-8 .. 1e19 of both signs and signed zeros, so both
    # fixed and exponent notation; 2**14 + 65 nodes cross a block boundary
    # of write_csv
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(2 ** 14 + 65) * 10.0 ** rng.integers(
        -8, 20, 2 ** 14 + 65)
    vals[::97], vals[1::97] = 0.0, -0.0
    f = GridFunction(IV, vals)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = GridFunction.from_csv(path, IV)
    assert np.array_equal(f.values.view(np.uint64), g.values.view(np.uint64))


def test_grid_function_clamps_and_errors():
    f = GridFunction.from_callable(IV, 16, lambda t: t)
    assert f.eval(1.0 + 1e-12) == 1.0
    with pytest.raises(Exception):
        f.eval(1.5)


def test_grid_function_circle_wraps():
    circ = CircleSpace()
    f = GridFunction.from_callable(circ, 128, lambda t: np.cos(t))
    assert f.eval(2 * math.pi + 0.3) == pytest.approx(f.eval(0.3), abs=1e-15)


# --------------------------------------------------------------------------
# the operator
# --------------------------------------------------------------------------

def test_apply_operator_linear(quarter_coeff_system):
    f = GridFunction.from_callable(IV, 128, lambda t: t)
    out = apply_operator(quarter_coeff_system, f)
    assert np.max(np.abs(out.values - out.nodes / 4.0)) == 0.0


def test_apply_operator_constant(quarter_coeff_system):
    f = GridFunction(IV, np.ones(129))
    out = apply_operator(quarter_coeff_system, f)
    assert np.max(np.abs(out.values - 0.5)) == 0.0


def test_apply_operator_quadratic(quarter_coeff_system):
    M = 128
    f = GridFunction.from_callable(IV, M, lambda t: t * t)
    out = apply_operator(quarter_coeff_system, f)
    expected = (out.nodes ** 2 + 1.0) / 8.0
    # images of even nodes are grid nodes (exact); odd nodes interpolate
    assert np.max(np.abs(out.values[::2] - expected[::2])) < 1e-15
    step = 2.0 / M
    assert np.max(np.abs(out.values - expected)) < step ** 2


def test_apply_operator_positivity(quarter_coeff_system):
    rng = np.random.default_rng(3)
    f = GridFunction(IV, rng.uniform(0.0, 1.0, 129))
    out = apply_operator(quarter_coeff_system, f)
    assert np.min(out.values) >= 0.0


def test_operator_norm_matches_g1(quarter_coeff_system):
    # ||A f|| <= ||A 1|| for every ||f|| <= 1 (positive operator norm)
    g1 = compute_g_n(quarter_coeff_system, 1, M=256)
    bound = float(np.max(g1.values))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        f = GridFunction(IV, rng.uniform(-1.0, 1.0, 257))
        out = apply_operator(quarter_coeff_system, f)
        worst = max(worst, np.max(np.abs(out.values)))
    assert worst <= bound + 1e-12


def test_map_escape_detected(quarter_coeff_system):
    # a map escapes where the grid operator is built, at a node ...
    escaping = FunceqSystem(Interval(0.0, 1.0), [parse("t/2 + 0.75")],
                            [parse("0.5")])
    with pytest.raises(MapEscape, match="node t=1.0"):
        escaping.grid_operator(escaping.space, 4)
    # ... and at application time when the grid function lives on a
    # smaller domain than the system
    f = GridFunction.from_callable(Interval(-0.25, 0.25), 16, lambda t: t)
    with pytest.raises(MapEscape):
        apply_operator(quarter_coeff_system, f)


def test_coefficient_sign_is_checked_at_the_grid_nodes():
    # a dip to -1.55 at node 1 of the 1024-cell grid of [-1, 1], too
    # narrow to reach any node of the 512-cell grid
    system = FunceqSystem(
        IV, [parse("(t+1)/2"), parse("(t-1)/2")],
        [parse("0.45 - 2*exp(-((t - (-0.998046875))/0.0001)^2)"),
         parse("0.45")])
    assert system.grid_operator(IV, 512).min() >= 0.0
    with pytest.raises(HypothesisFailure) as exc:
        system.grid_operator(IV, 1024)
    assert exc.value.condition == "coefficients are nonnegative"
    assert type(exc.value.witness) is float
    assert exc.value.witness == -0.998046875


def apply_operator_interp(system, f):
    """Reference: the per-map np.interp application the CSR operator
    replaced (range check omitted), as a raw array."""
    nodes = f.nodes
    out = np.zeros_like(f.values)
    for coeff, mp in zip(system.coeffs, system.maps):
        img = np.asarray(mp(nodes), dtype=float)
        if isinstance(f.domain, Interval):
            img = np.clip(img, f.domain.a, f.domain.b)
        out += np.asarray(coeff(nodes), dtype=float) * f.eval(img)
    return out


PERIOD = 2 * math.pi
EDGE_IMAGES = {
    "interval": [-1.0, 1.0, -1.0 - 1e-12, 1.0 + 1e-12, np.nextafter(1.0, 0),
                 np.nextafter(-1.0, 0)],
    "circle": [0.0, -1e-17, -1e-300, np.nextafter(PERIOD, 0.0), PERIOD,
               -PERIOD, 2 * PERIOD, 3 * PERIOD],
}


@st.composite
def operator_cases(draw):
    kind = draw(st.sampled_from(["interval", "circle"]))
    space = IV if kind == "interval" else CircleSpace()
    maps, coeffs = [], []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["affine", "rotation", "quadratic",
                                      "constant"]))
        p = draw(st.floats(-1.0, 1.0))
        q = draw(st.floats(-1.0, 1.0))
        if shape == "constant":
            y = draw(st.sampled_from(EDGE_IMAGES[kind]))
            maps.append(lambda t, y=y: np.full_like(t, y))
        elif kind == "interval" and shape == "quadratic":
            # onto [min(p, q), max(p, q)] through a parabola
            maps.append(lambda t, p=p, q=q: p + (q - p) * ((t + 1) / 2) ** 2)
        elif kind == "interval":
            # affine onto [p, q], or the identity ("rotation" by zero)
            if shape == "rotation":
                p, q = -1.0, 1.0
            maps.append(lambda t, p=p, q=q: p + (q - p) * (t + 1) / 2)
        elif shape == "rotation":
            # by a multiple of the period plus a shift, zero included
            shift = draw(st.sampled_from([0.0, -1e-17, p]))
            turns = draw(st.integers(-2, 2))
            maps.append(lambda t, s=turns * PERIOD + shift: t + s)
        else:
            # circle maps of integer degree n, so that the grid closes up
            n = draw(st.integers(-3, 3))
            if shape == "affine":
                maps.append(lambda t, n=n, q=q: n * t + 10 * q)
            else:
                maps.append(lambda t, n=n, q=q: n * t * t / PERIOD + q)
        c0 = draw(st.floats(0.0, 1.0))
        c1 = draw(st.floats(0.0, 1.0))
        k = draw(st.integers(0, 3))
        coeffs.append(lambda t, c0=c0, c1=c1, k=k:
                      c0 + c1 * (1 + np.sin(k * np.asarray(t))) / 2)
    system = FunceqSystem(space, maps, coeffs)
    M = draw(st.integers(1, 300))
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    f = GridFunction.from_callable(space, M, lambda t: sum(
        a * np.cos(j * 2 * math.pi * (t - (-1.0 if kind == "interval"
                                            else 0.0)) / space.length + j)
        for j, a in enumerate(amps)))
    return system, f


@given(operator_cases())
@settings(max_examples=150, deadline=None)
def test_grid_operator_matches_interp(case):
    system, f = case
    got = system.grid_operator(f.domain, f.M) @ f.values
    want = apply_operator_interp(system, f)
    sup = np.max(np.abs(f.values))
    assert np.max(np.abs(got - want)) <= 1e-14 * max(sup, 1e-300)


@pytest.mark.parametrize("M", [1, 7, 1024])
@pytest.mark.parametrize("y", [-1e-17, -1e-300, -PERIOD, 0.0, PERIOD,
                               np.nextafter(PERIOD, 0.0), 2 * PERIOD])
def test_interp_weights_circle_clips_not_wraps(M, y):
    # an image just below 0 normalizes to the period: it belongs to the
    # closing node M, never to node 0 with a weight of M
    k, w = interp_weights(CircleSpace(), np.array([y]), M)
    assert 0 <= k[0] <= M - 1
    assert -1e-12 <= w[0] <= 1.0 + 1e-12
    pos = (k[0] + w[0]) * PERIOD / M
    assert min(abs(pos - np.mod(y, PERIOD)),
               PERIOD - abs(pos - np.mod(y, PERIOD))) < 1e-12


# --------------------------------------------------------------------------
# g_n
# --------------------------------------------------------------------------

def test_g_n_constant_coefficients(quarter_coeff_system):
    assert np.max(compute_g_n(quarter_coeff_system, 1, M=64).values) == 0.5
    assert np.max(compute_g_n(quarter_coeff_system, 2, M=64).values) == 0.25


def test_g_n_sum_one(half_coeff_system):
    for n in (1, 3, 5):
        g = compute_g_n(half_coeff_system, n, M=64)
        assert np.max(np.abs(g.values - 1.0)) < 1e-12


def explicit_g_n(system, n, M):
    """g_n = A^n 1 at the grid nodes as the multi-index product sum, by
    exact pointwise composition (no interpolation): the oracle of the
    iterated grid operator, at cost N^n."""
    domain = system.space

    def recurse(x, k):
        if k == 0:
            return np.ones_like(x)
        total = np.zeros_like(x)
        for coeff, mp in zip(system.coeffs, system.maps):
            img = np.asarray(mp(x), dtype=float)
            if isinstance(domain, Interval):
                img = np.clip(img, domain.a, domain.b)
            total += np.asarray(coeff(x), dtype=float) * recurse(img, k - 1)
        return total

    return GridFunction(domain, recurse(grid_nodes(domain, M), n))


def test_g_n_iterated_vs_explicit_exact_cases(quarter_coeff_system,
                                              half_coeff_system):
    for system in (quarter_coeff_system, half_coeff_system):
        for n in (1, 2, 3):
            it = compute_g_n(system, n, M=100)
            ex = explicit_g_n(system, n, M=100)
            assert np.max(np.abs(it.values - ex.values)) < 1e-12


def test_g_n_iterated_vs_explicit_interpolation_scale(
        quadratic_coeff_system):
    # with a curved coefficient the iterated route pays one interpolation
    # of g_1, so the modes agree at the grid's h^2 scale, not exactly
    M = 100
    it = compute_g_n(quadratic_coeff_system, 2, M=M)
    ex = explicit_g_n(quadratic_coeff_system, 2, M=M)
    gap = np.max(np.abs(it.values - ex.values))
    assert gap < (2.0 / M) ** 2
    it2 = compute_g_n(quadratic_coeff_system, 2, M=2 * M)
    ex2 = explicit_g_n(quadratic_coeff_system, 2, M=2 * M)
    assert np.max(np.abs(it2.values - ex2.values)) < gap


def test_g_n_monotone_when_subunit(quarter_coeff_system,
                                   half_coeff_system,
                                   quadratic_coeff_system):
    for system in (quarter_coeff_system, half_coeff_system,
                   quadratic_coeff_system):
        prev = compute_g_n(system, 0, M=256)
        for n in range(1, 9):
            cur = compute_g_n(system, n, M=256)
            assert np.max(cur.values - prev.values) <= 1e-12
            prev = cur


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

def test_certificate_quarter(quarter_coeff_system):
    cert = certify_contraction(quarter_coeff_system)
    assert isinstance(cert, ContractionCertificate)
    assert cert.m == 1
    assert cert.norm == 0.5


def test_certificate_failure_half(half_coeff_system):
    out = certify_contraction(half_coeff_system, m_max=64)
    assert isinstance(out, ContractionFailure)
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    assert out.m_max == 64


def test_certificate_quadratic(quadratic_coeff_system):
    cert = certify_contraction(quadratic_coeff_system, m_max=64)
    assert isinstance(cert, ContractionCertificate)
    assert cert.m == 2
    # g_2(+-1) = 3/4 by direct substitution, and that is the sup
    assert cert.norm == pytest.approx(0.75, abs=1e-4)
    # the power norms it read ride along, outside the report
    assert len(cert.norms) == 3
    assert cert.norms[0] == 1.0 and cert.norms[-1] == cert.norm
    assert cert.to_dict() == {"m": 2, "norm": cert.norm, "grid": 1024}


# --------------------------------------------------------------------------
# Neumann solving
# --------------------------------------------------------------------------

def test_solve_neumann_linear(quarter_coeff_system):
    f, rep = solve_neumann(quarter_coeff_system, parse("t"), tol=1e-13,
                           M=1024)
    assert np.max(np.abs(f.values - (4.0 / 3.0) * f.nodes)) < 1e-10
    assert rep.residual < 1e-10


def test_solve_neumann_trivial(quarter_coeff_system):
    f0, _ = solve_neumann(quarter_coeff_system, parse("0"), M=128)
    assert np.max(np.abs(f0.values)) == 0.0
    f1, _ = solve_neumann(quarter_coeff_system, parse("1"), M=128)
    assert np.max(np.abs(f1.values - 2.0)) < 1e-11


def test_solve_neumann_refuses_uncertified(half_coeff_system):
    with pytest.raises(NotCertified):
        solve_neumann(half_coeff_system, parse("t"), M=64)


def test_solve_neumann_linearity(quarter_coeff_system):
    tol = 1e-12
    f1, _ = solve_neumann(quarter_coeff_system, parse("t"), tol=tol, M=256)
    f2, _ = solve_neumann(quarter_coeff_system, parse("t^2"), tol=tol,
                          M=256)
    f12, _ = solve_neumann(quarter_coeff_system, parse("t + t^2"),
                           tol=tol, M=256)
    assert np.max(np.abs(f12.values - f1.values - f2.values)) <= 10 * tol


def test_solve_neumann_residual_bound(quadratic_coeff_system):
    tol = 1e-11
    f, rep = solve_neumann(quadratic_coeff_system, parse("cos(t)"),
                           tol=tol, M=512)
    assert rep.residual <= 10 * tol


def test_solve_neumann_no_convergence(quarter_coeff_system):
    from guided_dynamics.errors import NoConvergence
    with pytest.raises(NoConvergence):
        solve_neumann(quarter_coeff_system, parse("t"), tol=1e-15,
                      max_iter=2, M=64)
