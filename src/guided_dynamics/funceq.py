"""The operator A f = sum_i a_i * (f o delta_i) on grid functions:
application, contraction certificates from the power functions
g_n = A^n 1, and Neumann-series solving of f - Af = h.

Grid functions are piecewise linear on a uniform grid. Linear
interpolation preserves positivity and the sup-norm bounds the certificate
logic relies on; accuracy is recovered by grid refinement. On a grid, A is
one (M+1) x (M+1) CSR interpolation matrix per (system, grid), built once
from the node tables; every application of A is a sparse product.

A system is its maps and coefficients; it reads no guiding set. The two
hypotheses A rests on are checked on the node tables it is built from:
every image delta_i(t_j) lies in the domain (MapEscape), and every
a_i(t_j) >= 0 (HypothesisFailure), the sign that makes ||A^m|| = ||A^m 1||.
Between nodes the coefficients are not read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, HypothesisFailure, MapEscape,
                     NoConvergence, NotCertified)
from .exprlang import as_callable
from .gds import CircleSpace, Interval, map_from, write_csv

CONTRACTION_MARGIN = 1e-6

__all__ = [
    "GridFunction", "FunceqSystem", "ContractionCertificate",
    "ContractionFailure", "NeumannReport",
    "node_values", "interp_weights", "interpolation_matrix",
    "apply_operator", "power_norms", "certify_contraction",
    "iterate_contraction", "solve_neumann",
]


def grid_nodes(domain, M):
    """The M+1 uniform grid nodes; a circle's last node is the period."""
    if isinstance(domain, CircleSpace):
        return np.linspace(0.0, domain.period, M + 1)
    return np.linspace(domain.a, domain.b, M + 1)


def node_values(fn, nodes, name):
    """fn at the nodes, as an array of their shape. A value that is not
    finite raises HypothesisFailure naming `name` and its first such
    node; the overflow or invalid value on the way there warns nothing,
    since it is refused here."""
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(nodes), dtype=float) * np.ones_like(nodes)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        node = float(nodes[bad[0]])
        raise HypothesisFailure(
            "right-hand side is finite", witness=node,
            detail=f"{name} is {float(vals[bad[0]])!r} at node t={node!r}")
    return vals


def interp_weights(domain, y, M):
    """Cell k and weight w of linear interpolation (1 - w) f[k] + w f[k+1]
    at y on the M+1 node grid of domain. y is normalized into the domain
    and k clipped to 0..M-1, never wrapped: on a circle node M closes the
    grid, so y just below 0 (normalized to the period) gets k = M-1, w = 1.
    """
    left = 0.0 if isinstance(domain, CircleSpace) else domain.a
    step = domain.length / M
    xn = domain.normalize(np.asarray(y, dtype=float))
    k = np.clip(np.floor((xn - left) / step).astype(np.int64), 0, M - 1)
    return k, (xn - (left + k * step)) / step


def interpolation_matrix(domain, images, coeffs):
    """sum_i diag(coeffs[i]) J(images[i]) as an (M+1) x (M+1) CSR matrix,
    J(y) the rows of linear interpolation at y. Each row holds two entries
    per map in map order, duplicates unsummed, filled in place."""
    import scipy.sparse
    n, N = len(images[0]), len(images)
    index = np.int32 if 2 * N * n < 2 ** 31 else np.int64
    cols = np.empty((n, N, 2), dtype=index)
    vals = np.empty((n, N, 2))
    for i, (y, a) in enumerate(zip(images, coeffs)):
        k, w = interp_weights(domain, y, n - 1)
        cols[:, i] = k[:, None] + (0, 1)
        vals[:, i, 0], vals[:, i, 1] = a * (1.0 - w), a * w
    indptr = np.arange(0, 2 * N * n + 1, 2 * N, dtype=index)
    return scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr),
                                   shape=(n, n))


class GridFunction:
    """Sampled real function on a uniform grid with linear interpolation
    (periodic wrap on a circle). Values at the M+1 nodes are the state;
    evaluation anywhere is the interpolant."""

    def __init__(self, domain, values):
        self.domain = domain
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need at least two nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if isinstance(domain, CircleSpace):
            if abs(self.values[0] - self.values[-1]) > 1e-12 * (
                    1.0 + np.max(np.abs(self.values))):
                raise ValueError("circle grid must close up: f(0) == f(period)")

    @property
    def M(self):
        return self.values.size - 1

    @property
    def nodes(self):
        return grid_nodes(self.domain, self.M)

    @classmethod
    def from_callable(cls, domain, M, fn):
        """The right-hand side h = fn at the M+1 nodes (node_values)."""
        vals = node_values(as_callable(fn), grid_nodes(domain, M), "h")
        if isinstance(domain, CircleSpace):
            vals[-1] = vals[0]
        return cls(domain, vals)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if isinstance(self.domain, CircleSpace):
            xq = np.mod(x, self.domain.period)
        else:
            a, b = self.domain.a, self.domain.b
            low, high = np.min(x), np.max(x)
            if low < a - 1e-9 or high > b + 1e-9:
                raise DomainError(
                    f"evaluation outside [{a}, {b}] beyond tolerance "
                    f"(query range [{low}, {high}])", x=x)
            xq = np.clip(x, a, b)
        out = np.interp(xq, self.nodes, self.values)
        return float(out[0]) if scalar else out

    __call__ = eval

    def copy_with(self, values):
        return GridFunction(self.domain, values)

    def to_csv(self, path):
        write_csv(path, "t,value", [self.nodes, self.values])

    @classmethod
    def from_csv(cls, path, domain):
        """Read (t, value) rows. The t column must be the uniform grid on
        domain within 1e-9 (1 + step)."""
        with warnings.catch_warnings():     # no rows is the error below
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] < 2 or data.shape[1] < 2:
            raise ValueError(f"CSV grid needs two rows of (t, value), got "
                             f"{data.shape[0]} rows of {data.shape[1]} "
                             f"columns")
        ts, vals = data[:, 0], data[:, 1]
        M = len(ts) - 1
        nodes = grid_nodes(domain, M)
        if not np.max(np.abs(ts - nodes)) <= 1e-9 * (1 + domain.length / M):
            raise ValueError(f"CSV t column is not the uniform grid of {M} "
                             f"cells on [{nodes[0]}, {nodes[-1]}]")
        return cls(domain, vals)


class FunceqSystem:
    """The maps delta_i and coefficients a_i of f - sum_i a_i (f o delta_i)
    = h on an interval or a circle: all that the grid operator A reads.
    node_tables checks A's hypotheses at the nodes A is built from."""

    def __init__(self, space, maps, coeffs):
        self.space = space
        self.maps = tuple(map_from(m, label=i) for i, m in enumerate(maps))
        self.coeffs = tuple(as_callable(c) for c in coeffs)
        if len(self.coeffs) != len(self.maps):
            raise ValueError("one coefficient per map required")
        self._grid_operators = {}

    def node_tables(self, domain, M):
        """Coefficient and image arrays at the M+1 grid nodes of domain.
        A coefficient that is not finite or is below -1e-9 at a node raises
        HypothesisFailure naming the first such node, and an image that is
        not finite raises MapEscape naming its node. On an interval images
        are range-checked, raising MapEscape beyond tolerance, and clipped;
        on a circle each coefficient and each normalized image must agree
        at t = 0 and t = period, else DomainError."""
        nodes = grid_nodes(domain, M)
        # an overflow or invalid value is refused below, labelled
        with np.errstate(all="ignore"):
            a_tab = [np.asarray(c(nodes), dtype=float) for c in self.coeffs]
            i_tab = [np.asarray(m(nodes), dtype=float) for m in self.maps]
        for i, a in enumerate(a_tab):
            bad = np.flatnonzero(~np.isfinite(a) | (a < -1e-9))
            if bad.size:
                k = bad[0]
                node = float(nodes[k])
                raise HypothesisFailure(
                    "coefficients are finite" if not np.isfinite(a[k])
                    else "coefficients are nonnegative", witness=node,
                    detail=f"coefficient {i} is {float(a[k])!r} at node "
                           f"t={node!r}")
        d_tab = []
        for m, img in zip(self.maps, i_tab):
            nonfinite = np.flatnonzero(~np.isfinite(img))
            if nonfinite.size:
                k = nonfinite[0]
                node, image = float(nodes[k]), float(img[k])
                raise MapEscape(
                    f"map {m.label} has no finite image at node "
                    f"t={node!r} (image {image!r})",
                    generator=m.label, point=node, image=image)
            if isinstance(domain, Interval):
                excess = np.maximum(domain.a - img, img - domain.b)
                k = int(np.argmax(excess))
                if excess[k] > 1e-9:
                    node, image = float(nodes[k]), float(img[k])
                    raise MapEscape(
                        f"map {m.label} escapes the domain at node "
                        f"t={node!r} (image {image!r})",
                        generator=m.label, point=node, image=image)
                img = np.clip(img, domain.a, domain.b)
            d_tab.append(img)
        if isinstance(domain, CircleSpace):
            gaps = [(f"coefficient {i}", abs(a[0] - a[-1]) / (
                1.0 + np.max(np.abs(a)))) for i, a in enumerate(a_tab)]
            gaps += [(f"map {m.label}", domain.metric(y[0], y[-1]) / (
                1.0 + domain.period)) for m, y in zip(self.maps, d_tab)]
            for name, gap in gaps:
                if gap > 1e-12:
                    raise DomainError(f"{name} does not close up on the "
                                      f"circle: its values at t = 0 and "
                                      f"t = period differ")
        return a_tab, d_tab

    def grid_operator(self, domain, M):
        """A on the M+1 node grid of domain as a CSR matrix, built on the
        first request and kept for later ones."""
        key = (domain, M)
        if key not in self._grid_operators:
            a_tab, d_tab = self.node_tables(domain, M)
            self._grid_operators[key] = interpolation_matrix(domain, d_tab,
                                                             a_tab)
        return self._grid_operators[key]


def apply_operator(system: FunceqSystem, f: GridFunction) -> GridFunction:
    """(A f)(t_j) = sum_i a_i(t_j) f(delta_i(t_j)) with f interpolated.

    Raises MapEscape when some image delta_i(t_j) leaves the domain of f
    beyond tolerance."""
    return f.copy_with(system.grid_operator(f.domain, f.M) @ f.values)


@dataclass
class ContractionCertificate:
    """||A^m|| = norm < 1 - margin on the grid; norms = [||A^0||, ...,
    ||A^m||] bound ||(I - A)^{-1}|| <= sum_{k<m} ||A^k|| / (1 - norm).
    The report carries m, norm and grid only."""
    m: int
    norm: float
    grid: int
    norms: tuple

    def to_dict(self):
        return {"m": self.m, "norm": self.norm, "grid": self.grid}


@dataclass
class ContractionFailure:
    m_max: int
    norm: float
    grid: int

    def to_dict(self):
        return {"m": None, "norm": self.norm, "grid": self.grid,
                "m_max": self.m_max}


def power_norms(A, m_max):
    """[1, sup A 1, sup A^2 1, ...] up to the first sup A^m 1 below
    1 - margin, or to m = m_max. For an entrywise nonnegative matrix A,
    sup A^m 1 is the sup-norm of A^m (the positive-operator identity
    ||A^m|| = ||A^m 1||), so entry m is ||A^m|| and a last entry below
    1 - margin certifies A^m as a contraction."""
    g = np.ones(A.shape[0])
    norms = [1.0]
    while len(norms) <= m_max and norms[-1] >= 1.0 - CONTRACTION_MARGIN:
        g = A @ g
        norms.append(float(np.max(g)))
    return norms


def iterate_contraction(A, b, x, converged, max_iter):
    """Iterate x <- A x + b from x until converged(x, change) holds for an
    iterate and its sup-norm change from the one before. Returns the
    iterate and the number of sweeps; raises NoConvergence after
    max_iter sweeps."""
    for it in range(1, max_iter + 1):
        new = A @ x + b
        change = float(np.max(np.abs(new - x)))
        x = new
        if converged(x, change):
            return x, it
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def certify_contraction(system: FunceqSystem, m_max: int = 64,
                        M: int = 1024):
    """Smallest m <= m_max with sup-grid g_m < 1 - margin, else a failure
    report carrying sup g_{m_max}. Relies on the positive-operator norm
    identity ||A^m|| = ||A^m 1||, hence requires a_i >= 0 (checked at the
    grid nodes as A is built)."""
    norms = power_norms(system.grid_operator(system.space, M), m_max)
    if norms[-1] < 1.0 - CONTRACTION_MARGIN:
        return ContractionCertificate(m=len(norms) - 1, norm=norms[-1],
                                      grid=M, norms=tuple(norms))
    return ContractionFailure(m_max=m_max, norm=norms[-1], grid=M)


@dataclass
class NeumannReport:
    residual: float
    iterations: int
    certificate: ContractionCertificate
    tol: float


def solve_neumann(system: FunceqSystem, h, tol: float = 1e-12,
                  max_iter: int = 20000, M: int = 1024, m_max: int = 64):
    """Solve f - Af = h by the fixed-point iteration f <- Af + h, until
    one sweep changes f by less than tol.

    Refuses (NotCertified) unless a contraction certificate exists; the
    certificate is what makes the iteration and the solution's uniqueness
    sound. Returns (f, report) with the final sup-residual of f - Af - h.
    """
    h_grid = h if isinstance(h, GridFunction) else \
        GridFunction.from_callable(system.space, M, h)
    M = h_grid.M
    cert = certify_contraction(system, m_max=m_max, M=M)
    if isinstance(cert, ContractionFailure):
        raise NotCertified(
            f"no contraction certificate up to m={m_max} "
            f"(sup g_m = {cert.norm!r})")
    A = system.grid_operator(system.space, M)
    f_vals, it = iterate_contraction(A, h_grid.values, h_grid.values,
                                     lambda _, change: change < tol, max_iter)
    residual = float(np.max(np.abs(f_vals - A @ f_vals - h_grid.values)))
    return GridFunction(system.space, f_vals), NeumannReport(
        residual=residual, iterations=it, certificate=cert, tol=tol)
