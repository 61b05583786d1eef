"""The operator A f = sum_i a_i * (f o delta_i) on grid functions:
application, iterated/explicit power functions g_n = A^n 1, contraction
certificates, Neumann-series solving of f - Af = h, and the
maximum-principle and triangular-family uniqueness checks.

Grid functions are piecewise linear on a uniform grid. Linear
interpolation preserves positivity and the sup-norm bounds the certificate
logic relies on; accuracy is recovered by grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, DomainError, HypothesisFailure,
                     MapEscape, NoConvergence, NotASolution, NotCertified)
from .exprlang import Expression, _scalar, as_callable
from .gds import (CircleSpace, GuidedSystem, GuidingSet, Interval,
                  guided_orbit_set, map_from, zero_band_guiding)

CONTRACTION_MARGIN = 1e-6

__all__ = [
    "GridFunction", "FunceqSystem", "ContractionCertificate",
    "ContractionFailure", "NeumannReport", "MaxPrincipleVerdict",
    "TriangularFamily", "TriangularUniquenessVerdict",
    "apply_operator", "compute_g_n", "certify_contraction", "solve_neumann",
    "check_max_principle", "verify_triangular_uniqueness",
]


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
        if isinstance(self.domain, CircleSpace):
            return np.linspace(0.0, self.domain.period, self.values.size)
        return np.linspace(self.domain.a, self.domain.b, self.values.size)

    @classmethod
    def from_callable(cls, domain, M, fn):
        fn = as_callable(fn)
        if isinstance(domain, CircleSpace):
            xs = np.linspace(0.0, domain.period, M + 1)
            vals = np.asarray(fn(xs), dtype=float)
            vals[-1] = vals[0]
            return cls(domain, vals)
        xs = np.linspace(domain.a, domain.b, M + 1)
        return cls(domain, np.asarray(fn(xs), dtype=float))

    @classmethod
    def constant(cls, domain, M, value):
        return cls(domain, np.full(M + 1, float(value)))

    def eval(self, x, tol_step=1e-9):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if isinstance(self.domain, CircleSpace):
            xq = np.mod(x, self.domain.period)
        else:
            a, b = self.domain.a, self.domain.b
            low, high = np.min(x), np.max(x)
            if low < a - tol_step or high > b + tol_step:
                raise DomainError(
                    f"evaluation outside [{a}, {b}] beyond tolerance "
                    f"(query range [{low}, {high}])", x=x)
            xq = np.clip(x, a, b)
        out = np.interp(xq, self.nodes, self.values)
        return float(out[0]) if scalar else out

    __call__ = eval

    def sup(self):
        return float(np.max(np.abs(self.values)))

    def copy_with(self, values):
        return GridFunction(self.domain, values)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            return self.copy_with(self.values + other.values)
        return self.copy_with(self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            return self.copy_with(self.values - other.values)
        return self.copy_with(self.values - other)

    def __mul__(self, scalar):
        return self.copy_with(self.values * scalar)

    __rmul__ = __mul__

    def to_csv(self, path):
        data = np.column_stack([self.nodes, self.values])
        np.savetxt(path, data, fmt="%.17g", delimiter=",",
                   header="t,value", comments="")

    @classmethod
    def from_csv(cls, path, domain=None):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        ts, vals = data[:, 0], data[:, 1]
        if domain is None:
            domain = Interval(float(ts[0]), float(ts[-1]))
        step = np.diff(ts)
        if np.max(np.abs(step - step[0])) > 1e-9 * (abs(step[0]) + 1):
            raise ValueError("CSV grid is not uniform")
        return cls(domain, vals)


class FunceqSystem:
    """A guided system together with coefficient functions a_i >= 0.

    When no guiding sets are given they are derived as the zero bands of
    the coefficients, matching Lambda_i = {x : a_i(x) = 0}.
    """

    def __init__(self, space, maps, coeffs, guiding=None, tol_lambda=1e-9):
        self.space = space
        self.maps = tuple(map_from(m, label=i) for i, m in enumerate(maps))
        self.coeff_sources = tuple(coeffs)
        self.coeffs = tuple(as_callable(c) for c in coeffs)
        if len(self.coeffs) != len(self.maps):
            raise ValueError("one coefficient per map required")
        if guiding is None:
            guiding = [self._coeff_zero_band(c) for c in self.coeffs]
        self.guiding = tuple(g if isinstance(g, GuidingSet) else GuidingSet(g)
                             for g in guiding)
        self._system = GuidedSystem(space, self.maps, self.guiding,
                                    coefficients=self.coeffs,
                                    tol_lambda=tol_lambda)

    def _coeff_zero_band(self, coeff, tol=1e-9):
        if isinstance(self.space, CircleSpace):
            scan = zero_band_guiding(coeff, Interval(0.0, self.space.period),
                                     tol=tol)
            ivs = list(scan.intervals)
            if len(ivs) >= 2 and ivs[0][0] <= 1e-12 and \
                    ivs[-1][1] >= self.space.period - 1e-12:
                first, last = ivs[0], ivs[-1]
                ivs = ivs[1:-1] + [(last[0] - self.space.period, first[1])]
            return GuidingSet(ivs)
        return zero_band_guiding(coeff, self.space, tol=tol)

    @property
    def n_maps(self):
        return len(self.maps)

    def as_guided_system(self):
        return self._system

    def node_tables(self, nodes):
        """Coefficient and image arrays at the given nodes; images are
        range-checked and clipped."""
        a_tab = [np.asarray(c(nodes), dtype=float) for c in self.coeffs]
        d_tab = []
        for m in self.maps:
            img = np.asarray(m(nodes), dtype=float)
            if isinstance(self.space, Interval):
                worst = max(float(np.max(self.space.a - img)),
                            float(np.max(img - self.space.b)))
                if worst > 1e-9:
                    k = int(np.argmax(np.maximum(self.space.a - img,
                                                 img - self.space.b)))
                    raise MapEscape(
                        f"map {m.label} escapes the domain at node "
                        f"t={nodes[k]!r} (image {img[k]!r})",
                        generator=m.label, point=nodes[k], image=img[k])
                img = np.clip(img, self.space.a, self.space.b)
            d_tab.append(img)
        return a_tab, d_tab


def apply_operator(system: FunceqSystem, f: GridFunction) -> GridFunction:
    """(A f)(t_j) = sum_i a_i(t_j) f(delta_i(t_j)) with f interpolated.

    Raises MapEscape when some image delta_i(t_j) leaves the domain of f
    beyond tolerance."""
    nodes = f.nodes
    out = np.zeros_like(f.values)
    for coeff, mp in zip(system.coeffs, system.maps):
        img = np.asarray(mp(nodes), dtype=float)
        if isinstance(f.domain, Interval):
            worst = max(float(np.max(f.domain.a - img)),
                        float(np.max(img - f.domain.b)))
            if worst > 1e-9:
                k = int(np.argmax(np.maximum(f.domain.a - img,
                                             img - f.domain.b)))
                raise MapEscape(
                    f"map {mp.label} escapes the grid domain at node "
                    f"t={nodes[k]!r} (image {img[k]!r})",
                    generator=mp.label, point=nodes[k], image=img[k])
            img = np.clip(img, f.domain.a, f.domain.b)
        out += np.asarray(coeff(nodes), dtype=float) * f.eval(img)
    return f.copy_with(out)


def compute_g_n(system: FunceqSystem, n: int, mode: str = "iterated",
                M: int = 1024, budget: int = 10 ** 6) -> GridFunction:
    """g_n = A^n 1. 'iterated' applies the grid operator n times;
    'explicit' evaluates the multi-index product sum by exact pointwise
    composition (no interpolation), at cost N^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    domain = system.space
    if mode == "iterated":
        f = GridFunction.constant(domain, M, 1.0)
        for _ in range(n):
            f = apply_operator(system, f)
        return f
    if mode != "explicit":
        raise ValueError(f"unknown mode {mode!r}")
    if system.n_maps ** n > budget:
        raise BudgetExceeded(
            f"explicit g_n needs {system.n_maps ** n} terms > {budget}")
    if isinstance(domain, CircleSpace):
        nodes = np.linspace(0.0, domain.period, M + 1)
    else:
        nodes = np.linspace(domain.a, domain.b, M + 1)

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

    return GridFunction(domain, recurse(nodes, n))


@dataclass
class ContractionCertificate:
    m: int
    norm: float
    grid: int
    monotone_defect: float = 0.0

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


def certify_contraction(system: FunceqSystem, m_max: int = 64,
                        M: int = 1024):
    """Smallest m <= m_max with sup-grid g_m < 1 - margin, else a failure
    report carrying sup g_{m_max}. Relies on the positive-operator norm
    identity ||A^m|| = ||A^m 1||, hence requires a_i >= 0 (validated at
    system construction)."""
    f = GridFunction.constant(system.space, M, 1.0)
    prev = f.values.copy()
    monotone_defect = 0.0
    norm = float(np.max(f.values))
    for m in range(1, m_max + 1):
        f = apply_operator(system, f)
        monotone_defect = max(monotone_defect,
                              float(np.max(f.values - prev)))
        prev = f.values.copy()
        norm = float(np.max(f.values))
        if norm < 1.0 - CONTRACTION_MARGIN:
            return ContractionCertificate(m=m, norm=norm, grid=M,
                                          monotone_defect=monotone_defect)
    return ContractionFailure(m_max=m_max, norm=norm, grid=M)


@dataclass
class NeumannReport:
    residual: float
    iterations: int
    certificate: ContractionCertificate
    tol: float


def solve_neumann(system: FunceqSystem, h, tol: float = 1e-12,
                  max_iter: int = 20000, M: int = 1024, m_max: int = 64):
    """Solve f - Af = h by the fixed-point iteration f <- Af + h.

    Refuses (NotCertified) unless a contraction certificate exists; the
    certificate is what makes the iteration and the solution's uniqueness
    sound. Returns (f, report) with the final sup-residual of f - Af - h.
    """
    if isinstance(h, GridFunction):
        h_grid = h
        M = h.M
    else:
        h_grid = GridFunction.from_callable(system.space, M, h)
    cert = certify_contraction(system, m_max=m_max, M=M)
    if isinstance(cert, ContractionFailure):
        raise NotCertified(
            f"no contraction certificate up to m={m_max} "
            f"(sup g_m = {cert.norm!r})")
    nodes = h_grid.nodes
    a_tab, d_tab = system.node_tables(nodes)

    def apply_A(vals):
        f = GridFunction(system.space, vals) if isinstance(
            system.space, CircleSpace) else None
        out = np.zeros_like(vals)
        for a, d in zip(a_tab, d_tab):
            if f is None:
                out += a * np.interp(d, nodes, vals)
            else:
                out += a * f.eval(d)
        return out

    f_vals = h_grid.values.copy()
    for it in range(1, max_iter + 1):
        new_vals = apply_A(f_vals) + h_grid.values
        change = float(np.max(np.abs(new_vals - f_vals)))
        f_vals = new_vals
        if change < tol:
            residual = float(np.max(np.abs(
                f_vals - apply_A(f_vals) - h_grid.values)))
            f = GridFunction(system.space, f_vals)
            return f, NeumannReport(residual=residual, iterations=it,
                                    certificate=cert, tol=tol)
    raise NoConvergence(f"no convergence after {max_iter} iterations")


@dataclass
class MaxPrincipleVerdict:
    passed: bool
    worst_violation: float
    argmax: float
    argmin: float
    cloud_points: int
    residual: float


def check_max_principle(system: FunceqSystem, f: GridFunction,
                        tol: float, tol_level: float = None,
                        eps: float = 0.01, depth: int = 5000):
    """For an (approximate) solution of the homogeneous equation, verify
    that f stays at its max (resp. min) level along the guided orbit cloud
    of the argmax (resp. argmin)."""
    nodes = f.nodes
    a_tab, _ = system.node_tables(nodes)
    total = np.zeros_like(nodes)
    for i, a in enumerate(a_tab):
        if np.min(a) < -1e-12:
            raise HypothesisFailure("coefficient nonnegativity",
                                    witness=float(nodes[int(np.argmin(a))]))
        off = system.guiding[i].distance(nodes, system.space) > \
            10 * system._system.tol_lambda
        if np.any(off) and float(np.min(a[off])) <= 0.0:
            k = int(np.argmin(np.where(off, a, np.inf)))
            raise HypothesisFailure(
                "coefficient positive off its guiding set",
                witness=float(nodes[k]))
        total += a
    if float(np.max(np.abs(total - 1.0))) > 1e-9:
        raise HypothesisFailure(
            "sum of coefficients must be 1",
            witness=float(nodes[int(np.argmax(np.abs(total - 1.0)))]))
    residual = float(np.max(np.abs(
        f.values - apply_operator(system, f).values)))
    if residual >= tol:
        raise NotASolution(
            f"homogeneous residual {residual!r} >= tol {tol!r}",
            residual=residual)
    if tol_level is None:
        tol_level = max(10.0 * tol, 1e-8)
    gsys = system.as_guided_system()
    worst = 0.0
    j_max = int(np.argmax(f.values))
    j_min = int(np.argmin(f.values))
    n_pts = 0
    for j, side in ((j_max, +1.0), (j_min, -1.0)):
        level = f.values[j]
        cloud = guided_orbit_set(gsys, nodes[j], depth, eps)
        vals = f.eval(cloud.points)
        worst = max(worst, float(np.max(side * (level - vals))))
        n_pts += cloud.points.size
    return MaxPrincipleVerdict(passed=worst <= tol_level,
                               worst_violation=worst,
                               argmax=float(nodes[j_max]),
                               argmin=float(nodes[j_min]),
                               cloud_points=n_pts, residual=residual)


# --------------------------------------------------------------------------
# Triangular vector families
# --------------------------------------------------------------------------

class TriangularFamily:
    """N matrix-valued coefficient functions A_i(x) (entries constants,
    Expressions, or callables), optionally conjugated by a constant
    invertible P."""

    def __init__(self, mats, P=None):
        self.n_maps = len(mats)
        self.dim = len(mats[0])
        self.entries = []
        for mat in mats:
            rows = []
            for row in mat:
                if len(row) != self.dim:
                    raise ValueError("matrices must be square")
                rows.append([self._wrap(e) for e in row])
            self.entries.append(rows)
        self.P = None if P is None else np.asarray(P, dtype=float)
        if self.P is not None:
            self.P_inv = np.linalg.inv(self.P)
            if np.max(np.abs(self.P @ self.P_inv - np.eye(self.dim))) > 1e-10:
                raise ValueError("conjugator P is numerically singular")
        else:
            self.P_inv = None

    @staticmethod
    def _wrap(entry):
        if isinstance(entry, Expression) or callable(entry):
            return as_callable(entry)
        value = float(entry)
        return lambda x, v=value: np.full_like(
            np.asarray(x, dtype=float), v)

    def matrix(self, i, x):
        """A_i(x) as an (n, n) array, conjugated by P when provided."""
        A = np.array([[_scalar(self.entries[i][r][c], x)
                       for c in range(self.dim)]
                      for r in range(self.dim)])
        if self.P is not None:
            A = self.P_inv @ A @ self.P
        return A


@dataclass
class TriangularUniquenessVerdict:
    passed: bool
    component_spreads: tuple
    tol: float
    residual: float


def verify_triangular_uniqueness(family: TriangularFamily,
                                 system: GuidedSystem, F, tol: float,
                                 samples: int = 64,
                                 residual_tol: float = None):
    """Hypothesis gate for the triangular-family uniqueness statement, then
    componentwise constancy of (P^-1 F), in the inductive order component
    1 first."""
    space = system.space
    xs = space.grid(samples)
    for i in range(family.n_maps):
        for x in xs:
            A = family.matrix(i, x)
            upper = np.triu(A, k=1)
            if np.max(np.abs(upper)) > 1e-9:
                raise HypothesisFailure(
                    "lower triangular (after conjugation)" if family.P is not None
                    else "lower triangular", witness=float(x),
                    detail=f"matrix {i} has upper entry "
                           f"{float(np.max(np.abs(upper)))!r}")
            if np.min(np.diag(A)) < -1e-12:
                raise HypothesisFailure("nonnegative diagonal",
                                        witness=float(x))
    for x in xs:
        total = sum(family.matrix(i, x) for i in range(family.n_maps))
        if np.max(np.abs(total - np.eye(family.dim))) > 1e-9:
            raise HypothesisFailure("coefficients sum to the identity",
                                    witness=float(x))
    for i in range(family.n_maps):
        off = xs[system.guiding[i].distance(xs, space) > system.tol_lambda]
        for x in off[:: max(1, len(off) // 16)]:
            if np.linalg.det(family.matrix(i, x)) <= 0.0:
                raise HypothesisFailure(
                    "positive determinant off the guiding set",
                    witness=float(x))
    # F must (approximately) solve the vector equation
    comps = list(F)
    if len(comps) != family.dim:
        raise ValueError("one grid function per component required")
    nodes = comps[0].nodes
    res = np.zeros((family.dim, nodes.size))
    for k in range(family.dim):
        res[k] = comps[k].values.copy()
    for i in range(family.n_maps):
        img = np.asarray(system.generators[i](nodes), dtype=float)
        if isinstance(space, Interval):
            img = np.clip(img, space.a, space.b)
        Fi = np.array([c.eval(img) for c in comps])
        for j, x in enumerate(nodes):
            res[:, j] -= family.matrix(i, x) @ Fi[:, j]
    residual = float(np.max(np.abs(res)))
    if residual_tol is None:
        residual_tol = max(10.0 * tol, 1e-8)
    if residual >= residual_tol:
        raise NotASolution(
            f"vector equation residual {residual!r} >= {residual_tol!r}",
            residual=residual)
    G = np.array([c.values for c in comps])
    if family.P is not None:
        G = family.P_inv @ G
    spreads = tuple(float(np.max(G[k]) - np.min(G[k]))
                    for k in range(family.dim))
    return TriangularUniquenessVerdict(
        passed=all(s <= tol for s in spreads),
        component_spreads=spreads, tol=tol, residual=residual)
