"""Generalized P-configurations and the initial value problem
f(t) - sum_i f(delta_i(t)) = h(t), f'(c) = mu.

A generalized P-configuration on [a_0, a_N] is a family of nondecreasing
C^2 self-maps whose derivatives sum to 1 and whose endpoint images tile the
interval by consecutive anchors: delta_i(a_0) = a_{i-1}, delta_i(a_N) = a_i.
Guiding sets are the derivative zero sets Lambda_i = {t : delta_i'(t) = 0}.

The IVP is solved through the twice-differentiated equation: w = f''
satisfies (I - L - K) w = h'' with (L w)(t) = sum_i delta_i'(t)^2
w(delta_i(t)) and the compact integral part (K w)(t) = sum_i delta_i''(t)
[mu + int_c^{delta_i(t)} w], a well-conditioned system solved directly on
the grid. f is rebuilt by cumulative trapezoid rule with f'(c) = mu and
its additive constant pinned by the anchor identity
sum_{0<i<N} f(a_i) = -h(a_0). The value-level collocation system (M+1
equation rows plus one derivative row) is assembled only to report the
residuals of the returned solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgecon

from .errors import DataMismatch, IllConditioned, PConfigViolation
from .exprlang import _scalar, as_callable
from .funceq import GridFunction
from .gds import (GuidedSystem, Interval, check_contraction_minimality,
                  map_from, probe_minimality, probe_weak_attractor,
                  zero_band_guiding, ContractionMinimalityCertificate)

__all__ = [
    "PConfiguration", "IvpProblem", "IvpDiagnostics", "IvpSolution",
    "PConfMinimalityReport", "validate_pconfiguration",
    "extract_guiding_sets", "solve_ivp", "probe_pconf_minimality",
]

DERIVATIVE_ROOT_TOL = 1e-9


@dataclass
class PConfiguration:
    interval: Interval
    anchors: tuple
    maps: tuple
    tol: float
    _guiding: tuple = None

    @property
    def n_maps(self):
        return len(self.maps)

    @property
    def guiding(self):
        if self._guiding is None:
            self._guiding = extract_guiding_sets(self)
        return self._guiding

    @property
    def anchor_shift(self):
        """C with sum_i delta_i(t) = t + C (equals the sum of interior
        anchors)."""
        return float(sum(self.anchors[1:-1]))

    def as_guided_system(self):
        return GuidedSystem(self.interval, self.maps, self.guiding)


def validate_pconfiguration(maps, interval, anchors, tol: float = 1e-8,
                            grid_n: int = 2049) -> PConfiguration:
    """Check the P-configuration conditions on a validation grid and
    return the configuration, or raise PConfigViolation naming the first
    violated condition with a witness point.

    Maps must be ordered so that map i covers [a_{i-1}, a_i].
    """
    interval = interval if isinstance(interval, Interval) else \
        Interval(*interval)
    anchors = tuple(float(a) for a in anchors)
    if len(anchors) < 3:
        raise PConfigViolation("anchor_count", detail="need N >= 2 maps")
    if any(anchors[i] >= anchors[i + 1] for i in range(len(anchors) - 1)):
        raise PConfigViolation("anchors_increasing", witness=anchors)
    if abs(anchors[0] - interval.a) > tol or abs(anchors[-1] - interval.b) > tol:
        raise PConfigViolation("anchors_span_interval", witness=anchors)
    gmaps = tuple(map_from(m, label=i) for i, m in enumerate(maps))
    if len(gmaps) != len(anchors) - 1:
        raise PConfigViolation("map_count",
                               detail="need one map per anchor gap")
    for g in gmaps:
        if not g.has_derivative:
            raise PConfigViolation("derivative_missing",
                                   detail=f"map {g.label}")
    ts = np.linspace(interval.a, interval.b, grid_n)
    deriv = [np.asarray(g.derivative(ts), dtype=float) for g in gmaps]
    total = sum(deriv)
    j = int(np.argmax(np.abs(total - 1.0)))
    if abs(total[j] - 1.0) > tol:
        raise PConfigViolation("derivative_sum", witness=float(ts[j]),
                               detail=f"sum delta_i' = {total[j]!r}")
    for i, d in enumerate(deriv):
        j = int(np.argmin(d))
        if d[j] < -tol:
            raise PConfigViolation("derivative_nonnegative",
                                   witness=float(ts[j]),
                                   detail=f"delta_{i + 1}' = {d[j]!r}")
    for i, g in enumerate(gmaps):
        v0 = _scalar(g, interval.a)
        vN = _scalar(g, interval.b)
        if abs(v0 - anchors[i]) > tol:
            raise PConfigViolation(
                "endpoint_images", witness=float(interval.a),
                detail=f"delta_{i + 1}(a_0) = {v0!r}, expected {anchors[i]!r}")
        if abs(vN - anchors[i + 1]) > tol:
            raise PConfigViolation(
                "endpoint_images", witness=float(interval.b),
                detail=f"delta_{i + 1}(a_N) = {vN!r}, "
                       f"expected {anchors[i + 1]!r}")
        img = np.asarray(g(ts), dtype=float)
        if np.min(img) < anchors[i] - tol or np.max(img) > anchors[i + 1] + tol:
            j = int(np.argmax(np.maximum(anchors[i] - img,
                                         img - anchors[i + 1])))
            raise PConfigViolation("range_in_anchor_gap",
                                   witness=float(ts[j]),
                                   detail=f"delta_{i + 1}({ts[j]!r}) = "
                                          f"{img[j]!r}")
    return PConfiguration(interval=interval, anchors=anchors, maps=gmaps,
                          tol=tol)


def extract_guiding_sets(pconf: PConfiguration,
                         tol: float = DERIVATIVE_ROOT_TOL,
                         grid_n: int = 8193):
    """Lambda_i = {t : delta_i'(t) = 0} as closed intervals. Zeros below
    the derivative tolerance are widened to the full sub-tolerance band,
    the same conservative membership convention the orbit machinery uses.
    """
    return tuple(zero_band_guiding(g.derivative, pconf.interval, tol=tol,
                                   grid_n=grid_n)
                 for g in pconf.maps)


@dataclass
class IvpProblem:
    pconf: PConfiguration
    h: object
    c: float
    mu: float
    tol_data: float = 1e-8

    def __post_init__(self):
        iv = self.pconf.interval
        if not (iv.a <= self.c <= iv.b):
            raise ValueError(f"c = {self.c!r} outside [{iv.a}, {iv.b}]")

    def h_values(self, nodes):
        if isinstance(self.h, GridFunction):
            return self.h.eval(nodes)
        return np.asarray(as_callable(self.h)(nodes), dtype=float)


@dataclass
class IvpDiagnostics:
    residual: float
    derivative_defect: float
    anchor_identity_defect: float
    condition_estimate: float
    h_end_gap: float
    grid: int

    def to_dict(self):
        return {"residual": self.residual,
                "derivative_defect": self.derivative_defect,
                "anchor_identity_defect": self.anchor_identity_defect,
                "condition_estimate": self.condition_estimate,
                "grid": self.grid}


@dataclass
class IvpSolution:
    f: GridFunction
    diagnostics: IvpDiagnostics


def _interp_entries(y, a0, step, M):
    """Column indices and weights of piecewise-linear interpolation at y."""
    k = np.clip(np.floor((y - a0) / step).astype(np.int64), 0, M - 1)
    w = (y - (a0 + k * step)) / step
    return k, w


def _collocation_system(pc, problem, nodes, step, h_vals, M):
    """The (M+2) x (M+1) collocation matrix: equation rows plus one
    central-difference derivative row. Used for residual diagnostics."""
    rows, cols, vals = [], [], []
    idx = np.arange(M + 1)
    rows.append(idx)
    cols.append(idx)
    vals.append(np.ones(M + 1))
    a0, aN = pc.interval.a, pc.interval.b
    for g in pc.maps:
        img = np.clip(np.asarray(g(nodes), dtype=float), a0, aN)
        k, w = _interp_entries(img, a0, step, M)
        rows.append(idx)
        cols.append(k)
        vals.append(-(1.0 - w))
        rows.append(idx)
        cols.append(k + 1)
        vals.append(-w)
    lo = max(a0, problem.c - step)
    hi = min(aN, problem.c + step)
    width = hi - lo
    for point, sign in ((hi, 1.0), (lo, -1.0)):
        k, w = _interp_entries(np.array([point]), a0, step, M)
        rows.append(np.array([M + 1]))
        cols.append(k)
        vals.append(np.array([sign * (1.0 - w[0]) / width]))
        rows.append(np.array([M + 1]))
        cols.append(k + 1)
        vals.append(np.array([sign * w[0] / width]))
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(M + 2, M + 1)).tocsr()
    b = np.concatenate([h_vals, [problem.mu]])
    return A, b


def _cumtrapz(v, step):
    out = np.zeros_like(v)
    out[1:] = np.cumsum((v[1:] + v[:-1]) * (step / 2.0))
    return out


def _integral_weight_rows(y, c, a0, step, M):
    """Rows of trapezoid weights for int_c^{y_j} applied to grid values."""
    cols = np.arange(M + 1)

    def upto(points):
        points = np.atleast_1d(points)
        k = np.clip(np.floor((points - a0) / step).astype(np.int64), 0, M - 1)
        W = step * (cols[None, :] <= k[:, None])
        W[:, 0] -= step / 2.0
        rows = np.arange(len(points))
        W[rows, k] -= step / 2.0
        tau = points - (a0 + k * step)
        W[rows, k] += tau - tau * tau / (2.0 * step)
        W[rows, k + 1] += tau * tau / (2.0 * step)
        return W

    return upto(y) - upto(np.array([c]))


def _second_derivative_values(problem, nodes, step):
    """h'' on the grid: symbolic when h is an Expression, second
    differences (with linear end extrapolation) otherwise."""
    from .exprlang import Expression, differentiate
    if isinstance(problem.h, Expression):
        return np.asarray(
            differentiate(differentiate(problem.h)).eval(nodes),
            dtype=float) * np.ones_like(nodes)
    h_vals = problem.h_values(nodes)
    h2 = np.empty_like(h_vals)
    h2[1:-1] = (h_vals[:-2] - 2.0 * h_vals[1:-1] + h_vals[2:]) / step ** 2
    h2[0] = 2.0 * h2[1] - h2[2]
    h2[-1] = 2.0 * h2[-2] - h2[-3]
    return h2


def _map_second_derivative(g, nodes, step):
    if g.d2fn is not None:
        return np.asarray(g.d2fn(nodes), dtype=float) * np.ones_like(nodes)
    d1 = np.asarray(g.derivative(nodes), dtype=float) * np.ones_like(nodes)
    d2 = np.empty_like(d1)
    d2[1:-1] = (d1[2:] - d1[:-2]) / (2.0 * step)
    d2[0] = (d1[1] - d1[0]) / step
    d2[-1] = (d1[-1] - d1[-2]) / step
    return d2


def solve_ivp(problem: IvpProblem, M: int,
              cond_cap: float = 1e13) -> IvpSolution:
    """Solve the initial value problem on an M+1 node grid.

    The equation is differentiated twice: w = f'' satisfies
        w(t) - sum_i delta_i'(t)^2 w(delta_i(t))
             - sum_i delta_i''(t) [mu + int_c^{delta_i(t)} w] = h''(t),
    whose operator is invertible (the contraction certificate for the
    squared-derivative weights plus a compact integral part). w is solved
    directly on the grid, then f is rebuilt by cumulative trapezoid rule
    with f'(c) = mu and the additive constant pinned by the anchor
    identity sum_{0<i<N} f(a_i) = -h(a_0).
    Solving for f by bare value-collocation least squares is first-order
    only: the homogeneous equation has continuous non-C^2 solutions which
    the discretization sees as near-null modes. The collocation system is
    still assembled and its residuals at the returned solution reported.

    Raises DataMismatch when h(a_0) != h(a_N) and IllConditioned when the
    estimated condition of the solved system exceeds cond_cap.
    """
    pc = problem.pconf
    a0, aN = pc.interval.a, pc.interval.b
    nodes = np.linspace(a0, aN, M + 1)
    step = (aN - a0) / M
    h_vals = problem.h_values(nodes)
    h_gap = abs(float(h_vals[0]) - float(h_vals[-1]))
    if h_gap >= problem.tol_data:
        raise DataMismatch(
            f"|h(a_0) - h(a_N)| = {h_gap!r} >= {problem.tol_data!r}")

    S = np.eye(M + 1)
    rhs = _second_derivative_values(problem, nodes, step)
    idx = np.arange(M + 1)
    for g in pc.maps:
        img = np.clip(np.asarray(g(nodes), dtype=float), a0, aN)
        k, w = _interp_entries(img, a0, step, M)
        co1 = np.asarray(g.derivative(nodes), dtype=float) ** 2
        np.add.at(S, (idx, k), -co1 * (1.0 - w))
        np.add.at(S, (idx, k + 1), -co1 * w)
        co2 = _map_second_derivative(g, nodes, step)
        if np.max(np.abs(co2)) > 1e-14:
            W = _integral_weight_rows(img, problem.c, a0, step, M)
            S -= co2[:, None] * W
            rhs = rhs - co2 * problem.mu
    lu, piv = scipy.linalg.lu_factor(S)
    anorm = float(np.max(np.abs(S).sum(axis=0)))
    rcond, _ = dgecon(lu, anorm)
    cond_est = np.inf if rcond == 0 else 1.0 / float(rcond)
    if cond_est > cond_cap:
        raise IllConditioned(
            f"second-derivative system condition ~ {cond_est:.3e} "
            f"> {cond_cap:.1e}", condition_estimate=cond_est)
    w_sol = scipy.linalg.lu_solve((lu, piv), rhs)

    F1 = _cumtrapz(w_sol, step)
    fprime = problem.mu + F1 - float(np.interp(problem.c, nodes, F1))
    f_vals = _cumtrapz(fprime, step)
    # additive gauge: pin the constant by the anchor identity
    # sum_{i<N} f(a_i) = -h(a_0), which the exact solution satisfies
    # identically (substitute t = a_0 into the equation)
    anchor_sum_p = float(sum(np.interp(a, nodes, f_vals)
                             for a in pc.anchors[1:-1]))
    rho = (anchor_sum_p + float(h_vals[0])) / (pc.n_maps - 1)
    f_vals = f_vals - rho

    A, b = _collocation_system(pc, problem, nodes, step, h_vals, M)
    r = A @ f_vals - b
    f = GridFunction(pc.interval, f_vals)
    anchor_sum = float(sum(f.eval(a) for a in pc.anchors[1:-1]))
    # substituting t = a_0 into the equation gives
    # -sum_{i<N} f(a_i) = h(a_0)
    anchor_defect = abs(anchor_sum + float(h_vals[0]))
    diag = IvpDiagnostics(
        residual=float(np.max(np.abs(r[:M + 1]))),
        derivative_defect=abs(float(r[M + 1])),
        anchor_identity_defect=anchor_defect,
        condition_estimate=float(cond_est),
        h_end_gap=h_gap, grid=M)
    return IvpSolution(f=f, diagnostics=diag)


@dataclass
class PConfMinimalityReport:
    minimality: object
    weak_attractor: object
    agree: bool
    via: str
    certificate: object = None
    note: str = ""


def interior_point_off_guiding(pconf: PConfiguration):
    """Midpoint of the widest gap of I minus the union of guiding bands."""
    iv = pconf.interval
    marks = [iv.a, iv.b]
    for g in pconf.guiding:
        for lo, hi in g.intervals:
            marks.extend([lo, hi])
    marks = sorted(set(marks))
    best, width = 0.5 * (iv.a + iv.b), -1.0
    union = [ivl for g in pconf.guiding for ivl in g.intervals]
    for lo, hi in zip(marks[:-1], marks[1:]):
        mid = 0.5 * (lo + hi)
        if any(l <= mid <= h for l, h in union):
            continue
        if hi - lo > width:
            best, width = mid, hi - lo
    return best


def probe_pconf_minimality(pconf: PConfiguration, eps: float,
                           depth: int) -> PConfMinimalityReport:
    """Minimality probe plus the weak-attractor cross-check: for a
    P-configuration the two verdicts must agree (minimal iff some point of
    I minus Lambda is a weak attractor); disagreement downgrades the
    report to inconclusive."""
    gsys = pconf.as_guided_system()
    if all(g.is_empty for g in pconf.guiding):
        cert = check_contraction_minimality(gsys)
        if isinstance(cert, ContractionMinimalityCertificate):
            from .gds import MinimalityVerdict, WeakAttractorVerdict
            minimality = MinimalityVerdict(
                kind="minimal_evidence", eps=eps, depth=0, coverage=1.0,
                via="contraction_certificate")
            wa = WeakAttractorVerdict(
                kind="yes", x0=interior_point_off_guiding(pconf), eps=eps,
                depth=0, note="implied by contraction certificate")
            return PConfMinimalityReport(minimality=minimality,
                                         weak_attractor=wa, agree=True,
                                         via="contraction_certificate",
                                         certificate=cert)
    x0 = interior_point_off_guiding(pconf)
    mv = probe_minimality(gsys, eps, depth)
    wa = probe_weak_attractor(gsys, x0, eps, depth)
    pairs_ok = {("minimal_evidence", "yes"), ("not_minimal", "no")}
    conflict = {("minimal_evidence", "no"), ("not_minimal", "yes")}
    key = (mv.kind, wa.kind)
    if key in conflict:
        from .gds import MinimalityVerdict
        downgraded = MinimalityVerdict(
            kind="inconclusive", eps=eps, depth=depth,
            coverage=mv.coverage,
            note=f"probe said {mv.kind} but weak-attractor probe at "
                 f"x0={x0!r} said {wa.kind}")
        return PConfMinimalityReport(minimality=downgraded,
                                     weak_attractor=wa, agree=False,
                                     via="orbit_probe",
                                     note=downgraded.note)
    # inconclusive sub-probes are compatible with anything: agree is None
    agree = True if key in pairs_ok else None
    return PConfMinimalityReport(minimality=mv, weak_attractor=wa,
                                 agree=agree, via="orbit_probe")
