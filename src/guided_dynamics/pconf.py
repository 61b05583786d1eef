"""Generalized P-configurations and the initial value problem
f(t) - sum_i f(delta_i(t)) = h(t), f'(c) = mu.

A generalized P-configuration on [a_0, a_N] is a family of nondecreasing
C^2 self-maps whose derivatives sum to 1 and whose endpoint images tile the
interval by consecutive anchors: delta_i(a_0) = a_{i-1}, delta_i(a_N) = a_i.
Guiding sets are the derivative zero sets Lambda_i = {t : delta_i'(t) = 0}.

The IVP is solved through the twice-differentiated equation: w = f''
satisfies (I - L - K) w = h'' with (L w)(t) = sum_i delta_i'(t)^2
w(delta_i(t)) and the compact integral part (K w)(t) = sum_i delta_i''(t)
[mu + int_c^{delta_i(t)} w]. On the grid it is one sparse system in w and
its cumulative trapezoid integral F, factored once by SuperLU; the
collocation matrix S of w is its Schur complement and is never formed.
The condition gate uses the exact 1-norm of S times a 1-norm estimate of
S^{-1} through the same factor. f is rebuilt by cumulative trapezoid rule
with f'(c) = mu and its additive constant pinned by the anchor identity
sum_{0<i<N} f(a_i) = -h(a_0). The value-level collocation system (M+1
equation rows plus one derivative row) is assembled only to report the
residuals of the returned solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import LinearOperator, onenormest, splu

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


def _second_derivative_system(problem, nodes, step, M):
    """The twice-differentiated equation as one sparse system in (w, F).

    F = cumtrapz(w) is carried by the rows F_0 = 0 and
    F_j - F_{j-1} - (step/2) (w_{j-1} + w_j) = 0, so int_{a_0}^y w at
    y = a_0 + k step + tau is the row
    F_k + (tau - tau^2/(2 step)) w_k + tau^2/(2 step) w_{k+1},
    and int_c^y w is that row minus the same row at c. The F block is unit
    lower bidiagonal; eliminating F leaves the collocation matrix S of the
    w-equation as its Schur complement, and S is never formed.

    Returns the 2(M+1) square CSC system, the right-hand side of its w
    rows (the F rows have right-hand side 0) and the exact 1-norm of S.
    """
    pc = problem.pconf
    a0, aN = pc.interval.a, pc.interval.b
    n = M + 1
    idx = np.arange(n)
    rhs = _second_derivative_values(problem, nodes, step)
    kc = int(np.clip(np.floor((problem.c - a0) / step), 0, M - 1))
    tc = problem.c - (a0 + kc * step)
    at_c = np.full(n, kc)
    # (row, col, value) parts of the w block. Eliminating F turns the
    # F_k - F_kc of each integral into step/2 at k, -step/2 at kc and the
    # staircase step * ([col <= k] - [col <= kc]): s_extra and stair_*
    w_block = [(idx, idx, np.ones(n))]
    f_block, s_extra, stair_k, stair_a = [], [], [], []
    for g in pc.maps:
        img = np.clip(np.asarray(g(nodes), dtype=float), a0, aN)
        k, w = _interp_entries(img, a0, step, M)
        co1 = np.asarray(g.derivative(nodes), dtype=float) ** 2
        w_block += [(idx, k, -co1 * (1.0 - w)), (idx, k + 1, -co1 * w)]
        co2 = _map_second_derivative(g, nodes, step)
        if np.max(np.abs(co2)) > 1e-14:
            tau = img - (a0 + k * step)
            w_block += [
                (idx, k, -co2 * (tau - tau * tau / (2.0 * step))),
                (idx, k + 1, -co2 * (tau * tau / (2.0 * step))),
                (idx, at_c, co2 * (tc - tc * tc / (2.0 * step))),
                (idx, at_c + 1, co2 * (tc * tc / (2.0 * step)))]
            f_block += [(idx, n + k, -co2), (idx, n + at_c, co2)]
            s_extra += [(idx, k, co2 * (step / 2.0)),
                        (idx, at_c, -co2 * (step / 2.0))]
            stair_k.append(k)
            stair_a.append(-co2 * step)
            rhs = rhs - co2 * problem.mu
    f_rows = [(n + idx, n + idx, np.ones(n)),
              (n + idx[1:], n + idx[:-1], -np.ones(M)),
              (n + idx[1:], idx[:-1], np.full(M, -step / 2.0)),
              (n + idx[1:], idx[1:], np.full(M, -step / 2.0))]
    rows, cols, vals = (np.concatenate(part) for part in
                        zip(*(w_block + f_block + f_rows)))
    system = scipy.sparse.csc_matrix((vals, (rows, cols)),
                                     shape=(2 * n, 2 * n))
    s_norm = _schur_norm1(n, w_block + s_extra, stair_k, stair_a, kc)
    return system, rhs, s_norm


def _schur_norm1(n, entries, stair_k, stair_a, kc):
    """max_col sum_j |S[j, col]| in O(n * maps) without forming S.

    Row j of S is the staircase sum_i a_ij ([col <= k_ij] - [col <= kc])
    plus point entries (row, col, value) whose duplicates add up.
    Column sums of the staircase come from a difference array over its
    breakpoints; one pass then corrects the columns that carry points.
    """
    last = np.column_stack(stair_k + [np.full(n, kc)])
    a = np.column_stack(stair_a + [np.zeros(n)])
    # walking right along a row (it starts at 0), a_ij drops out after
    # column k_ij and sum_i a_ij comes back after column kc
    drop = np.concatenate([-a[:, :-1], a.sum(axis=1, keepdims=True)],
                          axis=1)
    order = np.argsort(last, axis=1, kind="stable")
    starts = np.take_along_axis(last, order, axis=1) + 1
    level = np.cumsum(np.take_along_axis(drop, order, axis=1), axis=1)
    jump = np.diff(np.abs(level), axis=1, prepend=0.0)
    colsum = np.cumsum(np.bincount(starts.ravel(), weights=jump.ravel(),
                                   minlength=n + 1))[:n]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    point = np.bincount(inverse, weights=vals)
    r, c = np.divmod(keys, n)
    stair = np.sum(a[r] * ((c[:, None] <= last[r]).astype(float)
                           - (c <= kc)[:, None]), axis=1)
    colsum += np.bincount(c, weights=np.abs(stair + point) - np.abs(stair),
                          minlength=n)
    return float(np.max(colsum))


def solve_ivp(problem: IvpProblem, M: int,
              cond_cap: float = 1e13) -> IvpSolution:
    """Solve the initial value problem on an M+1 node grid.

    The equation is differentiated twice: w = f'' satisfies
        w(t) - sum_i delta_i'(t)^2 w(delta_i(t))
             - sum_i delta_i''(t) [mu + int_c^{delta_i(t)} w] = h''(t),
    whose operator is invertible (the contraction certificate for the
    squared-derivative weights plus a compact integral part). Its grid
    form is the sparse 2(M+1) system of _second_derivative_system in
    (w, F = cumtrapz w), factored once with SuperLU (COLAMD ordering);
    w is the w-block of the solution for right-hand side [h'', 0]. Time
    and memory grow with the fill of the factor, not with M^2. f is then
    rebuilt by cumulative trapezoid rule with f'(c) = mu and the additive
    constant pinned by the anchor identity sum_{0<i<N} f(a_i) = -h(a_0).
    Solving for f by bare value-collocation least squares is first-order
    only: the homogeneous equation has continuous non-C^2 solutions which
    the discretization sees as near-null modes. The collocation system is
    still assembled and its residuals at the returned solution reported.

    The reported condition_estimate is kappa_1(S) = ||S||_1 ||S^{-1}||_1:
    ||S||_1 exactly, ||S^{-1}||_1 by the Hager-Higham estimator with one
    start vector (deterministic; it leaves np.random alone).

    Raises DataMismatch when h(a_0) != h(a_N), and IllConditioned when
    the factorization finds the system exactly singular
    (condition_estimate = inf) or the estimated condition exceeds
    cond_cap.
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

    system, rhs, s_norm = _second_derivative_system(problem, nodes, step, M)
    try:
        lu = splu(system)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise IllConditioned(
            f"second-derivative system is singular ({exc})",
            condition_estimate=np.inf) from exc
    pad = np.zeros(M + 1)

    def solve_s(x, trans="N"):
        return lu.solve(np.concatenate([np.ravel(x), pad]),
                        trans=trans)[:M + 1]

    # t = 1: larger t draws start vectors from the global np.random state
    inv_norm = onenormest(LinearOperator(
        (M + 1, M + 1), matvec=solve_s,
        rmatvec=lambda x: solve_s(x, trans="T"), dtype=float), t=1)
    cond_est = s_norm * float(inv_norm)
    if not np.isfinite(cond_est):
        cond_est = np.inf
    if cond_est > cond_cap:
        raise IllConditioned(
            f"second-derivative system condition ~ {cond_est:.3e} "
            f"> {cond_cap:.1e}", condition_estimate=cond_est)
    w_sol = solve_s(rhs)

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
