"""Generalized P-configurations and the initial value problem
f(t) - sum_i f(delta_i(t)) = h(t), f'(c) = mu.

A generalized P-configuration on [a_0, a_N] is a family of nondecreasing
C^2 self-maps whose derivatives sum to 1 and whose endpoint images tile the
interval by consecutive anchors: delta_i(a_0) = a_{i-1}, delta_i(a_N) = a_i.
Guiding sets are the derivative zero sets Lambda_i = {t : delta_i'(t) = 0}.

The IVP is solved through the twice-differentiated equation: w = f''
satisfies (I - L - K) w = h'' with (L w)(t) = sum_i delta_i'(t)^2
w(delta_i(t)) and the compact integral part (K w)(t) = sum_i delta_i''(t)
[mu + int_c^{delta_i(t)} w]; S is its collocation matrix on the grid.
When every delta_i is affine, K = 0 and w solves the functional equation
w - L w = h'' of funceq.FunceqSystem(interval, maps, [delta_i'^2]), whose
certificate also bounds kappa_inf(S). Otherwise the grid equation is one
sparse system in w and its cumulative trapezoid integral F, factored once
by SuperLU, and kappa_1(S) is estimated through the factor. f is rebuilt
by cumulative trapezoid rule with f'(c) = mu and its additive constant
pinned by the anchor identity sum_{0<i<N} f(a_i) = -h(a_0). The
value-level collocation system (M+1 equation rows plus one derivative row)
is assembled only to report the residuals of the returned solution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (DataMismatch, IllConditioned, MapEscape,
                     NoConvergence, PConfigViolation)
from .exprlang import _scalar, as_callable
from .funceq import (ContractionFailure, FunceqSystem, GridFunction,
                     certify_contraction, interp_weights, interpolation_matrix,
                     iterate_contraction, node_values)
from .gds import Interval, map_from, zero_band_guiding

__all__ = [
    "PConfiguration", "IvpProblem", "IvpDiagnostics", "IvpSolution",
    "validate_pconfiguration", "extract_guiding_sets", "solve_ivp",
]

DERIVATIVE_ROOT_TOL = 1e-9
# the condition gate: solve_ivp refuses S when its condition bound (affine
# route) or estimate (factored route) exceeds this
COND_CAP = 1e13
# a map whose |delta_i''| stays below this on the grid is affine: no K term
AFFINE_TOL = 1e-14
# the affine route: the a-posteriori error of the solve relative to its
# sup-norm (a few ulps), and the sweeps it may take before the call goes
# to the factored route
AFFINE_RTOL = 4.0 * np.finfo(float).eps
AFFINE_MAX_SWEEPS = 1000


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


def validate_pconfiguration(maps, interval, anchors,
                            tol: float = 1e-8) -> PConfiguration:
    """Check the P-configuration conditions on a 2049-point grid and
    return the configuration, or raise PConfigViolation naming the first
    violated condition with a witness point.

    Maps must be ordered so that map i covers [a_{i-1}, a_i], and each
    needs its first and second derivatives (derivative_missing).
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
        if not g.has_derivative or g.d2fn is None:
            raise PConfigViolation("derivative_missing",
                                   detail=f"map {g.label}")
    ts = np.linspace(interval.a, interval.b, 2049)
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


def extract_guiding_sets(pconf: PConfiguration):
    """Lambda_i = {t : delta_i'(t) = 0} as closed intervals. Zeros below
    the derivative tolerance are widened to the full sub-tolerance band,
    the same conservative membership convention the orbit machinery uses.
    """
    return tuple(zero_band_guiding(g.derivative, pconf.interval,
                                   tol=DERIVATIVE_ROOT_TOL)
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
        return node_values(as_callable(self.h), nodes, "h")


@dataclass
class IvpDiagnostics:
    """condition_bound bounds kappa_inf(S) (affine route),
    condition_estimate estimates kappa_1(S) (factored route); to_dict
    leaves out the one that is None."""
    residual: float
    derivative_defect: float
    anchor_identity_defect: float
    grid: int
    condition_estimate: float = None
    condition_bound: float = None

    def to_dict(self):
        return {key: value for key, value in asdict(self).items()
                if value is not None}


@dataclass
class IvpSolution:
    f: GridFunction
    diagnostics: IvpDiagnostics


def _collocation_system(pc, problem, nodes, step, h_vals, M):
    """The (M+2) x (M+1) collocation matrix: the equation rows I - P, P
    the interpolation matrix of the maps, plus one central-difference
    derivative row. Used for residual diagnostics."""
    import scipy.sparse
    iv = pc.interval
    P = interpolation_matrix(iv, [g(nodes) for g in pc.maps],
                             [1.0] * pc.n_maps)
    lo = max(iv.a, problem.c - step)
    hi = min(iv.b, problem.c + step)
    k, w = interp_weights(iv, [hi, lo], M)
    deriv = np.zeros(M + 1)
    np.add.at(deriv, np.concatenate([k, k + 1]),
              np.array([1.0 - w[0], -(1.0 - w[1]), w[0], -w[1]])
              / (hi - lo))
    A = scipy.sparse.vstack([scipy.sparse.identity(M + 1) - P,
                             deriv[None, :]], format="csr")
    b = np.concatenate([h_vals, [problem.mu]])
    return A, b


def _cumtrapz(v, step):
    out = np.zeros_like(v)
    out[1:] = np.cumsum((v[1:] + v[:-1]) * (step / 2.0))
    return out


def _second_derivative_values(problem, nodes, step):
    """h'' on the grid: symbolic when h is an Expression, second
    differences otherwise, extrapolated to the two end nodes from the
    interior values that exist: linearly from two or more, constantly
    from one, and as 0 (h linear between its two samples) from none."""
    from .exprlang import Expression, differentiate
    if isinstance(problem.h, Expression):
        return node_values(differentiate(differentiate(problem.h)).eval,
                           nodes, "h''")

    def second_differences(nodes):
        h_vals = problem.h_values(nodes)
        inner = (h_vals[:-2] - 2.0 * h_vals[1:-1] + h_vals[2:]) / step ** 2
        if inner.size >= 2:
            ends = (2.0 * inner[0] - inner[1], 2.0 * inner[-1] - inner[-2])
        else:
            ends = (inner[0], inner[0]) if inner.size else (0.0, 0.0)
        return np.concatenate(([ends[0]], inner, [ends[1]]))
    return node_values(second_differences, nodes, "h''")


def _map_second_derivative(g, nodes):
    return np.asarray(g.d2fn(nodes), dtype=float) * np.ones_like(nodes)


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
    import scipy.sparse
    pc = problem.pconf
    iv = pc.interval
    n = M + 1
    idx = np.arange(n)
    rhs = _second_derivative_values(problem, nodes, step)
    kc = int(interp_weights(iv, problem.c, M)[0])
    tc = problem.c - (iv.a + kc * step)
    at_c = np.full(n, kc)
    # (row, col, value) parts of the w block. Eliminating F turns the
    # F_k - F_kc of each integral into step/2 at k, -step/2 at kc and the
    # staircase step * ([col <= k] - [col <= kc]): s_extra and stair_*
    w_block = [(idx, idx, np.ones(n))]
    f_block, s_extra, stair_k, stair_a = [], [], [], []
    for g in pc.maps:
        img = iv.normalize(np.asarray(g(nodes), dtype=float))
        k, w = interp_weights(iv, img, M)
        co1 = np.asarray(g.derivative(nodes), dtype=float) ** 2
        w_block += [(idx, k, -co1 * (1.0 - w)), (idx, k + 1, -co1 * w)]
        co2 = _map_second_derivative(g, nodes)
        if np.max(np.abs(co2)) > AFFINE_TOL:
            tau = img - (iv.a + k * step)
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


def _condition_gate(cond, name):
    if cond > COND_CAP:
        raise IllConditioned(
            f"second-derivative system {name} {cond:.3e} > {COND_CAP:.1e}",
            condition_estimate=cond)


def _iterated_solve(problem, nodes, step, M):
    """The affine route: (w, bound of kappa_inf(S)), or None to take the
    factored route.

    K = 0 when every |delta_i''| is at most AFFINE_TOL on the grid, and S
    = I - L for L the grid operator of FunceqSystem(interval, maps,
    [delta_i'^2]). Its certificate, q = ||L^m|| < 1, gives ||S^{-1}|| <=
    sum_{k<m} ||L^k|| / (1 - q) (infinity norms on the grid), hence the
    bound. w <- L w + h'' from h'' stops once its a-posteriori error
    sum_{j=1..m} ||L^j|| / (1 - q) * ||w_{k+1} - w_k|| is within
    AFFINE_RTOL of ||w_{k+1}||. None when a map is not affine, an image
    escapes by more than the grid operator allows (validate_pconfiguration
    allows more), the certificate is refused or too slow, or the solve
    misses its bound within AFFINE_MAX_SWEEPS sweeps.
    """
    import scipy.sparse
    pc = problem.pconf
    if not all(np.max(np.abs(_map_second_derivative(g, nodes)))
               <= AFFINE_TOL for g in pc.maps):
        return None
    system = FunceqSystem(pc.interval, pc.maps, [
        lambda t, g=g: np.asarray(g.derivative(t), dtype=float) ** 2
        for g in pc.maps])
    try:
        cert = certify_contraction(system, M=M)
    except MapEscape:
        return None
    if isinstance(cert, ContractionFailure):
        return None
    gain = sum(cert.norms[1:]) / (1.0 - cert.norm)
    # refuse a contraction too slow to shrink the bound to AFFINE_RTOL
    # within AFFINE_MAX_SWEEPS sweeps at its certified rate
    if np.log(AFFINE_RTOL / gain) < \
            AFFINE_MAX_SWEEPS * np.log(cert.norm) / cert.m:
        return None
    L = system.grid_operator(pc.interval, M)
    s_norm = float(abs(scipy.sparse.identity(M + 1, format="csr") - L)
                   .sum(axis=1).max())
    bound = s_norm * sum(cert.norms[:-1]) / (1.0 - cert.norm)
    _condition_gate(bound, "condition bound")
    b = _second_derivative_values(problem, nodes, step)
    try:
        return iterate_contraction(
            L, b, b, lambda y, change:
            gain * change <= AFFINE_RTOL * np.max(np.abs(y)),
            AFFINE_MAX_SWEEPS)[0], bound
    except NoConvergence:
        return None


def _factored_solve(problem, nodes, step, M):
    """The factored route: (w, kappa_1(S) estimate) through one SuperLU
    factor of the (w, F) system of _second_derivative_system.
    kappa_1(S) = ||S||_1 ||S^{-1}||_1 takes ||S||_1 exactly and
    ||S^{-1}||_1 by the Hager-Higham estimator with one start vector
    (deterministic; it leaves np.random alone) through solves with S and
    S^T. Raises IllConditioned when the factor is exactly singular or the
    estimate exceeds COND_CAP."""
    from scipy.sparse.linalg import LinearOperator, onenormest, splu
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
    _condition_gate(cond_est, "condition ~")
    return solve_s(rhs), cond_est


def solve_ivp(problem: IvpProblem, M: int) -> IvpSolution:
    """Solve the initial value problem on an M+1 node grid.

    The equation is differentiated twice: w = f'' satisfies
        w(t) - sum_i delta_i'(t)^2 w(delta_i(t))
             - sum_i delta_i''(t) [mu + int_c^{delta_i(t)} w] = h''(t),
    whose operator is invertible (the contraction certificate for the
    squared-derivative weights plus a compact integral part). Its grid
    operator S is solved on one of two routes, chosen from the input:

    - affine: every |delta_i''| is at most AFFINE_TOL on the grid, so
      w - L w = h'' is the functional equation of FunceqSystem(interval,
      maps, [delta_i'^2]). When certify_contraction certifies L, w is its
      fixed-point iteration, stopped by the certificate's a-posteriori
      bound at a few ulps of its sup-norm (_iterated_solve). No factor
      is taken.
    - factored: any other input, an image beyond the grid operator's
      tolerance, a refused or too slow certificate, or a solve that
      misses its bound within AFFINE_MAX_SWEEPS sweeps. The
      sparse 2(M+1) system of _second_derivative_system in (w, F =
      cumtrapz w) is factored once with SuperLU (COLAMD ordering); w is
      the w-block of its solution for right-hand side [h'', 0]. Time and
      memory grow with the fill of the factor, not with M^2.

    f is then rebuilt by cumulative trapezoid rule with f'(c) = mu and the
    additive constant pinned by the anchor identity sum_{0<i<N} f(a_i) =
    -h(a_0). Solving for f by bare value-collocation least squares is
    first-order only: the homogeneous equation has continuous non-C^2
    solutions which the discretization sees as near-null modes. The
    collocation system is still assembled and its residuals at the
    returned solution reported.

    The affine route reports condition_bound >= kappa_inf(S), read from
    the certificate; the factored route condition_estimate ~ kappa_1(S).

    Raises DataMismatch when h(a_0) != h(a_N), and IllConditioned when
    the factorization finds the system exactly singular
    (condition_estimate = inf) or the route's condition number exceeds
    COND_CAP.
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

    condition = {}
    iterated = _iterated_solve(problem, nodes, step, M)
    if iterated is not None:
        w_sol, condition["condition_bound"] = iterated
    else:
        w_sol, condition["condition_estimate"] = _factored_solve(
            problem, nodes, step, M)

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
        anchor_identity_defect=anchor_defect, grid=M, **condition)
    return IvpSolution(f=f, diagnostics=diag)
