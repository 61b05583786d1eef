"""Orbit-propagation solving of overdetermined functional equations
f(F(x,y)) = H[f(x), f(y), x, y] from boundary data, and the affine
Cauchy-equation analysis in R^n.

The propagation realizes the constructive uniqueness argument: the two
generators alpha(x) = F(a, x) and beta(x) = F(x, b) are strict contractions
whose ranges cover [a, b], so the orbit set of the endpoints is dense and
the boundary values A = f(a), B = f(b) propagate to a value cloud. The
updates are affine in (A, B, v): v(map(t)) = cA(t) A + cB(t) B + cv(t) v(t)
+ c0(t), which covers every equation shape used here (Jensen, the Cauchy
equation on the boundary of the unit square, the geometric mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisFailure
from .exprlang import _scalar, as_callable
from .gds import Interval

__all__ = [
    "PropagationRule", "OverdetProblem", "PropagationCloud", "Collision",
    "ConsistencyReport", "AffineCauchyAnalysis",
    "propagate_values", "check_consistency", "analyze_affine",
    "verify_linear_solution", "orbit_convergence_rates",
]


def _const_or_callable(c):
    if callable(c):
        return as_callable(c)
    value = float(c)
    return lambda t, v=value: np.full_like(np.asarray(t, dtype=float), v)


@dataclass
class PropagationRule:
    """One generator map plus the affine update
    v(map(t)) = cA(t) A + cB(t) B + cv(t) v(t) + c0(t)."""
    map: object
    c_A: object = 0.0
    c_B: object = 0.0
    c_v: object = 0.0
    c_0: object = 0.0
    label: int = 0

    def __post_init__(self):
        self.map = as_callable(self.map) if not isinstance(self.map, str) \
            else None
        self.c_A = _const_or_callable(self.c_A)
        self.c_B = _const_or_callable(self.c_B)
        self.c_v = _const_or_callable(self.c_v)
        self.c_0 = _const_or_callable(self.c_0)

    def apply(self, t, v, A, B):
        t = np.asarray(t, dtype=float)
        return (self.c_A(t) * A + self.c_B(t) * B + self.c_v(t) * v +
                self.c_0(t))


class OverdetProblem:
    """Interval, boundary seed values, and propagation rules.

    Validation mirrors the uniqueness hypotheses: each map sends the
    interval into itself, strictly contracts sampled pairs, and the
    endpoints are attained by some map (root-bracketed).
    """

    def __init__(self, interval, A, B, rules, name="custom",
                 validate=True, rng=None):
        self.interval = interval if isinstance(interval, Interval) else \
            Interval(*interval)
        self.A = float(A)
        self.B = float(B)
        self.rules = tuple(rules)
        self.name = name
        if validate:
            self._validate(np.random.default_rng(0) if rng is None else rng)

    def _validate(self, rng, samples=256):
        iv = self.interval
        grid = iv.grid(2049)
        for rule in self.rules:
            img = np.asarray(rule.map(grid), dtype=float)
            if np.min(img) < iv.a - 1e-9 or np.max(img) > iv.b + 1e-9:
                raise HypothesisFailure(
                    "maps stay inside the interval",
                    witness=float(grid[int(np.argmax(
                        np.maximum(iv.a - img, img - iv.b)))]),
                    detail=f"rule {rule.label}")
            xs = iv.random(rng, samples)
            ys = iv.random(rng, samples)
            keep = xs != ys
            xs, ys = xs[keep], ys[keep]
            fx = np.asarray(rule.map(xs), dtype=float)
            fy = np.asarray(rule.map(ys), dtype=float)
            bad = np.abs(fx - fy) >= np.abs(xs - ys)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise HypothesisFailure(
                    "strict contraction",
                    witness=(float(xs[k]), float(ys[k])),
                    detail=f"rule {rule.label}")
        for endpoint in (iv.a, iv.b):
            if not self._attained(endpoint, grid):
                raise HypothesisFailure(
                    "endpoint attained by some map", witness=endpoint)

    def _attained(self, target, grid, tol=1e-9):
        for rule in self.rules:
            img = np.asarray(rule.map(grid), dtype=float)
            gap = np.abs(img - target)
            j = int(np.argmin(gap))
            if gap[j] <= tol:
                return True
            # bracket and bisect on map(t) - target
            sign = np.sign(img - target)
            flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            if flips.size:
                lo, hi = grid[flips[0]], grid[flips[0] + 1]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fm = _scalar(rule.map, mid)
                    if (fm - target) * (_scalar(rule.map, lo) - target) <= 0:
                        hi = mid
                    else:
                        lo = mid
                val = _scalar(rule.map, 0.5 * (lo + hi))
                if abs(val - target) <= tol:
                    return True
        return False

    # ---- builders for the equation shapes used in the corpus ----

    @classmethod
    def jensen(cls, interval, A, B, weight=0.5):
        """f(w x + (1-w) y) = w f(x) + (1-w) f(y)."""
        a, b = interval
        w1, w2 = weight, 1.0 - weight
        rules = (
            PropagationRule(map=lambda t: w1 * a + w2 * np.asarray(t, float),
                            c_A=w1, c_v=w2, label=0),
            PropagationRule(map=lambda t: w1 * np.asarray(t, float) + w2 * b,
                            c_B=w2, c_v=w1, label=1),
        )
        return cls(interval, A, B, rules, name="jensen")

    @classmethod
    def cauchy_boundary(cls, B):
        """The Cauchy equation f(x+y) = f(x) + f(y) restricted to the
        boundary of the square |x| + |y| <= 1, parametrized per side:
        f((t+1)/2) = (f(t) + f(1))/2 and f((t-1)/2) = (f(t) - f(1))/2 on
        [-1, 1]. Oddness forces A = f(-1) = -B."""
        rules = (
            PropagationRule(map=lambda t: (np.asarray(t, float) + 1.0) / 2.0,
                            c_B=0.5, c_v=0.5, label=0),
            PropagationRule(map=lambda t: (np.asarray(t, float) - 1.0) / 2.0,
                            c_B=-0.5, c_v=0.5, label=1),
        )
        return cls((-1.0, 1.0), -float(B), float(B), rules,
                   name="cauchy_boundary")

    @classmethod
    def geometric_mean(cls, interval, A, B):
        """f(sqrt(x y)) = (f(x) + f(y)) / 2 on a positive interval."""
        a, b = interval
        if a <= 0:
            raise ValueError("geometric mean needs a positive interval")
        rules = (
            PropagationRule(map=lambda t: np.sqrt(a * np.asarray(t, float)),
                            c_A=0.5, c_v=0.5, label=0),
            PropagationRule(map=lambda t: np.sqrt(b * np.asarray(t, float)),
                            c_B=0.5, c_v=0.5, label=1),
        )
        return cls(interval, A, B, rules, name="geometric_mean")


@dataclass
class Collision:
    point: float
    new_point: float
    existing_value: float
    new_value: float
    gap: float
    depth: int

    @property
    def values(self):
        return (self.existing_value, self.new_value)

    @property
    def point_separation(self):
        return abs(self.new_point - self.point)


@dataclass
class PropagationCloud:
    problem: OverdetProblem
    points: np.ndarray
    values: np.ndarray
    depths: np.ndarray
    parents: np.ndarray
    rule_ids: np.ndarray
    collisions: list
    max_collision_gap: float
    eps: float
    saturated: bool
    partial: bool

    def __len__(self):
        return self.points.size

    def order(self):
        return np.argsort(self.points)

    def path(self, idx):
        """Rule labels from the seed to entry idx."""
        labels = []
        k = int(idx)
        while self.parents[k] >= 0:
            labels.append(int(self.rule_ids[k]))
            k = int(self.parents[k])
        return k, labels[::-1]

    def recompute(self, idx):
        """Replay the derivation path; must reproduce the value bitwise."""
        seed, labels = self.path(idx)
        t = self.points[seed]
        v = self.values[seed]
        for lab in labels:
            rule = self.problem.rules[lab]
            v = _scalar(rule.apply, t, v, self.problem.A, self.problem.B)
            t = _scalar(rule.map, t)
        return t, v

    def to_csv(self, path):
        o = self.order()
        data = np.column_stack([self.points[o], self.values[o],
                                self.depths[o]])
        np.savetxt(path, data, fmt="%.17g", delimiter=",",
                   header="t,value,depth", comments="")


def propagate_values(problem: OverdetProblem, depth: int, eps: float,
                     cell_cap: int = 2 ** 22,
                     max_logged_collisions: int = 10000) -> PropagationCloud:
    """BFS from the endpoint seeds applying the affine updates,
    deduplicating per eps/2-cell and logging value collisions."""
    iv = problem.interval
    n_half = max(1, int(math.ceil(iv.length / (eps / 2.0))))
    width = iv.length / n_half

    def cell_of(p):
        return np.clip(((p - iv.a) / width).astype(np.int64), 0, n_half - 1)

    pts = [iv.a, iv.b]
    vals = [problem.A, problem.B]
    deps = [0, 0]
    pars = [-1, -1]
    rids = [-1, -1]
    cells = {int(cell_of(np.array([iv.a]))[0]): 0}
    c_b = int(cell_of(np.array([iv.b]))[0])
    collisions = []
    max_gap = 0.0
    if c_b in cells:
        raise ValueError("eps too coarse: seed cells collide")
    cells[c_b] = 1
    frontier = np.array([0, 1], dtype=np.int64)
    saturated = False
    partial = False
    level = 0
    pts_arr = np.array(pts)
    vals_arr = np.array(vals)
    while level < depth and frontier.size:
        cand_p, cand_v, cand_par, cand_rule = [], [], [], []
        src_p = pts_arr[frontier]
        src_v = vals_arr[frontier]
        for rule in problem.rules:
            new_p = np.clip(np.asarray(rule.map(src_p), dtype=float),
                            iv.a, iv.b)
            new_v = np.asarray(rule.apply(src_p, src_v, problem.A,
                                          problem.B), dtype=float)
            cand_p.append(new_p)
            cand_v.append(new_v)
            cand_par.append(frontier)
            cand_rule.append(np.full(frontier.size, rule.label,
                                     dtype=np.int64))
        cand_p = np.concatenate(cand_p)
        cand_v = np.concatenate(cand_v)
        cand_par = np.concatenate(cand_par)
        cand_rule = np.concatenate(cand_rule)
        cand_cells = cell_of(cand_p)
        level += 1
        fresh = []
        for j in range(cand_p.size):
            c = int(cand_cells[j])
            if c in cells:
                k = cells[c]
                gap = abs(float(cand_v[j]) - vals[k])
                if gap > max_gap:
                    max_gap = gap
                if len(collisions) < max_logged_collisions:
                    collisions.append(Collision(
                        point=float(pts[k]), new_point=float(cand_p[j]),
                        existing_value=float(vals[k]),
                        new_value=float(cand_v[j]), gap=float(gap),
                        depth=level))
            else:
                cells[c] = len(pts)
                pts.append(float(cand_p[j]))
                vals.append(float(cand_v[j]))
                deps.append(level)
                pars.append(int(cand_par[j]))
                rids.append(int(cand_rule[j]))
                fresh.append(len(pts) - 1)
        if not fresh:
            saturated = True
            break
        if len(pts) > cell_cap:
            partial = True
            break
        frontier = np.array(fresh, dtype=np.int64)
        pts_arr = np.array(pts)
        vals_arr = np.array(vals)
    return PropagationCloud(
        problem=problem, points=np.array(pts), values=np.array(vals),
        depths=np.array(deps), parents=np.array(pars),
        rule_ids=np.array(rids), collisions=collisions,
        max_collision_gap=max_gap, eps=eps, saturated=saturated,
        partial=partial)


@dataclass
class ConsistencyReport:
    verdict: str  # "consistent" | "inconsistent"
    max_collision_gap: float
    n_collisions: int
    lipschitz_estimate: float
    modulus_cap: float
    witness: object = None
    partial: bool = False

    @property
    def consistent(self):
        return self.verdict == "consistent"


def check_consistency(cloud: PropagationCloud, eps: float,
                      tol: float) -> ConsistencyReport:
    """Consistent iff every collision's value gap is explained by its
    point separation at the cloud's own Lipschitz scale (two derivations
    reaching the same cell may land eps/2 apart), and nearby cloud points
    have values within the modulus cap 10 * Lipschitz-estimate * eps."""
    o = cloud.order()
    p = cloud.points[o]
    v = cloud.values[o]
    span = max(cloud.problem.interval.length, 1e-300)
    lip = max((float(np.max(v)) - float(np.min(v))) / span, 1e-12) \
        if v.size > 1 else 1e-12
    cap = 10.0 * lip * eps + 10.0 * tol
    witness = None
    verdict = "consistent"
    for col in cloud.collisions:
        allowed = 10.0 * lip * col.point_separation + tol
        if col.gap >= allowed:
            verdict = "inconsistent"
            witness = col
            break
    if verdict == "consistent" and p.size > 1:
        dp = np.diff(p)
        dv = np.abs(np.diff(v))
        near = dp <= eps
        bad = near & (dv > cap)
        if np.any(bad):
            k = int(np.argmax(bad))
            verdict = "inconsistent"
            witness = ((float(p[k]), float(v[k])),
                       (float(p[k + 1]), float(v[k + 1])))
    return ConsistencyReport(
        verdict=verdict, max_collision_gap=float(cloud.max_collision_gap),
        n_collisions=len(cloud.collisions), lipschitz_estimate=lip,
        modulus_cap=cap, witness=witness, partial=cloud.partial)


# --------------------------------------------------------------------------
# Affine Cauchy equations in R^n
# --------------------------------------------------------------------------

@dataclass
class AffineCauchyAnalysis:
    A1: np.ndarray
    A2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d_tilde1: np.ndarray
    d_tilde2: np.ndarray
    gamma: float
    radius: int
    fixed_point_iterations: int

    def ball_family(self, m):
        """Centers and radius of K_m = B(d~1, m) u B(d~2, m)."""
        if m < self.radius:
            raise ValueError(f"m must be >= {self.radius}")
        return (self.d_tilde1, self.d_tilde2, float(m))

    def to_dict(self):
        return {
            "B1": self.B1.tolist(), "B2": self.B2.tolist(),
            "d1": self.d1.tolist(), "d2": self.d2.tolist(),
            "d_tilde1": self.d_tilde1.tolist(),
            "d_tilde2": self.d_tilde2.tolist(),
            "gamma": self.gamma, "radius": self.radius,
        }


def _fixed_point_iterate(Bmat, d, tol=1e-14, max_iter=100000):
    x = np.zeros_like(d)
    for it in range(1, max_iter + 1):
        x_new = Bmat @ x + d
        if np.max(np.abs(x_new - x)) <= tol * (1.0 + np.max(np.abs(x_new))):
            return x_new, it
        x = x_new
    raise HypothesisFailure("fixed-point iteration converges",
                            detail=f"no convergence in {max_iter} steps")


def analyze_affine(A1, A2, b1, b2) -> AffineCauchyAnalysis:
    """Hypothesis gate (symmetry, commutation, positive definiteness),
    then the full solvability record: B_i = A_i (A1 + A2)^{-1}, shifted
    fixed points d~_i found by iteration, the contraction factor gamma,
    and the invariant-ball radius bound."""
    A1 = np.atleast_2d(np.asarray(A1, dtype=float))
    A2 = np.atleast_2d(np.asarray(A2, dtype=float))
    b1 = np.atleast_1d(np.asarray(b1, dtype=float))
    b2 = np.atleast_1d(np.asarray(b2, dtype=float))
    n = A1.shape[0]
    if A1.shape != (n, n) or A2.shape != (n, n):
        raise ValueError("A1, A2 must be square and same size")
    for name, M in (("A1", A1), ("A2", A2)):
        if np.max(np.abs(M - M.T)) > 1e-10:
            raise HypothesisFailure("symmetry", detail=name)
    comm = np.max(np.abs(A1 @ A2 - A2 @ A1))
    if comm > 1e-10:
        raise HypothesisFailure("commutation",
                                detail=f"||A1 A2 - A2 A1|| = {comm!r}")
    for name, M in (("A1", A1), ("A2", A2)):
        eigs = np.linalg.eigvalsh(M)
        if np.min(eigs) <= 0.0:
            raise HypothesisFailure("positive definiteness",
                                    detail=f"{name} eigenvalue "
                                           f"{float(np.min(eigs))!r}")
    S = A1 + A2
    B1 = np.linalg.solve(S.T, A1.T).T
    B2 = np.linalg.solve(S.T, A2.T).T
    d1 = B1 @ (-b1 - b2) + b1
    d2 = B2 @ (-b1 - b2) + b2
    dt1, it1 = _fixed_point_iterate(B1, d1)
    dt2, it2 = _fixed_point_iterate(B2, d2)
    gamma = max(float(np.max(np.abs(np.linalg.eigvalsh(B1)))),
                float(np.max(np.abs(np.linalg.eigvalsh(B2)))))
    if gamma >= 1.0:
        raise HypothesisFailure("contraction factor below one",
                                detail=f"gamma = {gamma!r}")
    dist = float(np.linalg.norm(dt1 - dt2))
    radius = int(math.ceil(dist / (1.0 - gamma))) + 1
    return AffineCauchyAnalysis(
        A1=A1, A2=A2, b1=b1, b2=b2, B1=B1, B2=B2, d1=d1, d2=d2,
        d_tilde1=dt1, d_tilde2=dt2, gamma=gamma, radius=radius,
        fixed_point_iterations=max(it1, it2))


def orbit_convergence_rates(analysis: AffineCauchyAnalysis, which: int,
                            z0, steps: int = 20):
    """Per-step contraction ratios ||x_{k+1} - d~|| / ||x_k - d~|| along
    the delta_i orbit of z0."""
    Bmat = analysis.B1 if which == 1 else analysis.B2
    d = analysis.d1 if which == 1 else analysis.d2
    target = analysis.d_tilde1 if which == 1 else analysis.d_tilde2
    x = np.asarray(z0, dtype=float)
    rates = []
    err = np.linalg.norm(x - target)
    for _ in range(steps):
        x = Bmat @ x + d
        new_err = np.linalg.norm(x - target)
        if err > 0:
            rates.append(float(new_err / err))
        err = new_err
    return rates


def verify_linear_solution(maps, c=None, f=None, samples: int = 100,
                           rng=None, sampler=None):
    """Residual sup over samples of |f(m1(x) + m2(x)) - f(m1(x)) -
    f(m2(x))| for f(x) = c . x by default (an arbitrary f callable may be
    supplied, e.g. to confirm non-linear solutions when hypotheses fail).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if f is None:
        if c is None:
            raise ValueError("need either c or f")
        cvec = np.atleast_1d(np.asarray(c, dtype=float))
        f = lambda x: float(cvec @ np.asarray(x, dtype=float))
        dim = cvec.size
    else:
        dim = None
    if sampler is None:
        if dim is None:
            raise ValueError("need a sampler when f is supplied directly")
        sampler = lambda r, d=dim: r.uniform(-1.0, 1.0, d)
    m1, m2 = maps
    worst = 0.0
    for _ in range(samples):
        x = sampler(rng)
        y1 = np.asarray(m1(x), dtype=float)
        y2 = np.asarray(m2(x), dtype=float)
        resid = abs(f(y1 + y2) - f(y1) - f(y2))
        worst = max(worst, resid)
    return worst
