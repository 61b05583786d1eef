"""Orbit-propagation solving of overdetermined functional equations
f(F(x,y)) = H[f(x), f(y), x, y] from boundary data, and the affine
Cauchy-equation analysis in R^n.

The propagation realizes the constructive uniqueness argument: the two
generators alpha(x) = F(a, x) and beta(x) = F(x, b) are strict contractions
whose ranges cover [a, b], so the orbit set of the endpoints is dense and
the boundary values A = f(a), B = f(b) propagate to a value cloud.
`OverdetProblem` gates on exactly that hypothesis with the contraction
certificate `gds.check_contraction_minimality`: a contracting family whose
ranges cover [a, b] has [a, b] as its attractor (Hutchinson, Indiana Univ.
Math. J. 30, 1981). The updates are affine in (A, B, v): v(map(t)) =
cA(t) A + cB(t) B + cv(t) v(t) + c0(t), which covers every equation shape
used here (Jensen, the Cauchy equation on the boundary of the unit square,
the geometric mean).

The BFS is the closure kernel of `gds` with the values as its payload. A
level's candidates are each rule's images of the frontier, in cell order,
in turn; the first to reach an eps/2-cell claims it, and every other one is
a collision (two derivations of one cell), which `check_consistency` tests.
The cell cap counts the seeds. The cloud comes in point order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisFailure, MapEscape, ResolutionTooCoarse
from .exprlang import Expression, Num, _scalar, as_callable
from .gds import (ContractionRefusal, GuidedSystem, Interval, _closures,
                  check_contraction_minimality, write_csv)

__all__ = [
    "PropagationRule", "OverdetProblem", "PropagationCloud", "Collision",
    "ConsistencyReport", "AffineCauchyAnalysis",
    "propagate_values", "check_consistency", "analyze_affine",
    "orbit_convergence_rates",
]


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
        # an Expression map stays one, so the rules' guided system gets
        # its derivative for the contraction certificate
        if not isinstance(self.map, Expression):
            self.map = as_callable(self.map)
        self.c_A, self.c_B, self.c_v, self.c_0 = (
            as_callable(c if callable(c) else Num(float(c)))
            for c in (self.c_A, self.c_B, self.c_v, self.c_0))

    def apply(self, t, v, A, B):
        t = np.asarray(t, dtype=float)
        return (self.c_A(t) * A + self.c_B(t) * B + self.c_v(t) * v +
                self.c_0(t))


class OverdetProblem:
    """Interval, boundary seed values, and propagation rules.

    The rule maps form the unguided system `self.system`, which checks
    that they send the interval into itself; `check_contraction_minimality`
    then certifies the uniqueness hypotheses: each map strictly contracts
    sampled pairs, and the map ranges cover the interval. A failed
    hypothesis is a `HypothesisFailure`.
    """

    def __init__(self, interval, A, B, rules):
        self.interval = interval if isinstance(interval, Interval) else \
            Interval(*interval)
        self.A = float(A)
        self.B = float(B)
        self.rules = tuple(rules)
        try:
            self.system = GuidedSystem(self.interval,
                                       [rule.map for rule in self.rules])
        except MapEscape as exc:
            raise HypothesisFailure(
                "maps stay inside the interval", witness=exc.point,
                detail=f"rule {self.rules[exc.generator].label}") from exc
        verdict = check_contraction_minimality(self.system)
        if isinstance(verdict, ContractionRefusal):
            if verdict.failed == "range_cover":
                raise HypothesisFailure("map ranges cover the interval",
                                        detail=verdict.detail)
            raise HypothesisFailure(
                "strict contraction", witness=verdict.witness,
                detail=f"rule {self.rules[verdict.generator].label}")

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
        return cls(interval, A, B, rules)

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
        return cls((-1.0, 1.0), -float(B), float(B), rules)

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
        return cls(interval, A, B, rules)


@dataclass
class Collision:
    point: float
    new_point: float
    existing_value: float
    new_value: float
    gap: float
    depth: int


@dataclass
class PropagationCloud:
    """Propagated points in point order, their values and derivations
    (the parent's index and the index in `problem.rules` of the rule that
    made the point, -1 at the seeds), and every collision (a candidate
    reaching an owned eps/2-cell) as the owner's index, the candidate's
    point and value, and its BFS level."""
    problem: OverdetProblem
    points: np.ndarray
    values: np.ndarray
    depths: np.ndarray
    parents: np.ndarray
    rule_ids: np.ndarray
    collision_owner: np.ndarray
    collision_points: np.ndarray
    collision_values: np.ndarray
    collision_depths: np.ndarray
    eps: float
    saturated: bool
    partial: bool

    def __len__(self):
        return self.points.size

    @property
    def collision_gaps(self):
        return np.abs(self.collision_values -
                      self.values[self.collision_owner])

    def path(self, idx):
        """The seed of entry idx and the indices of the rules that lead
        from it to idx."""
        steps = []
        k = int(idx)
        while self.parents[k] >= 0:
            steps.append(int(self.rule_ids[k]))
            k = int(self.parents[k])
        return k, steps[::-1]

    def recompute(self, idx):
        """Replay the derivation path; must reproduce the value bitwise."""
        seed, steps = self.path(idx)
        t = self.points[seed]
        v = self.values[seed]
        for i in steps:
            rule = self.problem.rules[i]
            v = _scalar(rule.apply, t, v, self.problem.A, self.problem.B)
            t = _scalar(rule.map, t)
        return t, v

    def to_csv(self, path):
        write_csv(path, "t,value,depth",
                  [self.points, self.values, self.depths])


def propagate_values(problem: OverdetProblem, depth: int, eps: float,
                     cell_cap: int = 2 ** 22) -> PropagationCloud:
    """BFS from the endpoint seeds applying the affine updates: one run of
    `gds._closures` with the endpoints as one seed and the values as its
    payload, deduplicated per eps/2-cell (claim order: module docstring).
    It stops at `depth` levels, when a level adds no point (saturated), or
    when the cloud, seeds included, exceeds `cell_cap` points (partial).
    """
    iv = problem.interval
    n_half = iv.cell_count(eps / 2.0)
    seeds = np.array([[iv.a, iv.b]])
    seed_cells = iv.cell_index(seeds[0], n_half)
    if seed_cells[0] == seed_cells[1]:
        raise ResolutionTooCoarse(
            f"{eps!r} puts both endpoint seeds in one eps/2-cell; it must "
            f"be below twice the interval length {iv.length!r}")
    rules, A, B = problem.rules, problem.A, problem.B
    _, saturated, partial, _, _, (claims, hits) = _closures(
        problem.system, seeds, depth, eps, 2, cell_cap,
        payload=((A, B), lambda i, t, v: rules[i].apply(t, v, A, B)))
    return PropagationCloud(    # the losers are the collisions
        problem, *claims, *hits, eps=eps, saturated=bool(saturated[0]),
        partial=bool(partial[0]))


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
    have values within the modulus cap 10 * Lipschitz-estimate * eps.

    Every collision of the cloud is tested; the witness of an inconsistent
    verdict is the first violating collision in BFS order, as a
    `Collision`, or else the first pair of neighbouring points over the
    cap.
    """
    p, v = cloud.points, cloud.values
    span = max(cloud.problem.interval.length, 1e-300)
    lip = max((float(np.max(v)) - float(np.min(v))) / span, 1e-12) \
        if v.size > 1 else 1e-12
    cap = 10.0 * lip * eps + 10.0 * tol
    witness = None
    verdict = "consistent"
    own = cloud.collision_owner
    gaps = cloud.collision_gaps
    separation = np.abs(cloud.collision_points - cloud.points[own])
    bad = gaps >= 10.0 * lip * separation + tol
    if np.any(bad):
        k = int(np.argmax(bad))
        verdict = "inconsistent"
        witness = Collision(
            point=float(cloud.points[own[k]]),
            new_point=float(cloud.collision_points[k]),
            existing_value=float(cloud.values[own[k]]),
            new_value=float(cloud.collision_values[k]), gap=float(gaps[k]),
            depth=int(cloud.collision_depths[k]))
    else:
        # neighbours in point order, the cloud's own order
        bad = (np.diff(p) <= eps) & (np.abs(np.diff(v)) > cap)
        if np.any(bad):
            k = int(np.argmax(bad))
            verdict = "inconsistent"
            witness = ((float(p[k]), float(v[k])),
                       (float(p[k + 1]), float(v[k + 1])))
    return ConsistencyReport(
        verdict=verdict,
        # fmax skips NaN gaps, which compare false against any bound
        max_collision_gap=float(np.fmax.reduce(gaps, initial=0.0)),
        n_collisions=int(own.size), lipschitz_estimate=lip,
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

    def to_dict(self):
        return {
            "B1": self.B1.tolist(), "B2": self.B2.tolist(),
            "d1": self.d1.tolist(), "d2": self.d2.tolist(),
            "d_tilde1": self.d_tilde1.tolist(),
            "d_tilde2": self.d_tilde2.tolist(),
            "gamma": self.gamma, "radius": self.radius,
        }


def analyze_affine(A1, A2, b1, b2) -> AffineCauchyAnalysis:
    """Hypothesis gate (symmetry, commutation, positive definiteness),
    then the full solvability record: B_i = A_i (A1 + A2)^{-1}, the
    contraction factor gamma, the shifted fixed points d~_i solving
    (I - B_i) d~_i = d_i, and the invariant-ball radius bound."""
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
    gamma = max(float(np.max(np.abs(np.linalg.eigvalsh(B1)))),
                float(np.max(np.abs(np.linalg.eigvalsh(B2)))))
    if gamma >= 1.0:
        raise HypothesisFailure("contraction factor below one",
                                detail=f"gamma = {gamma!r}")
    dt1 = np.linalg.solve(np.eye(n) - B1, d1)
    dt2 = np.linalg.solve(np.eye(n) - B2, d2)
    dist = float(np.linalg.norm(dt1 - dt2))
    radius = int(math.ceil(dist / (1.0 - gamma))) + 1
    return AffineCauchyAnalysis(
        A1=A1, A2=A2, b1=b1, b2=b2, B1=B1, B2=B2, d1=d1, d2=d2,
        d_tilde1=dt1, d_tilde2=dt2, gamma=gamma, radius=radius)


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
