"""End-to-end treatment of the third-order problem
(m du/dx + n du/dy) d2u/dxdy = 0 on the curvilinear triangle O A1 A2,
u = g on the boundary.

The curve Gamma = {(alpha1(z), alpha2(z)) : z in [-1, 1]} meets the axes
at A2 = (0,1) (z = -1) and A1 = (1,0) (z = +1), with alpha1' >= 0 and
alpha2' <= 0. Projections along the characteristic directions induce two
maps zeta_i on Gamma; conjugating with omega(x, y) = n x - m y carries
(Gamma, zeta, Omega) onto an interval system (I, delta, Lambda) on
I = [-m, n] that is a P-configuration with anchors (-m, 0, n):

    delta1(t) = n alpha1(z(t)),   delta2(t) = -m alpha2(z(t)),

where z(t) inverts the strictly increasing profile omega(z) =
n alpha1(z) - m alpha2(z).

A BoundarySystem holds the interval side only, which is all that the
solvability analysis and the solve read. The Gamma side is built on
request: `gamma_system` gives (Gamma, zeta, Omega), `verify_omega_conjugacy`
samples the conjugacy between the two systems, and `omega_guiding_defect`
cross-checks the mapped guiding sets against delta_i'.

Solvability is decided in layers (contraction certificate, composite
fixed points, guided-cycle search, minimality probe); the solution is
reconstructed as u = phi(x) + psi(y) + chi(n x - m y) with chi solving the
reduced boundary functional equation and phi, psi recovered by
back-substitution. Everything is verified against the boundary data and
an interior finite-difference residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (CornerMismatch, DegenerateParametrization,
                     NotSolvableError)
from .exprlang import Expression, _scalar, as_callable, differentiate
from .funceq import GridFunction
from .gds import (ConjugacyReport, ContractionMinimalityCertificate,
                  GeneratorMap, GuidedSystem, GuidingSet, Interval, _distinct,
                  _newton, allowed_generators, check_contraction_minimality,
                  find_guided_cycles, probe_minimality, verify_conjugacy,
                  write_csv, zero_band_guiding)
from .pconf import IvpProblem, solve_ivp, validate_pconfiguration

TOL_SLOPE = 1e-8
TOL_CURVE = 1e-9     # curve checks of a BoundaryProblem, triangle membership
TOL_CORNER = 1e-8    # agreement of the boundary data at the corners
Z_TABLE_N = 257      # nodes of the omega table that starts the z(t) Newton
Z_MEMO_N = 2 ** 16   # solved z(t) values a boundary system keeps (1 MB)
SCAN_N = 4097        # grid of the omega' and delta_i' scans
FP_SCAN_N = 1025     # grid of the composite fixed-point scan

__all__ = [
    "BoundaryProblem", "BoundarySystem", "SolutionTriple", "BvpSolution",
    "FixedPointResult", "SolvabilityReport", "BoundaryReduction",
    "BvpVerification", "build_boundary_system", "gamma_system",
    "verify_omega_conjugacy", "omega_guiding_defect",
    "fixed_point", "analyze_solvability", "reduce_boundary_data",
    "solve_bvp", "verify_solution",
]


class BoundaryProblem:
    """Curve components, characteristic direction, and boundary data.

    g1 lives on the axis segment O A1 (a function of x in [0, 1]), g2 on
    O A2 (a function of y), g_gamma on Gamma (a function of the curve
    parameter z in [-1, 1]).
    """

    def __init__(self, alpha1, alpha2, m, n, g1, g2, g_gamma):
        if not (m > 0 and n > 0):
            raise ValueError("m, n must be positive")
        if not (isinstance(alpha1, Expression) and
                isinstance(alpha2, Expression)):
            raise ValueError("curve components must be expressions with "
                             "symbolic derivatives")
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.d_alpha1 = differentiate(alpha1)
        self.d_alpha2 = differentiate(alpha2)
        self.m = float(m)
        self.n = float(n)
        self.g1 = as_callable(g1)
        self.g2 = as_callable(g2)
        self.g_gamma = as_callable(g_gamma)
        self._validate()
        self.g_origin = _scalar(self.g1, 0.0)

    def _validate(self):
        a1, a2 = self.alpha1, self.alpha2
        ends = {
            "alpha1(-1) = 0": (a1, -1.0, 0.0),
            "alpha2(-1) = 1": (a2, -1.0, 1.0),
            "alpha1(1) = 1": (a1, 1.0, 1.0),
            "alpha2(1) = 0": (a2, 1.0, 0.0),
        }
        for name, (fn, z, want) in ends.items():
            got = _scalar(fn, z)
            if abs(got - want) > TOL_CURVE:
                raise ValueError(f"curve endpoint violated: {name}, "
                                 f"got {got!r}")
        zs = np.linspace(-1.0, 1.0, 2049)
        if np.min(self.d_alpha1(zs)) < -TOL_CURVE:
            raise ValueError("alpha1 must be nondecreasing")
        if np.max(self.d_alpha2(zs)) > TOL_CURVE:
            raise ValueError("alpha2 must be nonincreasing")
        g1_0 = _scalar(self.g1, 0.0)
        g2_0 = _scalar(self.g2, 0.0)
        g1_1 = _scalar(self.g1, 1.0)
        g2_1 = _scalar(self.g2, 1.0)
        gg_m1 = _scalar(self.g_gamma, -1.0)
        gg_p1 = _scalar(self.g_gamma, 1.0)
        if abs(g1_0 - g2_0) > TOL_CORNER:
            raise CornerMismatch(
                f"g1(0) = {g1_0!r} != g2(0) = {g2_0!r} at the origin")
        if abs(g1_1 - gg_p1) > TOL_CORNER:
            raise CornerMismatch(
                f"g1(1) = {g1_1!r} != g_gamma(+1) = {gg_p1!r} at A1")
        if abs(g2_1 - gg_m1) > TOL_CORNER:
            raise CornerMismatch(
                f"g2(1) = {g2_1!r} != g_gamma(-1) = {gg_m1!r} at A2")


def _make_z_of_t(omega_fn, omega_d_fn):
    """Inverse of the strictly increasing omega on [-1, 1].

    A monotone table of omega, built once, gives every t its bracket
    (searchsorted) and starting point (linear interpolation), and
    `gds._newton` solves omega(z) = t on all elements together. t <=
    omega(-1) (and NaN) maps to -1 and t >= omega(1) to +1, as a bisection
    on [-1, 1] would give.

    Solved values are memoized: a sorted table of the exact bits of each
    inner t (int64) beside its z. A call looks its values up and runs
    Newton only on its distinct misses. Each element's iteration depends
    on its own t alone, so a memoized z is bit-identical to a fresh one.
    The memo holds at most Z_MEMO_N values and starts over with the new
    ones when they do not fit; a call with more inner values than that
    bypasses it.
    """
    z_tab = np.linspace(-1.0, 1.0, Z_TABLE_N)
    w_tab = np.maximum.accumulate(np.asarray(omega_fn(z_tab), dtype=float))
    w_lo, w_hi = w_tab[0], w_tab[-1]
    memo_keys = np.empty(0, dtype=np.int64)
    memo_z = np.empty(0)

    def newton(t):
        j = np.clip(np.searchsorted(w_tab, t, side="right") - 1,
                    0, Z_TABLE_N - 2)
        return _newton(omega_fn, omega_d_fn, t, z_tab[j], z_tab[j + 1],
                       np.interp(t, w_tab, z_tab))[0]

    def memoized(t):
        nonlocal memo_keys, memo_z
        keys = t.view(np.int64)
        if memo_keys.size:
            pos = np.minimum(np.searchsorted(memo_keys, keys),
                             memo_keys.size - 1)
            out = memo_z[pos]
            miss = memo_keys[pos] != keys
        else:
            out = np.empty_like(t)
            miss = np.ones(t.size, dtype=bool)
        if miss.any():
            miss_keys = keys[miss]
            new_keys = _distinct(miss_keys)
            new_z = newton(new_keys.view(np.float64))
            out[miss] = new_z[np.searchsorted(new_keys, miss_keys)]
            if memo_keys.size + new_keys.size > Z_MEMO_N:
                memo_keys, memo_z = new_keys, new_z
            else:
                at = np.searchsorted(memo_keys, new_keys)
                memo_keys = np.insert(memo_keys, at, new_keys)
                memo_z = np.insert(memo_z, at, new_z)
        return out

    def z_of_t(t):
        t = np.asarray(t, dtype=float)
        tt = t.ravel()
        out = np.where(tt > w_lo, 1.0, -1.0)
        inner = (tt > w_lo) & (tt < w_hi)
        n_inner = np.count_nonzero(inner)
        if n_inner > Z_MEMO_N:
            out[inner] = newton(tt[inner])
        elif n_inner:
            out[inner] = memoized(tt[inner])
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)
    return z_of_t


@dataclass
class BoundarySystem:
    problem: BoundaryProblem
    interval: Interval
    omega: Expression      # n alpha1(z) - m alpha2(z)
    z_of_t: object
    delta1: GeneratorMap   # right map, range [0, n]
    delta2: GeneratorMap   # left map, range [-m, 0]
    omega_sets: tuple      # (Omega1, Omega2), z-parameter guiding sets
    lambda_sets: tuple     # (Lambda1, Lambda2) on [-m, n]
    pconf: object
    interval_system: GuidedSystem

    def omega_xy(self, x, y):
        return self.problem.n * np.asarray(x, dtype=float) - \
            self.problem.m * np.asarray(y, dtype=float)

    def curve_point(self, z):
        z = np.asarray(z, dtype=float)
        return self.problem.alpha1(z), self.problem.alpha2(z)

    def contains(self, x, y):
        """Membership in the closed curvilinear triangle, within TOL_CURVE."""
        tol = TOL_CURVE
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = self.omega_xy(x, y)
        ok = (x >= -tol) & (y >= -tol) & \
             (t >= self.interval.a - tol) & (t <= self.interval.b + tol)
        if np.any(ok):
            zt = self.z_of_t(np.where(ok, t, 0.0))
            x_star = self.problem.alpha1(zt)
            # moving from (x, y) along +(m, n) must reach Gamma
            ok = ok & ((x_star - x) / self.problem.m >= -tol)
        return ok


def build_boundary_system(problem: BoundaryProblem) -> BoundarySystem:
    """Construct the interval system (I, delta, Lambda) on I = [-m, n] that
    omega conjugates the boundary dynamics onto, and validate the
    P-configuration it induces. The Gamma side is `gamma_system`."""
    m, n = problem.m, problem.n
    omega = n * problem.alpha1 - m * problem.alpha2
    omega_d = differentiate(omega)
    omega_d2 = differentiate(omega_d)

    zs = np.linspace(-1.0, 1.0, SCAN_N)
    slope = omega_d(zs)
    if float(np.min(slope)) <= TOL_SLOPE:
        raise DegenerateParametrization(
            f"omega'(z) reaches {float(np.min(slope))!r} at "
            f"z = {float(zs[int(np.argmin(slope))])!r}; the conjugation "
            "is not strictly monotone")
    z_of_t = _make_z_of_t(omega, omega_d)
    interval = Interval(-m, n)

    def conjugated(c, alpha, da, label):
        """delta = c alpha(z(t)) on I with delta' and delta''."""
        d2a = differentiate(da)

        def delta(t):
            return c * alpha(z_of_t(t))

        def delta_d(t):
            z = z_of_t(t)
            return c * da(z) / omega_d(z)

        def delta_d2(t):
            z = z_of_t(t)
            w1 = omega_d(z)
            return c * (d2a(z) * w1 - da(z) * omega_d2(z)) / w1 ** 3

        return GeneratorMap(delta, delta_d, label=label, d2fn=delta_d2)

    delta1 = conjugated(n, problem.alpha1, problem.d_alpha1, 0)
    delta2 = conjugated(-m, problem.alpha2, problem.d_alpha2, 1)

    # guiding sets: tangencies of Gamma found in the z-parameter; the
    # interval guiding sets are their omega-images (exact for the strictly
    # monotone conjugation)
    z_iv = Interval(-1.0, 1.0)
    omega1 = zero_band_guiding(problem.d_alpha1, z_iv)
    omega2 = zero_band_guiding(-problem.d_alpha2, z_iv)

    def mapped_bands(om):
        bands = []
        for lo, hi in om.intervals:
            t_lo = _scalar(omega, lo)
            t_hi = _scalar(omega, hi)
            bands.append((min(t_lo, t_hi), max(t_lo, t_hi)))
        return GuidingSet(bands)

    lambda1 = mapped_bands(omega1)
    lambda2 = mapped_bands(omega2)
    # the induced P-configuration orders maps left-to-right
    pconf = validate_pconfiguration([delta2, delta1], interval,
                                    (-m, 0.0, n), tol=1e-7)
    interval_system = GuidedSystem(interval, [delta1, delta2],
                                   [lambda1, lambda2])
    return BoundarySystem(
        problem=problem, interval=interval, omega=omega, z_of_t=z_of_t,
        delta1=delta1, delta2=delta2, omega_sets=(omega1, omega2),
        lambda_sets=(lambda1, lambda2), pconf=pconf,
        interval_system=interval_system)


class _GammaSystem(GuidedSystem):
    """The guided system of `gamma_system`, whose maps are zeta_i =
    z(c_i alpha_i(z)). `step_each` evaluates c_i alpha_i on each
    generator's points and inverts omega once for all of them; z(t) is
    exact per element, so that is `step` per generator, bit for bit."""

    def __init__(self, z_of_t, scaled, generators, guiding):
        self.z_of_t = z_of_t
        self.scaled = scaled    # (c_i, alpha_i, alpha_i') per generator
        super().__init__(Interval(-1.0, 1.0), generators, guiding)

    def step_each(self, chosen, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.empty_like(x)
        for i, (c, alpha, _) in enumerate(self.scaled):
            sel = chosen == i
            if np.any(sel):
                t[sel] = c * alpha(x[sel])
        return self.space.normalize(np.asarray(self.z_of_t(t), dtype=float))


def gamma_system(system: BoundarySystem) -> GuidedSystem:
    """The guided system (Gamma, zeta, Omega) in the curve parameter z on
    [-1, 1]: zeta_i = z(c_i alpha_i(z)) with c = (n, -m), the maps that
    omega conjugates onto delta_i, with zeta_i'."""
    problem = system.problem
    omega_d = differentiate(system.omega)
    z_of_t = system.z_of_t
    scaled = ((problem.n, problem.alpha1, problem.d_alpha1),
              (-problem.m, problem.alpha2, problem.d_alpha2))

    def induced(c, alpha, da, label):
        def zeta(z):
            return z_of_t(c * alpha(z))

        def zeta_d(z):
            return c * da(z) / omega_d(zeta(z))

        return GeneratorMap(zeta, zeta_d, label=label)

    return _GammaSystem(
        z_of_t, scaled,
        [induced(*maps, label) for label, maps in enumerate(scaled)],
        list(system.omega_sets))


def verify_omega_conjugacy(system: BoundarySystem, rng) -> ConjugacyReport:
    """verify_conjugacy of gamma_system(system) against the interval
    system through omega, at 100 samples drawn from rng."""
    return verify_conjugacy(gamma_system(system), system.interval_system,
                            system.omega, system.z_of_t, samples=100,
                            rng=rng)


def omega_guiding_defect(system: BoundarySystem) -> float:
    """Cross-check of the mapped guiding sets against delta_i' on the
    SCAN_N grid of I: the largest |delta_i'| inside Lambda_i (0 when it
    vanishes there), or inf when delta_i' drops below 1e-10 more than
    1e-4 away from Lambda_i."""
    interval = system.interval
    defect = 0.0
    t_grid = interval.grid(SCAN_N)
    for lam, delta in zip(system.lambda_sets, (system.delta1,
                                               system.delta2)):
        vals = delta.derivative(t_grid)
        if not lam.is_empty:
            inside = np.abs(vals[lam.distance(t_grid, interval) == 0.0])
            if inside.size:
                defect = max(defect, float(np.max(inside)))
        off = vals[lam.distance(t_grid, interval) > 1e-4]
        if off.size and float(np.min(off)) < 1e-10:
            defect = max(defect, float("inf"))
    return defect


# --------------------------------------------------------------------------
# Fixed points of composed maps
# --------------------------------------------------------------------------

@dataclass
class FixedPointResult:
    t_star: float
    derivative: float
    conclusive: bool
    iterations: int
    in_guiding: bool = False


class FixedPoints(tuple):
    """The fixed points `fixed_point` finds; iterations sums their steps."""
    iterations = property(lambda self: sum(fp.iterations for fp in self))


def fixed_point(map_fn, bracket, d_fn) -> FixedPoints:
    """Every fixed point of map on the bracket, in increasing t.

    g = map - id is scanned on FP_SCAN_N nodes, and each maximal run of
    the scan where g changes sign or |g| <= 1e-12 is one fixed point: a
    run with a sign change is solved by `gds._newton` on its first one,
    started at the linear interpolation of the scan values, and a run
    without one is its node of least |g|, with 0 iterations. The
    attracting-fixed-point statement needs derivative < 1;
    |derivative - 1| < 1e-6 is reported inconclusive."""
    ts = np.linspace(float(bracket[0]), float(bracket[1]), FP_SCAN_N)
    g = np.asarray(map_fn(ts), dtype=float) - ts
    near, cross = np.abs(g) <= 1e-12, g[:-1] * g[1:] < 0.0
    # node j is cell 2j and the step to node j + 1 cell 2j + 1, which is
    # in a run when g changes sign on it or both of its nodes are near
    cells = np.empty(2 * FP_SCAN_N - 1, dtype=bool)
    cells[0::2], cells[1::2] = near, cross | (near[:-1] & near[1:])
    starts, stops = np.flatnonzero(np.diff(np.r_[False, cells, False])
                                   ).reshape(-1, 2).T
    first = np.r_[2 * np.flatnonzero(cross) + 1, cells.size]
    first = first[np.searchsorted(first, starts)]
    solved = first < stops
    j = (first[solved] - 1) // 2
    t_star, steps = np.empty(starts.size), np.zeros(starts.size, np.int64)
    t_star[solved], steps[solved] = _newton(
        lambda t: np.asarray(map_fn(t), dtype=float) - t,
        lambda t: np.asarray(d_fn(t), dtype=float) - 1.0, np.zeros(j.size),
        ts[j + (g[j] > 0.0)], ts[j + (g[j] < 0.0)],
        ts[j] + g[j] / (g[j] - g[j + 1]) * (ts[j + 1] - ts[j]))
    for r in np.flatnonzero(~solved):
        nodes = slice(starts[r] // 2, stops[r] // 2 + 1)
        t_star[r] = ts[nodes][np.argmin(np.abs(g[nodes]))]
    return _results(t_star, d_fn(t_star), steps)


def _results(t_star, deriv, steps):
    """FixedPoints at t_star with the map's derivative and the steps
    that solved them; |derivative - 1| < 1e-6 is inconclusive."""
    deriv = np.asarray(deriv, dtype=float)
    return FixedPoints(FixedPointResult(t, d, abs(d - 1.0) >= 1e-6, k)
                       for t, d, k in zip(t_star.tolist(), deriv.tolist(),
                                          steps.tolist()))


# --------------------------------------------------------------------------
# Solvability analysis
# --------------------------------------------------------------------------

@dataclass
class SolvabilityReport:
    status: str  # "solvable" | "not_solvable" | "inconclusive"
    route: str
    grade: str   # "certified" | "evidence"
    fixed_points: tuple = ()
    cycle_report: object = None
    witness_cycle: object = None
    notes: list = field(default_factory=list)


def analyze_solvability(system: BoundarySystem, eps: float = 0.01,
                        depth: int = 10 ** 5,
                        rng=None) -> SolvabilityReport:
    """Layered decision. (1) When the guiding sets are empty, a contraction
    certificate proves minimality of the unguided dynamics; with a guiding
    set it decides nothing and is not sought.
    (2) When every tangency lies strictly inside its boundary arc, all
    composite fixed points of delta1 o delta2 and delta2 o delta1 decide:
    an attracting one off the guiding union is a weak attractor
    (solvable); all of them inside it is not solvable; none decides none.
    Only delta1 o delta2 is solved; the fixed points of delta2 o delta1
    are their delta2-images, in the same order, with 0 iterations.
    (3) A guided cycle found by forward search refutes minimality
    outright. (4) Otherwise the minimality probe gives graded evidence.
    """
    isys = system.interval_system
    lam1, lam2 = system.lambda_sets
    m, n = system.problem.m, system.problem.n
    notes = []
    status = route = None
    grade = "certified"

    if lam1.is_empty and lam2.is_empty and isinstance(
            check_contraction_minimality(isys, rng=rng),
            ContractionMinimalityCertificate):
        status, route = "solvable", "contraction_certificate"

    fps = ()
    hyp = (all(lo > 1e-12 and hi < n - 1e-12 for lo, hi in lam1.intervals)
           and all(lo > -m + 1e-12 and hi < -1e-12
                   for lo, hi in lam2.intervals))
    if hyp:
        d1, d2 = system.delta1, system.delta2
        fps = fixed_point(lambda t: d1(d2(t)), (-m, n),
                          lambda t: d1.derivative(d2(t)) * d2.derivative(t))
        # delta2 maps them one-to-one onto the fixed points of delta2 o
        # delta1: x = delta1(delta2(x)) gives y = delta2(x) with
        # delta2(delta1(y)) = y
        if fps:
            ys = np.asarray(d2(np.array([fp.t_star for fp in fps])),
                            dtype=float)
            fps += _results(ys, d2.derivative(d1(ys)) * d1.derivative(ys),
                            np.zeros(ys.size, np.int64))
        for fp in fps:
            fp.in_guiding = len(allowed_generators(isys, fp.t_star)) < \
                isys.n_generators
        if status is None and fps:
            if all(fp.in_guiding for fp in fps):
                status, route = "not_solvable", "composite_fixed_points"
            elif any(fp.conclusive and fp.derivative < 1.0
                     and not fp.in_guiding for fp in fps):
                status, route = "solvable", "composite_fixed_points"
    else:
        notes.append("tangency-segment hypotheses fail; fixed-point route "
                     "skipped")

    cycles = find_guided_cycles(isys)
    witness = cycles.cycles[0] if cycles.cycles else None
    if cycles.cycles:
        if status == "solvable":
            notes.append("warning: a guided cycle coexists with a "
                         "solvable verdict; treating as not solvable")
        status, route = "not_solvable", route if status == "not_solvable" \
            else "guided_cycle"
    if status is None:
        probe = probe_minimality(isys, eps, depth)
        grade = "evidence"
        if probe.kind == "minimal_evidence":
            status, route = "solvable", "minimality_probe"
        elif probe.kind == "not_minimal":
            status, route = "not_solvable", "minimality_probe"
        else:
            status, route = "inconclusive", "minimality_probe"
    return SolvabilityReport(status=status, route=route, grade=grade,
                             fixed_points=fps, cycle_report=cycles,
                             witness_cycle=witness, notes=notes)


# --------------------------------------------------------------------------
# Boundary data reduction and solving
# --------------------------------------------------------------------------

@dataclass
class BoundaryReduction:
    h: GridFunction
    end_defect_a: float
    end_defect_b: float


def reduce_boundary_data(problem: BoundaryProblem, system: BoundarySystem,
                         M: int = 1024) -> BoundaryReduction:
    """h(t) = g_gamma(z(t)) - g1(x(t)) - g2(y(t)) + g(O) at the M + 1 grid
    nodes of [-m, n], the nodes of the chi solve of `solve_bvp`.

    With the additive constant pinned to g(O), corner compatibility makes
    h vanish at both interval ends; the defects are reported and checked
    against 1e-7.
    """
    gO = problem.g_origin

    def h_fn(t):
        z = system.z_of_t(t)
        x, y = system.curve_point(z)
        return (np.asarray(problem.g_gamma(z), dtype=float) -
                np.asarray(problem.g1(x), dtype=float) -
                np.asarray(problem.g2(y), dtype=float) + gO)

    ends = h_fn(np.array([system.interval.a, system.interval.b]))
    d_a, d_b = abs(float(ends[0])), abs(float(ends[1]))
    if max(d_a, d_b) > 1e-7:
        raise CornerMismatch(
            f"reduced data does not vanish at the interval ends: "
            f"h(-m) = {float(ends[0])!r}, h(n) = {float(ends[1])!r}")
    h_grid = GridFunction.from_callable(system.interval, M, h_fn)
    return BoundaryReduction(h=h_grid, end_defect_a=d_a, end_defect_b=d_b)


@dataclass
class SolutionTriple:
    phi: GridFunction
    psi: GridFunction
    chi: GridFunction
    mu: float
    chi0_defect: float


@dataclass
class BvpVerification:
    boundary_defect: float
    axis1_defect: float
    axis2_defect: float
    curve_defect: float
    pde_residual: float
    fd_step: float
    interior_points: int

    def to_dict(self, verdict):
        return {"boundary_defect": self.boundary_defect,
                "pde_residual": self.pde_residual,
                "verdict": verdict}


@dataclass
class BvpSolution:
    problem: BoundaryProblem
    system: BoundarySystem
    triple: SolutionTriple
    ivp_diagnostics: object
    solvability: object
    verification: BvpVerification = None
    _chi_smooth: object = None

    def chi_smooth(self):
        """Cubic-spline evaluation of the chi node values. The grid values
        are the solver state; the C^2 interpolant of the same data avoids
        paying the piecewise-linear kink error twice when chi is composed
        with the characteristic coordinates in the field."""
        if self._chi_smooth is None:
            from scipy.interpolate import CubicSpline
            chi = self.triple.chi
            self._chi_smooth = CubicSpline(chi.nodes, chi.values)
        return self._chi_smooth

    def field(self, x, y):
        """Sample u on points of the closed domain; outside points get
        NaN."""
        return np.where(self.system.contains(x, y), self._field_raw(x, y),
                        np.nan)

    def _field_raw(self, x, y):
        p = self.problem
        chi = self.chi_smooth()
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = self.system.omega_xy(x, y)
        return (np.asarray(p.g1(x), dtype=float) +
                np.asarray(p.g2(y), dtype=float) - p.g_origin +
                chi(t) - chi(p.n * x) - chi(-p.m * y))

    def field_csv(self, path):
        """u at the nodes of the 1/64 lattice of [0, 1]^2 inside the
        domain."""
        xs = np.arange(0.0, 1.0 + 1.0 / 128, 1.0 / 64)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        X, Y = X.ravel(), Y.ravel()
        inside = self.system.contains(X, Y)
        X, Y = X[inside], Y[inside]
        write_csv(path, "x,y,u", [X, Y, self._field_raw(X, Y)])


def solve_bvp(problem: BoundaryProblem, M: int = 512, mu: float = 0.0,
              eps: float = 0.01, depth: int = 10 ** 5) -> BvpSolution:
    """Full pipeline: build the boundary system, check solvability,
    reduce the boundary data, solve the interval problem for chi with
    chi'(0) = mu, back-substitute phi and psi, and verify.

    The gauge mu only shears the triple: the reconstructed field u is
    invariant because phi and psi absorb the linear terms.
    """
    system = build_boundary_system(problem)
    solvability = analyze_solvability(system, eps=eps, depth=depth)
    if solvability.status == "not_solvable":
        raise NotSolvableError(
            f"solvability analysis refused (route {solvability.route})",
            report=solvability)
    reduction = reduce_boundary_data(problem, system, M)
    ivp = solve_ivp(IvpProblem(system.pconf, reduction.h, c=0.0, mu=mu), M)
    chi = ivp.f
    chi0 = abs(chi.eval(0.0))
    m, n = problem.m, problem.n
    xs = np.linspace(0.0, 1.0, M + 1)
    phi = GridFunction(Interval(0.0, 1.0),
                       np.asarray(problem.g1(xs), dtype=float) -
                       chi.eval(n * xs))
    psi = GridFunction(Interval(0.0, 1.0),
                       np.asarray(problem.g2(xs), dtype=float) -
                       problem.g_origin - chi.eval(-m * xs))
    triple = SolutionTriple(phi=phi, psi=psi, chi=chi, mu=mu,
                            chi0_defect=chi0)
    solution = BvpSolution(problem=problem, system=system, triple=triple,
                           ivp_diagnostics=ivp.diagnostics,
                           solvability=solvability)
    solution.verification = verify_solution(solution)
    return solution


def verify_solution(solution: BvpSolution,
                    fd_step: float = 1.0 / 128) -> BvpVerification:
    """Boundary sup-defects (axes at 1024 points, Gamma at the curve
    images of the chi collocation nodes, where the interpolants of the
    reduction cancel exactly) and the interior finite-difference residual
    of the factored operator.

    The residual is taken at each node of the fd_step lattice of [0, 1]^2
    that lies in the domain with the 12 points of its stencil (`offsets`).
    Every such point is a node of that lattice padded by two steps per
    side, so membership is asked once, on the padded lattice, and u is
    evaluated once at each stencil point of the interior nodes; the
    differences read shifted windows of that one array. The nodes are
    k * fd_step: for a power-of-two fd_step they are exactly the shifted
    points x + i * fd_step, for any other step they agree to roundoff."""
    p = solution.problem
    system = solution.system
    m, n = p.m, p.n

    xs = np.linspace(0.0, 1.0, 1024)
    d1 = float(np.max(np.abs(
        solution._field_raw(xs, np.zeros_like(xs)) -
        np.asarray(p.g1(xs), dtype=float))))
    d2 = float(np.max(np.abs(
        solution._field_raw(np.zeros_like(xs), xs) -
        np.asarray(p.g2(xs), dtype=float))))
    t_nodes = solution.triple.chi.nodes
    z = system.z_of_t(t_nodes)
    cx, cy = system.curve_point(z)
    dg = float(np.max(np.abs(
        solution._field_raw(cx, cy) -
        np.asarray(p.g_gamma(z), dtype=float))))

    h = fd_step
    k = np.arange(0.0, 1.0 + h / 2, h).size     # lattice nodes per side
    pad = h * np.arange(-2, k + 2)
    X, Y = np.meshgrid(pad, pad, indexing="ij")
    offsets = [(2, 1), (2, -1), (-2, 1), (-2, -1), (0, 1), (0, -1),
               (1, 2), (1, -2), (-1, 2), (-1, -2), (1, 0), (-1, 0)]

    def window(a, ox, oy):
        """View of the padded-lattice array a at the k x k lattice nodes
        shifted by (ox, oy)."""
        return a[2 + ox:2 + ox + k, 2 + oy:2 + oy + k]

    inside = system.contains(X.ravel(), Y.ravel()).reshape(X.shape)
    interior = np.logical_and.reduce(
        [window(inside, ox, oy) for ox, oy in [(0, 0), *offsets]])
    n_interior = int(np.count_nonzero(interior))

    if n_interior:
        stencil = np.zeros_like(inside)
        for ox, oy in offsets:
            part = window(stencil, ox, oy)
            part |= interior
        U = np.full(X.shape, np.nan)
        U[stencil] = solution._field_raw(X[stencil], Y[stencil])

        def u(ox, oy):
            return window(U, ox, oy)[interior]

        def w(ox, oy):
            return (u(ox + 1, oy + 1) - u(ox + 1, oy - 1) -
                    u(ox - 1, oy + 1) + u(ox - 1, oy - 1)) / (4 * h * h)

        resid = (m * (w(1, 0) - w(-1, 0)) +
                 n * (w(0, 1) - w(0, -1))) / (2 * h)
        pde_res = float(np.max(np.abs(resid)))
    else:
        pde_res = float("nan")
    return BvpVerification(
        boundary_defect=max(d1, d2, dg), axis1_defect=d1, axis2_defect=d2,
        curve_defect=dg, pde_residual=pde_res, fd_step=h,
        interior_points=n_interior)
