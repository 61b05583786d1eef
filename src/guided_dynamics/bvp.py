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

from .errors import (CornerMismatch, DegenerateParametrization, NoBracket,
                     NotSolvableError)
from .exprlang import Expression, _scalar, as_callable, differentiate
from .funceq import GridFunction
from .gds import (ConjugacyReport, ContractionMinimalityCertificate,
                  GeneratorMap, GuidedSystem, GuidingSet, Interval, _distinct,
                  allowed_generators, check_contraction_minimality,
                  find_guided_cycles, probe_minimality, verify_conjugacy,
                  write_csv, zero_band_guiding)
from .pconf import IvpProblem, solve_ivp, validate_pconfiguration

TOL_SLOPE = 1e-8
TOL_CURVE = 1e-9     # curve checks of a BoundaryProblem, triangle membership
TOL_CORNER = 1e-8    # agreement of the boundary data at the corners
Z_TABLE_N = 257      # nodes of the omega table that starts the z(t) Newton
Z_MAX_ITER = 100     # hard cap on the z(t) steps of one element
Z_MEMO_N = 2 ** 16   # solved z(t) values a boundary system keeps (1 MB)
SCAN_N = 4097        # grid of the omega' and delta_i' scans

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
    (searchsorted) and starting point (linear interpolation). Newton then
    runs on all elements together, each keeping its own bracket; a step
    that leaves the bracket is replaced by the bracket midpoint. An element
    is accepted when omega(z) == t exactly or when its step or its bracket
    reaches ulp size. t <= omega(-1) (and NaN) maps to -1 and
    t >= omega(1) to +1, as a bisection on [-1, 1] would give.

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
        lo, hi = z_tab[j], z_tab[j + 1]
        z = np.interp(t, w_tab, z_tab)
        out = np.empty_like(t)
        active = np.arange(t.size)
        for _ in range(Z_MAX_ITER):
            f = np.asarray(omega_fn(z), dtype=float) - t
            fp = np.asarray(omega_d_fn(z), dtype=float)
            lo = np.where(f < 0.0, z, lo)
            hi = np.where(f > 0.0, z, hi)
            z_new = z - f / fp
            z_new = np.where((z_new > lo) & (z_new < hi), z_new,
                             0.5 * (lo + hi))
            ulp = np.spacing(np.abs(z_new))
            exact = f == 0.0
            out[active] = np.where(exact, z, z_new)
            todo = ~(exact | (np.abs(z_new - z) <= ulp) | (hi - lo <= ulp))
            if not todo.any():
                break
            active, t, z, lo, hi = (active[todo], t[todo], z_new[todo],
                                    lo[todo], hi[todo])
        return out

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


def gamma_system(system: BoundarySystem) -> GuidedSystem:
    """The guided system (Gamma, zeta, Omega) in the curve parameter z on
    [-1, 1]: zeta_i = z(c_i alpha_i(z)) with c = (n, -m), the maps that
    omega conjugates onto delta_i, with zeta_i'."""
    problem = system.problem
    omega_d = differentiate(system.omega)
    z_of_t = system.z_of_t

    def induced(c, alpha, da, label):
        def zeta(z):
            return z_of_t(c * alpha(z))

        def zeta_d(z):
            return c * da(z) / omega_d(zeta(z))

        return GeneratorMap(zeta, zeta_d, label=label)

    return GuidedSystem(
        Interval(-1.0, 1.0),
        [induced(problem.n, problem.alpha1, problem.d_alpha1, 0),
         induced(-problem.m, problem.alpha2, problem.d_alpha2, 1)],
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


def fixed_point(map_fn, bracket, d_fn) -> FixedPointResult:
    """Brent's method (scipy.optimize.brentq, xtol=1e-13) on map(t) - t. The
    attracting-fixed-point statement needs derivative < 1;
    |derivative - 1| < 1e-6 is reported inconclusive."""
    fn = as_callable(map_fn)
    lo, hi = float(bracket[0]), float(bracket[1])

    def g(t):
        return _scalar(fn, t) - t

    g_lo, g_hi = g(lo), g(hi)
    if g_lo < -1e-12 and g_hi < -1e-12 or (g_lo > 1e-12 and g_hi > 1e-12):
        raise NoBracket(
            f"map(t) - t has no sign change on [{lo}, {hi}] "
            f"(values {g_lo!r}, {g_hi!r})")
    if g_lo != 0 and g_hi != 0 and (g_lo > 0) == (g_hi > 0):
        # both ends within 1e-12 of a fixed point but of one sign, which
        # brentq refuses: the end nearer a root stands for it
        t_star, it = (lo if abs(g_lo) <= abs(g_hi) else hi), 0
    else:
        from scipy.optimize import brentq
        t_star, info = brentq(g, lo, hi, xtol=1e-13, full_output=True)
        it = info.iterations
    deriv = _scalar(as_callable(d_fn), t_star)
    return FixedPointResult(t_star=t_star, derivative=deriv,
                            conclusive=abs(deriv - 1.0) >= 1e-6,
                            iterations=it)


def _compose(g_outer: GeneratorMap, g_inner: GeneratorMap):
    def fn(t):
        return g_outer(g_inner(t))

    def dfn(t):
        return g_outer.derivative(g_inner(t)) * g_inner.derivative(t)

    return fn, dfn


# --------------------------------------------------------------------------
# Solvability analysis
# --------------------------------------------------------------------------

@dataclass
class SolvabilityReport:
    status: str  # "solvable" | "not_solvable" | "inconclusive"
    route: str
    grade: str   # "certified" | "evidence"
    certificate: object = None
    fixed_points: tuple = ()
    cycle_report: object = None
    witness_cycle: object = None
    probe: object = None
    notes: list = field(default_factory=list)


def analyze_solvability(system: BoundarySystem, eps: float = 0.01,
                        depth: int = 10 ** 5,
                        rng=None) -> SolvabilityReport:
    """Layered decision. (1) A contraction certificate proves minimality
    of the unguided dynamics, conclusive when the guiding sets are empty.
    (2) When every tangency lies strictly inside its boundary arc, the
    composite fixed points of delta1 o delta2 and delta2 o delta1 decide:
    a fixed point off the guiding union is a weak attractor (solvable);
    both fixed points inside it form a guided cycle (not solvable).
    (3) A guided cycle found by forward search refutes minimality
    outright. (4) Otherwise the minimality probe gives graded evidence.
    """
    isys = system.interval_system
    lam1, lam2 = system.lambda_sets
    m, n = system.problem.m, system.problem.n
    notes = []
    status = route = None
    grade = "certified"

    cert = check_contraction_minimality(isys, rng=rng)
    guiding_empty = lam1.is_empty and lam2.is_empty
    if isinstance(cert, ContractionMinimalityCertificate) and guiding_empty:
        status, route = "solvable", "contraction_certificate"

    fps = ()
    hyp = (all(lo > 1e-12 and hi < n - 1e-12 for lo, hi in lam1.intervals)
           and all(lo > -m + 1e-12 and hi < -1e-12
                   for lo, hi in lam2.intervals))
    if hyp:
        results = []
        for outer, inner in ((system.delta1, system.delta2),
                             (system.delta2, system.delta1)):
            fn, dfn = _compose(outer, inner)
            fp = fixed_point(fn, (system.interval.a, system.interval.b),
                             d_fn=dfn)
            fp.in_guiding = len(allowed_generators(isys, fp.t_star)) < \
                isys.n_generators
            results.append(fp)
        fps = tuple(results)
        if status is None:
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
    probe = None
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
                             certificate=cert, fixed_points=fps,
                             cycle_report=cycles, witness_cycle=witness,
                             probe=probe, notes=notes)


# --------------------------------------------------------------------------
# Boundary data reduction and solving
# --------------------------------------------------------------------------

@dataclass
class BoundaryReduction:
    h: GridFunction
    h_callable: object
    end_defect_a: float
    end_defect_b: float


def reduce_boundary_data(problem: BoundaryProblem, system: BoundarySystem,
                         M: int = 1024) -> BoundaryReduction:
    """h(t) = g_gamma(z(t)) - g1(x(t)) - g2(y(t)) + g(O) on [-m, n].

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
    return BoundaryReduction(h=h_grid, h_callable=h_fn,
                             end_defect_a=d_a, end_defect_b=d_b)


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
    ivp = solve_ivp(IvpProblem(system.pconf, reduction.h_callable,
                               c=0.0, mu=mu), M)
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
    of the factored operator."""
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
    xs = np.arange(0.0, 1.0 + h / 2, h)
    ys = np.arange(0.0, 1.0 + h / 2, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    offsets = [(2, 1), (2, -1), (-2, 1), (-2, -1), (0, 1), (0, -1),
               (1, 2), (1, -2), (-1, 2), (-1, -2), (1, 0), (-1, 0)]
    inside = system.contains(X, Y)
    for ox, oy in offsets:
        inside &= system.contains(X + ox * h, Y + oy * h)
    X, Y = X[inside], Y[inside]

    def u(px, py):
        return solution._field_raw(px, py)

    def w(px, py):
        return (u(px + h, py + h) - u(px + h, py - h) -
                u(px - h, py + h) + u(px - h, py - h)) / (4 * h * h)

    if X.size:
        resid = (m * (w(X + h, Y) - w(X - h, Y)) +
                 n * (w(X, Y + h) - w(X, Y - h))) / (2 * h)
        pde_res = float(np.max(np.abs(resid)))
    else:
        pde_res = float("nan")
    return BvpVerification(
        boundary_defect=max(d1, d2, dg), axis1_defect=d1, axis2_defect=d2,
        curve_defect=dg, pde_residual=pde_res, fd_step=h,
        interior_points=int(X.size))
