"""Guided dynamical systems on intervals, circles, and finite graphs.

A guided system is a family of generator maps delta_i together with closed
guiding sets Lambda_i; the step x -> delta_i(x) is forbidden whenever x lies
in Lambda_i. Orbit enumeration, minimality and weak-attractor probes, guided
cycle search, finite orbit graphs with terminal strongly connected
components, and conjugacy verification all live here.

Numerical semantics are evidence-graded: probes report verdicts at an
explicit resolution (eps) and search depth, never proofs. A point within
tol_lambda of a guiding set is treated as belonging to it, which can only
remove moves, so no improper orbit is ever emitted due to roundoff.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MapEscape, NotInvertible
from .exprlang import Expression, _scalar, as_callable, differentiate

TOL_LAMBDA = 1e-9
TOL_STEP = 1e-9
TOL_RANGE = 1e-9
MAX_CYCLE_LEN = 6    # default length bound of the guided cycle search
TOL_CYCLE = 1e-7     # distance at which a cycle search path closes
NEWTON_MAX_ITER = 100  # hard cap on the `_newton` steps of one element
ZERO_BAND_N = 8193     # grid of the `zero_band_guiding` scans
ZERO_BAND_TOL = 1e-9   # value below which they count a point as a root

__all__ = [
    "Interval", "CircleSpace", "FiniteGraphSpace",
    "GeneratorMap", "GuidingSet", "GuidedSystem", "Orbit",
    "OrbitCloud", "MinimalityVerdict", "WeakAttractorVerdict", "CycleReport",
    "ContractionMinimalityCertificate", "ContractionRefusal",
    "OrbitGraph", "ConjugacyReport",
    "allowed_generators", "guided_orbit_set", "probe_minimality",
    "probe_weak_attractor", "find_guided_cycles",
    "check_contraction_minimality", "build_orbit_graph",
    "minimal_subsystems", "verify_conjugacy",
    "zero_band_guiding", "map_from", "write_csv",
]


# --------------------------------------------------------------------------
# State spaces
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self):
        return self.b - self.a

    def metric(self, x, y):
        return np.abs(np.asarray(x, dtype=float) - y)

    def normalize(self, x):
        return np.clip(x, self.a, self.b)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all((x >= self.a - TOL_RANGE)
                           & (x <= self.b + TOL_RANGE)))

    def cell_count(self, eps):
        return max(1, int(math.ceil(self.length / eps)))

    def cell_index(self, x, n_cells):
        w = self.length / n_cells
        idx = np.floor((np.asarray(x, dtype=float) - self.a) / w).astype(np.int64)
        return np.clip(idx, 0, n_cells - 1)

    def cell_left_edges(self, n_cells):
        w = self.length / n_cells
        return self.a + w * np.arange(n_cells)

    def grid(self, n):
        return np.linspace(self.a, self.b, n)

    def random(self, rng, size):
        return rng.uniform(self.a, self.b, size)


@dataclass(frozen=True)
class CircleSpace:
    period: float = 2.0 * math.pi

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def length(self):
        return self.period

    def metric(self, x, y):
        d = np.mod(np.asarray(x, dtype=float) - y, self.period)
        return np.minimum(d, self.period - d)

    def normalize(self, x):
        return np.mod(x, self.period)

    def contains(self, x):
        """Whether every x is an angle: any finite real."""
        return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))

    def cell_count(self, eps):
        return max(1, int(math.ceil(self.period / eps)))

    def cell_index(self, x, n_cells):
        """Cell of each point x in [0, period], as normalize returns it:
        x = period is the angle 0, in cell 0."""
        x = np.asarray(x, dtype=float)
        w = self.period / n_cells
        idx = np.floor(x / w).astype(np.int64)
        if self.period / w < n_cells:
            # x = period rounds into the last cell, not to n_cells
            idx = np.where(x == self.period, 0, idx)
        return np.mod(idx, n_cells)

    def cell_left_edges(self, n_cells):
        w = self.period / n_cells
        return w * np.arange(n_cells)

    def grid(self, n):
        return np.linspace(0.0, self.period, n, endpoint=False)

    def random(self, rng, size):
        return rng.uniform(0.0, self.period, size)


@dataclass(frozen=True)
class FiniteGraphSpace:
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("node count must be >= 1")

    @property
    def length(self):
        return float(self.n_nodes)

    def metric(self, x, y):
        return (np.asarray(x) != np.asarray(y)).astype(float)

    def normalize(self, x):
        return np.asarray(x)

    def contains(self, x):
        """Whether every x is a node: an integer in [0, n_nodes)."""
        x = np.asarray(x)
        return bool(np.all((x >= 0) & (x < self.n_nodes)
                           & (x == np.floor(x))))

    def cell_count(self, eps):
        return self.n_nodes

    def cell_index(self, x, n_cells):
        return np.asarray(x, dtype=np.int64)

    def cell_left_edges(self, n_cells):
        return np.arange(self.n_nodes, dtype=float)

    def grid(self, n):
        return np.arange(self.n_nodes, dtype=float)

    def random(self, rng, size):
        return rng.integers(0, self.n_nodes, size).astype(float)


# --------------------------------------------------------------------------
# Generator maps and guiding sets
# --------------------------------------------------------------------------

class GeneratorMap:
    """One generator: a vector-capable callable plus (optionally) its
    derivative and the expression it came from.

    Circle maps must return raw (unwrapped) values; wrapping is applied by
    the orbit machinery, which keeps monotone endpoint arithmetic exact.
    """

    def __init__(self, fn, dfn=None, label=0, source=None, table=None,
                 d2fn=None):
        self.fn = fn
        self.dfn = dfn
        self.d2fn = d2fn
        self.label = label
        self.source = source
        self.table = None if table is None else np.asarray(table, dtype=np.int64)
        self.monotone = None  # "inc" | "dec" | None; set by GuidedSystem

    def __call__(self, x):
        if self.table is not None:
            return self.table[np.asarray(x, dtype=np.int64)]
        return self.fn(x)

    def derivative(self, x):
        if self.dfn is None:
            raise ValueError(f"generator {self.label} has no derivative")
        return self.dfn(x)

    @property
    def has_derivative(self):
        return self.dfn is not None

    def __repr__(self):
        src = f" {self.source}" if self.source is not None else ""
        return f"GeneratorMap(label={self.label}{src})"


def map_from(obj, label=0):
    """Build a GeneratorMap from an Expression (derivative derived
    symbolically) or a bare callable."""
    if isinstance(obj, GeneratorMap):
        return obj
    if isinstance(obj, Expression):
        d = differentiate(obj)
        return GeneratorMap(obj.eval, d.eval, label=label, source=obj,
                            d2fn=differentiate(d).eval)
    if callable(obj):
        return GeneratorMap(obj, None, label=label)
    raise TypeError(f"cannot build a generator map from {obj!r}")


class GuidingSet:
    """A closed set represented as a finite union of closed intervals
    (degenerate intervals are points)."""

    def __init__(self, intervals=()):
        ivs = []
        for lo, hi in intervals:
            lo, hi = float(lo), float(hi)
            if hi < lo:
                raise ValueError(f"interval [{lo}, {hi}] reversed")
            ivs.append((lo, hi))
        ivs.sort()
        self.intervals = tuple(ivs)
        # for distance: the running max of the right ends of each prefix
        # of members, led by -inf, and the next left end, trailed by +inf
        lo = np.array([iv[0] for iv in ivs] + [np.inf])
        hi = np.array([-np.inf] + [iv[1] for iv in ivs])
        self._lo, self._hi, self._next = lo[:-1], hi[1:], lo
        self._reach = np.maximum.accumulate(hi)

    @classmethod
    def points(cls, pts):
        return cls([(p, p) for p in pts])

    @classmethod
    def empty(cls):
        return cls(())

    @property
    def is_empty(self):
        return len(self.intervals) == 0

    def distance(self, x, space):
        """Pointwise distance from x (scalar or array) to the set: beyond
        the members starting at or before x, or before the next one; on a
        circle, from the angle of x to the arcs as _circle_arcs moves them."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.is_empty:
            return np.full(x.shape, np.inf)
        arcs = self
        if isinstance(space, CircleSpace):
            x = space.normalize(x)
            arcs = _circle_arcs(self, space.period)
        best = None
        # fmin: x = +-inf lies inf away, where inf - inf gives NaN; a zero
        # distance is +0.0 also at x = -0.0, where maximum takes the 0.0
        with np.errstate(invalid="ignore"):
            for k in _shifts(space):
                xc = x + k if k else x
                j = arcs._lo.searchsorted(xc, side="right")
                d = arcs._reach[j]
                np.subtract(xc, d, out=d)
                np.maximum(d, 0.0, out=d)
                after = arcs._next[j]
                np.subtract(after, xc, out=after)
                np.fmin(d, after, out=d)
                best = d if best is None else np.minimum(best, d, out=best)
        return best

    def covers_interval(self, lo, hi, space, tol=TOL_LAMBDA):
        """Mask of the intervals [lo, hi] (scalars or arrays) that lie
        inside a single member interval widened by tol; on a circle, at a
        shift by -period, 0 or +period."""
        return _inside_one(space, self._lo - tol, self._hi + tol, lo, hi)

    def sample(self):
        """Point members, and 33 equally spaced points of each interval."""
        pts = []
        for lo, hi in self.intervals:
            if hi - lo == 0.0:
                pts.append(lo)
            else:
                pts.extend(np.linspace(lo, hi, 33))
        return np.array(pts, dtype=float)

    def __repr__(self):
        return f"GuidingSet({list(self.intervals)!r})"


def _inside_one(space, lo_tol, hi_tol, s_lo, s_hi):
    """Mask of the intervals [s_lo, s_hi] that lie inside one member
    [lo_tol[k], hi_tol[k]] of a union listed by nondecreasing lo_tol; on a
    circle, at one of the shifts -period, 0, +period.

    The members starting at or before s_lo form a prefix, so a
    searchsorted and a running max of hi_tol (led by a NaN for the empty
    prefix) give what a loop over the members gives, from the same float
    comparisons."""
    reach = np.fmax.accumulate(np.r_[np.nan, hi_tol])
    return np.logical_or.reduce([
        s_hi + k <= reach[np.searchsorted(lo_tol, s_lo + k, side="right")]
        for k in _shifts(space)])


def _shifts(space):
    """The translates at which a point meets a union: -P, 0, +P on a circle."""
    return ((-space.period, 0.0, space.period)
            if isinstance(space, CircleSpace) else (0.0,))


def _step_rule(guiding, space, tol):
    """The allowed-step mask distance(x) > tol of a guiding set, for tol
    >= 0 and arrays x (on a circle, as normalize returns them): None
    when the set is empty (every step is allowed), else a function of x.

    At each shift k, x + k must lie more than tol past the members
    starting at or before it and more than tol before the next one: the
    subtractions of distance, whose fmin also answers alike at +-inf and
    NaN. On a circle the arcs start in [0, P), so no x in [0, P] comes
    within tol at the shift -P when the first arc starts beyond tol, nor
    at +P when every arc ends more than tol before P; those shifts are
    skipped."""
    if guiding.is_empty:
        return None
    lo, reach, nxt = guiding._lo, guiding._reach, guiding._next
    shifts = [k for k in _shifts(space)
              if not (k < 0.0 and lo[0] > tol
                      or k > 0.0 and space.period - reach[-1] > tol)]

    def allowed(x):
        mask = None
        for k in shifts:
            xc = x + k if k else x
            j = lo.searchsorted(xc, side="right")
            ok = np.fmin(xc - reach[j], nxt[j] - xc) > tol
            mask = ok if mask is None else mask & ok
        return mask
    return allowed


def _merge_intervals(lo, hi, slack):
    """The closed intervals [lo, hi] (arrays) as sorted, disjoint members:
    one opens where it starts past slack beyond the max of the ends before."""
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi) + slack
    heads = np.flatnonzero(lo > np.r_[-np.inf, reach[:-1]])
    return lo[heads], np.maximum.reduceat(hi, heads)


def _interval_images(space, gen, lo, hi, samples):
    """Images of the intervals [lo, hi] (arrays) under gen, wrapped by
    _wrap_images: exact endpoint images for monotone maps, the min and max
    over `samples` equally spaced points otherwise."""
    if gen.monotone is not None:
        e1 = np.asarray(gen(lo), dtype=float)
        e2 = np.asarray(gen(hi), dtype=float)
        img_lo, img_hi = np.minimum(e1, e2), np.maximum(e1, e2)
    else:
        # row n is np.linspace(lo[n], hi[n], samples)
        step = (hi - lo) / (samples - 1)
        xs = lo[:, None] + np.arange(samples) * step[:, None]
        xs[:, -1] = hi
        img = np.asarray(gen(xs.ravel()), dtype=float).reshape(xs.shape)
        img_lo, img_hi = img.min(axis=1), img.max(axis=1)
    return _wrap_images(space, img_lo, img_hi)


def _wrap_images(space, img_lo, img_hi):
    """(img_lo, img_hi, raw span); on a circle an image starts at
    normalize(img_lo) and keeps its raw span."""
    span = img_hi - img_lo
    if isinstance(space, CircleSpace):
        img_lo = space.normalize(img_lo)
        img_hi = img_lo + span
    return img_lo, img_hi, span


def _circle_arcs(guiding, period):
    """guiding with each arc moved by a multiple of period to start in
    [0, period), its length kept; an arc of length >= period is the whole
    circle. The same set when no arc moves."""
    arcs = []
    for lo, hi in guiding.intervals:
        if hi - lo >= period:
            lo, hi = 0.0, period
        elif not 0.0 <= lo < period:
            start = lo % period
            start = start if start < period else 0.0
            lo, hi = start, start + (hi - lo)
        arcs.append((lo, hi))
    return guiding if tuple(arcs) == guiding.intervals else GuidingSet(arcs)


class GuidedSystem:
    """State space + generators + guiding sets."""

    def __init__(self, space, generators, guiding=None, tol_lambda=TOL_LAMBDA,
                 validate=True):
        self.space = space
        self.generators = tuple(map_from(g, label=i)
                                for i, g in enumerate(generators))
        n = len(self.generators)
        if n < 1:
            raise ValueError("need at least one generator")
        if guiding is None:
            guiding = [GuidingSet.empty()] * n
        self.guiding = tuple(g if isinstance(g, GuidingSet) else GuidingSet(g)
                             for g in guiding)
        if isinstance(space, CircleSpace):
            # once here, so that distance needs only the shifts -P, 0, +P
            self.guiding = tuple(_circle_arcs(g, space.period)
                                 for g in self.guiding)
        if len(self.guiding) != n:
            raise ValueError("one guiding set per generator required")
        if not 0.0 <= tol_lambda < math.inf:
            raise ValueError(f"tol_lambda must be finite and >= 0, got "
                             f"{tol_lambda!r}")
        self.tol_lambda = tol_lambda
        # each generator's allowed-step rule, built once (None: no guiding)
        self.rules = tuple(_step_rule(g, space, tol_lambda)
                           for g in self.guiding)
        if validate:
            self._validate()

    @property
    def n_generators(self):
        return len(self.generators)

    def _validate(self):
        space = self.space
        if isinstance(space, FiniteGraphSpace):
            for g in self.generators:
                if g.table is None:
                    raise ValueError("finite-graph generators need node tables")
                if not space.contains(g.table):
                    raise MapEscape("node table leaves the graph",
                                    generator=g.label)
        else:
            xs = space.grid(513)
            for g in self.generators:
                img = np.asarray(g(xs), dtype=float)
                if isinstance(space, Interval) and not space.contains(img):
                    bad = int(np.argmax(np.maximum(space.a - img,
                                                   img - space.b)))
                    raise MapEscape(
                        f"generator {g.label} leaves the interval at "
                        f"x={xs[bad]!r} (image {img[bad]!r})",
                        generator=g.label, point=xs[bad], image=img[bad])
                g.monotone = _classify_monotone(g, xs)
        # The guiding sets must have empty common intersection (with one
        # generator, its guiding set must be empty). When it is not empty
        # it holds the left end of a member (the largest left end of the
        # members around one of its points); on a circle, of an arc, and
        # distance matches arcs modulo the period.
        if all(not g.is_empty for g in self.guiding):
            ends = np.concatenate([g._lo for g in self.guiding])
            common = ends[np.all([g.distance(ends, space) == 0.0
                                  for g in self.guiding], axis=0)]
            if common.size:
                raise ValueError(
                    f"guiding sets intersect at {float(common[0])!r}; the "
                    "intersection over all generators must be empty")

    def allowed_mask(self, i, x):
        """dist(x, Lambda_i) > tol_lambda at the points x (a scalar is 1-d)
        as a mask, from rules[i]; on a circle, at the angles of x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rule = self.rules[i]
        if rule is None:
            return np.ones(x.shape, dtype=bool)
        with np.errstate(invalid="ignore"):    # x = +-inf: inf - inf
            if isinstance(self.space, CircleSpace):
                x = self.space.normalize(x)
            return rule(x)

    def step(self, i, x):
        """delta_i(x), normalized, as a float array (a scalar is 1-d)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.space.normalize(
            np.asarray(self.generators[i](x), dtype=float))

    def step_each(self, chosen, x):
        """delta_{chosen[k]}(x[k]) for every k, normalized, as a float
        array; each chosen[k] must be a generator index. Each generator
        steps its own points, as `step` does."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        for i in range(self.n_generators):
            sel = chosen == i
            if np.any(sel):
                out[sel] = self.step(i, x[sel])
        return out


def _classify_monotone(gen, xs):
    if gen.has_derivative:
        d = np.asarray(gen.derivative(xs), dtype=float)
        if np.all(d >= -1e-12):
            return "inc"
        if np.all(d <= 1e-12):
            return "dec"
        return None
    vals = np.asarray(gen(xs), dtype=float)
    dv = np.diff(vals)
    if np.all(dv >= -1e-12):
        return "inc"
    if np.all(dv <= 1e-12):
        return "dec"
    return None


def allowed_generators(system: GuidedSystem, x) -> tuple:
    """Indices i with dist(x, Lambda_i) > tol_lambda (0-based)."""
    return tuple(i for i in range(system.n_generators)
                 if system.allowed_mask(i, x)[0])


# --------------------------------------------------------------------------
# Orbits
# --------------------------------------------------------------------------

@dataclass
class Orbit:
    points: np.ndarray
    gens: tuple

    def __len__(self):
        return len(self.points)


# --------------------------------------------------------------------------
# Breadth-first guided orbit closure
# --------------------------------------------------------------------------

@dataclass
class OrbitCloud:
    """A closure from guided_orbit_set; points sorted, one per eps/2-cell.
    It stops at full coverage, unsaturated (untested there), and depth_used
    is the level that touched the last eps-cell. saturated means stalled or
    blocked short of full coverage, with a validated witness."""
    points: np.ndarray
    coverage: float
    eps: float
    saturated: bool
    partial: bool
    depth_used: int
    seed: float

    def to_csv(self, path):
        write_csv(path, "t", [self.points])


# rows formatted per block in write_csv; 2**14 rows keep each temporary at
# 128 KiB. On two threads, 524 288 rows x 3 columns took 236-237 ms (two
# medians of 20 rounds) against 273-300 at 2**13 and 221-228 at 2**15,
# whose worker holds twice the memory: a worker's malloc arena keeps one
# block's temporaries, 6.5 MB of peak RSS at 2**14 and 12.5 at 2**15
_CSV_BLOCK_ROWS = 1 << 14

# write_csv formats a field as 32 bytes, four little-endian uint64 words:
# bytes 0-1 spare, 2 the sign slot, 3-6 "0000" (the zeros of 0.000ddd),
# 7-23 the 17 digits of round(|x| * 10**(16 - X)) for the decimal exponent
# X of x, 24 room for the digit the '.' pushes right, 25 the separator.
# The '.' goes in at byte X + 8. Tables below are indexed by X in [-4, 16]
# and the sign: i = X + 4 + 21 * negative.
_WORD = np.dtype("<u8")
_SPLIT = 134217729.0                          # 2**27 + 1, Dekker's split
_POW10 = np.array([float(10 ** k) for k in range(23)])    # exact doubles
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGIT = np.arange(48, 58, dtype=np.uint64)     # ASCII "0" .. "9"
_QUAD_TEXT = (_DIGIT[:, None, None, None] | _DIGIT[:, None, None] << 8
              | _DIGIT[:, None] << 16 | _DIGIT << 24).ravel()  # 0000 .. 9999
_QUAD_ZEROS = np.zeros(10000, dtype=np.intp)   # trailing zeros of 0 .. 9999
for _step in (10, 100, 1000, 10000):
    _QUAD_ZEROS[::_step] += 1


def _byte_words(rows):
    """Rows of 32 bytes as four arrays, word k of every row."""
    words = np.ascontiguousarray(rows, dtype=np.uint8).view(_WORD)
    return [np.ascontiguousarray(w) for w in words.T]


_FIELD_BYTE = np.arange(32)
_EXP = np.tile(np.arange(-4, 17), 2)[:, None]
_NEG = np.repeat([False, True], 21)[:, None]
_DOT_BYTE = _EXP + 8
_SIGN_BYTE = _NEG & (_FIELD_BYTE == np.minimum(6, _EXP + 6))
# bytes left of the '.' stay, bytes right of it take their left neighbour
_STAY = _byte_words(np.where((_FIELD_BYTE < _DOT_BYTE) & ~_SIGN_BYTE, 255, 0))
_MOVE = _byte_words(np.where(_FIELD_BYTE > _DOT_BYTE, 255, 0))
_MARKS = _byte_words(np.where(_FIELD_BYTE == _DOT_BYTE, ord("."),
                              np.where(_SIGN_BYTE, ord("-"), 0)))
# bytes printed, by 17 * i + (trailing zero digits): from the sign or the
# first integer digit through the last nonzero fraction digit, or through
# the units digit when the fraction is all zeros; plus the separator
_TZ = np.arange(17)
_START = (np.minimum(7, _EXP + 7) - _NEG)[..., None]
_STOP = np.where(_TZ < 16 - _EXP, 25 - _TZ, _EXP + 8)[..., None]
_SHOWN = _byte_words(((_FIELD_BYTE >= _START) & (_FIELD_BYTE < _STOP)
                      | (_FIELD_BYTE == 25)).reshape(-1, 32))
_SHOWN_PLAIN = _byte_words((_FIELD_BYTE < np.arange(25)[:, None])
                           | (_FIELD_BYTE == 25))      # by text length

# an integer 0 <= v < _INT_LIMIT is an 8-byte field, one word: bytes 0-3
# its four digits with leading zeros (_QUAD_TEXT[v]), byte 4 the separator.
# %.17g of float(v) prints those digits without the leading zeros;
# _QUAD_SHOWN[v] shows them and the separator.
_INT_LIMIT = 10 ** 4
_QUAD_DIGITS = np.ones(10000, dtype=np.intp)   # digits of 0 .. 9999
for _step in (10, 100, 1000):
    _QUAD_DIGITS[_step:] += 1
_QUAD_SHOWN = _byte_words((np.arange(8) >= 4 - _QUAD_DIGITS[:, None])
                          & (np.arange(8) <= 4))[0]


def _scaled(ax, e):
    """(hi, lo) with hi + lo = ax * 10**(16 - e) exactly: Dekker's
    TwoProduct with the 2**27 + 1 split (NumPy has no fused multiply-add)."""
    k = 16 - e
    p, p_hi, p_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    c = _SPLIT * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    hi = ax * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _format_fields(x, text, shown, sep):
    """Write each x's %.17g text and then the separator byte sep into its
    32-byte field: text[r] holds four words of bytes, shown[r] one 0/1
    byte per text byte that is printed."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)     # where %.17g is fixed notation
    ax[~fast] = 1.0
    e = np.clip(np.floor(np.log10(ax)), -4, 16).astype(np.intp)
    hi, lo = _scaled(ax, e)
    # log10 can miss the exponent by one next to a power of ten; the exact
    # test 1e16 <= hi + lo < 1e17 finds every miss
    under = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    over = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    miss = np.flatnonzero(under | over)
    if miss.size:
        e[miss] += over[miss].astype(np.intp) - under[miss]
        hi[miss], lo[miss] = _scaled(ax[miss], e[miss])
    # hi >= 1e16 > 2**53 is an even integer, so rounding lo half-even
    # rounds hi + lo half-even, as %.17g does
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= n < 10 ** 17      # never false for a double; kept as a guard
    upper, lower = np.divmod(n, 10 ** 8)
    lead, upper = np.divmod(upper, 10 ** 8)
    quads = np.divmod(upper, 10 ** 4) + np.divmod(lower, 10 ** 4)
    zeros = _QUAD_ZEROS[quads[3]]
    tail = quads[3] == 0
    for q in quads[2::-1]:
        zeros += tail * _QUAD_ZEROS[q]
        tail &= q == 0
    q0, q1, q2, q3 = (_QUAD_TEXT[q] for q in quads)
    i = e + 4 + 21 * np.signbit(x)
    words = (((lead.astype(np.uint64) + 48) << 56) | (0x3030303030 << 16),
             q0 | (q1 << 32), q2 | (q3 << 32), np.uint64(0))
    left = np.uint64(0)
    for k, w in enumerate(words):
        text[:, k] = ((w & _STAY[k][i]) | _MARKS[k][i]
                      | (((w << 8) | (left >> 56)) & _MOVE[k][i]))
        left = w
    text[:, 3] |= sep << 8
    j = 17 * i + zeros
    for k in range(4):
        shown[:, k] = _SHOWN[k][j]
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ["%.17g" % v for v in x[slow].tolist()]
        text[slow, :3] = np.frombuffer(
            "".join([t.ljust(24) for t in texts]).encode(),
            dtype=_WORD).reshape(-1, 3)
        lengths = [len(t) for t in texts]
        for k in range(4):
            shown[slow, k] = _SHOWN_PLAIN[k][lengths]


def _format_ints(v, text, shown, sep):
    """Write each integer v in [0, _INT_LIMIT) and then the separator byte
    sep into its 8-byte field (one word of text and of shown)."""
    v = v.astype(np.intp)
    text[:, 0] = _QUAD_TEXT[v] | (sep << 32)
    shown[:, 0] = _QUAD_SHOWN[v]


def _csv_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _csv_block(columns, seps, start):
    """The bytes of rows start .. start + _CSV_BLOCK_ROWS (fewer at the
    end) of the columns."""
    block = [c[start:start + _CSV_BLOCK_ROWS] for c in columns]
    # fields of 1 word (digit table) or 4 (float path)
    widths = [1 if c.dtype.kind in "iu" and c.min() >= 0
              and c.max() < _INT_LIMIT else 4 for c in block]
    text = np.empty((len(block[0]), sum(widths)), dtype=_WORD)
    shown = np.empty_like(text)
    at = 0
    for c, sep, width in zip(block, seps, widths):
        fields = np.s_[:, at:at + width]
        if width == 1:
            _format_ints(c, text[fields], shown[fields], sep)
        else:
            _format_fields(c.astype(float, copy=False), text[fields],
                           shown[fields], sep)
        at += width
    return text.view(np.uint8)[shown.view(bool)]


def write_csv(path, header, columns):
    """Write the columns as CSV rows of %.17g numbers under a one-line
    header: the bytes np.savetxt(fmt="%.17g", delimiter=",",
    header=header, comments="") writes, with integer columns taken as
    float64. Every |x| in [1e-4, 1e17), where %.17g prints fixed notation,
    is formatted in NumPy, exactly: Dekker's error-free product gives the
    17 digits rounded half-even. The rest (0, nan, inf, |x| < 1e-4 and
    |x| >= 1e17) go through "%.17g" % x one by one. An integer-dtype
    column (int or uint, any width) whose values in a block all lie in
    [0, 10**4) is written from a digit table instead: the text of such a v
    is its decimal digits, %.17g of float(v). A block holding a negative
    value or one of 10**4 or more is cast to float64 and takes the float
    path.

    Rows are formatted in blocks of _CSV_BLOCK_ROWS and written in block
    order, in groups of one block per thread: one thread per CPU the
    process may run on, at most one per block. The calling thread formats
    the first block of a group and a thread pool of the other threads the
    rest (NumPy releases the GIL in its loops, so they format at once);
    the next group starts once this one is written, so at most one block
    per thread is held. A CSV of one block starts no thread. The bytes do
    not depend on the thread count. An exception raised while formatting
    a block is raised here, and every worker has ended when write_csv
    returns or raises."""
    columns = [np.asarray(c) for c in columns]
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    starts = range(0, len(columns[0]), _CSV_BLOCK_ROWS)
    threads = max(1, min(_csv_cpus(), len(starts)))
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        if threads == 1:
            for start in starts:
                fh.write(_csv_block(columns, seps, start))
            return
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            for k in range(0, len(starts), threads):
                group = [pool.submit(_csv_block, columns, seps, start)
                         for start in starts[k + 1:k + threads]]
                fh.write(_csv_block(columns, seps, starts[k]))
                for future in group:
                    fh.write(future.result())


_REFINE_MULTS = (2, 8, 32)   # single-seed closures escalate on stalls
_PROBE_MULTS = (16, 64)      # many-seed probes start fine to avoid restarts


def _heads(ordered):
    """Mask of the first element of each run of equal values."""
    if not ordered.size:
        return np.zeros(0, dtype=bool)
    return np.concatenate(([True], ordered[1:] != ordered[:-1]))


def _distinct(keys):
    """The distinct integer keys, sorted, as NumPy's ``unique`` gives them,
    from a sort and an adjacent-difference mask (``unique`` itself takes a
    slower hash path)."""
    ordered = np.sort(keys)
    return ordered[_heads(ordered)]


def _first_claims(keys, free):
    """First-claim dedup: for each distinct key among the candidates
    marked ``free``, the index of the first such candidate, in candidate
    order, to carry it. The indices come in key order: the first indices
    that NumPy's ``unique`` returns for ``keys[free]``, mapped back to
    ``keys``."""
    # method calls: the np.* wrappers cost microseconds on thin frontiers
    sub = keys[free]
    order = sub.argsort(kind="stable")
    return free.nonzero()[0][order[_heads(sub[order])]]


def _provenance(sel, blocks, keys):
    """The generator and the parent's key of each candidate index in
    `sel`, from the level's blocks (start, generator, mask of the frontier
    or None for all of it) and the frontier's keys; -1 at level 0."""
    if not blocks:
        return np.full((2, sel.size), -1, dtype=np.int64)
    starts, gens, masks = zip(*blocks)
    b = np.searchsorted(starts, sel, side="right") - 1
    src = sel - np.take(starts, b)
    for k, mask in enumerate(masks):
        if mask is not None:
            src[b == k] = mask.nonzero()[0][src[b == k]]
    return np.take(gens, b), keys[src]


def _joined(levels, order=slice(None)):
    """Per-level tuples of arrays joined column by column (each column's
    pieces freed first) and taken in `order`, with each row's level last."""
    columns = [list(column) for column in zip(*levels)]
    columns.append([np.full(lv[0].size, k) for k, lv in enumerate(levels)])
    levels.clear()
    joined = []
    while columns:
        joined.append(np.concatenate(columns.pop(0))[order])
    return joined


def _closures(system, seeds, depth, eps, fine_mult, cell_cap, target=None,
              keep_points=False, payload=None):
    """Guided BFS from many seeds at once: one shared vectorized frontier
    carrying a seed-id column, deduplicated per seed at resolution
    eps/fine_mult. A seed is a start point or a row of start points.

    A run with neither a target nor a payload counts the eps-cells each
    seed touches (cov_count) each level and retires a seed that touches
    every one; any other run counts none (cov_count None). A seed with a
    target retires on entering B(target, eps) (hit). Returns (cov_count,
    saturated, partial, hit, depth_used, points) indexed by seed:
    'saturated' marks seeds whose frontier emptied before they retired,
    'partial' those whose fine cells, start points included, outnumber
    cell_cap. With keep_points, points[k] is seed k's representatives
    (the first to land in each occupied fine cell) in fine-cell order;
    else points is None.

    A payload (start values, update) gives each point a value, and
    update(i, p, v) the values of generator i's images of frontier points
    p with values v. points is then (claims, losers): (point, value,
    level, parent, generator) of each representative in fine-cell order
    (point order for one seed on an interval), and (owner, point, value,
    level) of each candidate that lands in a taken cell, in BFS order.
    Parents (-1 at a start point) and owners index the claims.

    A run of more than one seed that keeps no points and carries no
    payload settles seeds by orbit inclusion (a run that keeps points
    must run each seed to its own end): when one of a seed's candidates
    lands in a fine cell holding a start point of a seed with a lower
    index, the seed links to the lowest such seed of its first such
    candidate's cell and takes, at the end, that seed's outcome (cov_count,
    saturated, partial, hit). The candidate stands for that start point,
    as a claimed cell's representative stands for a later candidate in
    it, so the seed's closure holds the other's. Links point to lower
    indices, so every chain ends at a seed that ran to its own end
    (`_roots`). A seed that retires on coverage or the target at a level
    does not link there. A seed that takes a saturated outcome may hold
    more than its root: `_stalled_witnesses` runs it to its own end.

    Dedup is by first claim (`_first_claims`): of the candidates that land
    in a free (seed, fine cell), the first in candidate order claims it.
    The claimants form the next frontier in (seed, cell) order, and the
    candidates after it are each generator's images of it in turn.

    Each level normalizes its candidates once: the cell indices and the
    frontier are taken from that one array, and the system's rules test
    the steps on it (no mask for an empty guiding set). No seed holds more
    fine cells than all seeds together, so cells are counted per seed
    only from the level their total passes cell_cap. A level's candidates
    are freed before the next level's are made.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim == 1:
        seeds = seeds[:, None]
    space = system.space
    n_seeds = len(seeds)
    n_fine = space.cell_count(eps / fine_mult)
    n_cov = space.cell_count(eps)
    occ = np.zeros(n_seeds * n_fine, dtype=bool)
    cover = target is None and payload is None
    covd = np.zeros(n_seeds * n_cov, dtype=bool) if cover else None
    cov_count = np.zeros(n_seeds, dtype=np.int64) if cover else None
    n_occ, occ_count = 0, None
    hit = np.zeros(n_seeds, dtype=bool)
    partial = np.zeros(n_seeds, dtype=bool)
    active = np.ones(n_seeds, dtype=bool)
    steps = tuple(zip(system.generators, system.rules))
    claimed, kept, lost, blocks, cells = [], [], [], [], None
    if payload is not None:
        cand_v, update = np.asarray(payload[0], dtype=float), payload[1]

    # level 0 absorbs the seeds themselves; each later level their images
    cand = space.normalize(seeds.ravel()).astype(float)
    csid = np.repeat(np.arange(n_seeds), seeds.shape[1])
    owner = None
    if n_seeds > 1 and not keep_points and payload is None:
        links = np.full(n_seeds, -1)
        # the lowest seed with a start point in each fine cell; n_seeds
        # where there is none
        owner = np.full(n_fine, n_seeds)
        np.minimum.at(owner, space.cell_index(cand, n_fine), csid)
    level = 0
    while True:
        if cover:
            if n_seeds == 1:     # one row: a scatter and a count, no sort
                covd[space.cell_index(cand, n_cov)] = True
                cov_count[0] = np.count_nonzero(covd)
            else:
                lin = csid * n_cov + space.cell_index(cand, n_cov)
                fresh = _distinct(lin[~covd[lin]])
                covd[fresh] = True
                cov_count += np.bincount(fresh // n_cov, minlength=n_seeds)
            active &= cov_count < n_cov
        if target is not None:
            hit[csid[space.metric(cand, target) <= eps]] = True
            active &= ~hit
        linf = space.cell_index(cand, n_fine)
        if owner is not None:
            own = owner[linf]
            reach = own < csid
            if reach.any():
                first = _first_claims(csid, reach)
                first = first[active[csid[first]]]
                linked = csid[first]
                links[linked] = own[first]
                active[linked] = False
            del own, reach
        if n_seeds > 1:
            linf += csid * n_fine
        sel = _first_claims(linf, ~occ[linf])
        pts, sid = cand[sel], csid[sel]
        if payload is not None:
            vals = cand_v[sel]
            kept.append((pts, vals, *_provenance(sel, blocks, cells)))
            out = np.delete(np.arange(cand.size), sel)
            lost.append((linf[out], cand[out], cand_v[out]))
            del cand_v, out
        cells = linf[sel]
        occ[cells] = True
        del cand, csid, linf
        if payload is not None or keep_points:
            claimed.append(cells)
            if payload is None:
                kept.append(pts)
        n_occ += sel.size
        if n_occ > cell_cap:
            if occ_count is None:
                occ_count = occ.reshape(n_seeds, n_fine).sum(axis=1)
            else:
                occ_count += np.bincount(sid, minlength=n_seeds)
            over = occ_count > cell_cap
            partial |= over & active
            active &= ~over
        if not active.all():
            keep = active[sid]
            pts, sid = pts[keep], sid[keep]
            if payload is not None:
                vals, cells = vals[keep], cells[keep]
        if level >= depth or pts.size == 0:
            break
        outs_p, outs_s, outs_v, blocks = [], [], [], []
        for i, (gen, allowed) in enumerate(steps):
            p, s, mask = pts, sid, None
            if allowed is not None:
                mask = allowed(pts)
                if not mask.any():
                    continue
                p, s = pts[mask], sid[mask]
            if payload is not None:
                blocks.append((sum(map(len, outs_s)), i, mask))
                outs_v.append(np.asarray(update(
                    i, p, vals if mask is None else vals[mask]), dtype=float))
            outs_p.append(np.asarray(gen(p), dtype=float))
            outs_s.append(s)
        if not outs_p:
            # every frontier point is blocked: all closures are complete
            sid = sid[:0]
            break
        cand = space.normalize(np.concatenate(outs_p))
        csid = np.concatenate(outs_s)
        if payload is not None:
            cand_v = np.concatenate(outs_v)
        del outs_p, outs_s, outs_v
        level += 1
    in_frontier = np.zeros(n_seeds, dtype=bool)
    in_frontier[sid] = True
    saturated = active & ~in_frontier
    if owner is not None:
        root = _roots(links)
        saturated, partial, hit = saturated[root], partial[root], hit[root]
        if cov_count is not None:
            cov_count = cov_count[root]
    points = None
    if claimed:
        keys = np.concatenate(claimed)
        claimed.clear()
        # each level's keys come sorted, and a stable sort merges the runs
        order = keys.argsort(kind="stable")
        if payload is None:
            counts = np.bincount(keys // n_fine, minlength=n_seeds)
            points = np.split(np.concatenate(kept)[order],
                              np.cumsum(counts)[:-1])
        else:
            # each claimed key's index; key -1 (no parent) gives -1
            index = np.full(occ.size + 1, -1, dtype=np.int64)
            index[keys[order]] = np.arange(keys.size)
            del keys
            pts, vals, gens, parents, depths = _joined(kept, order)
            keys, *hits = _joined(lost)
            points = ((pts, vals, depths, index[parents], gens),
                      (index[keys], *hits))
    return cov_count, saturated, partial, hit, level, points


def _check_seed(space, x0):
    """ValueError unless x0 is a point of space (a node of a graph)."""
    if not space.contains(x0):
        raise ValueError(f"x0 = {x0!r} is not a point of {space!r}")


def guided_orbit_set(system: GuidedSystem, x0, depth: int, eps: float,
                     cell_cap: int = 500_000) -> OrbitCloud:
    """Breadth-first closure of {x0} under allowed generators, pruned to one
    representative per eps/2-cell; coverage counts eps-cells touched. At
    full coverage it stops, unsaturated, as probe seeds retire (OrbitCloud).

    One representative per dedup cell prunes the phase diversity that
    isometries (circle rotations) need to fill every cell, so a closure
    that saturates short of full coverage without a witness is retried at
    a finer internal resolution, and after the finest is not saturated;
    the coverage semantics are unchanged."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    space = system.space
    _check_seed(space, x0)
    seed = np.atleast_1d(np.asarray(x0, dtype=float))[:1]
    for mult in _REFINE_MULTS:
        cov, saturated, partial, _, used, (pts,) = _closures(
            system, seed, depth, eps, mult, cell_cap, keep_points=True)
        if not saturated[0] or \
                _closure_witness(system, pts, eps)[0] is not None:
            break
    else:
        saturated[0] = False
    n_half = space.cell_count(eps / 2.0)
    cells = space.cell_index(pts, n_half)
    keep = _first_claims(cells, np.ones(cells.size, dtype=bool))
    return OrbitCloud(points=np.sort(pts[keep]),
                      coverage=int(cov[0]) / space.cell_count(eps), eps=eps,
                      saturated=bool(saturated[0]), partial=bool(partial[0]),
                      depth_used=used, seed=float(seed[0]))


# --------------------------------------------------------------------------
# Minimality probe
# --------------------------------------------------------------------------

@dataclass
class MinimalityVerdict:
    kind: str  # "minimal_evidence" | "not_minimal" | "inconclusive"
    eps: float
    depth: int
    coverage: float
    witness: tuple = None        # intervals (lo, hi) for continuous spaces
    witness_nodes: tuple = None  # node ids for finite graphs
    via: str = "orbit_probe"
    note: str = ""

    @property
    def is_not_minimal(self):
        return self.kind == "not_minimal"


def _witness_intervals(space, rep_points, pad):
    """Closed pads around cloud representatives, merged into an (n, 2)
    array of sorted, disjoint intervals (the first may cross the seam)."""
    pts = np.asarray(rep_points, dtype=float)
    lo, hi = pts - pad, pts + pad
    if isinstance(space, Interval):
        lo, hi = np.maximum(lo, space.a), np.minimum(hi, space.b)
    ivs = np.column_stack(_merge_intervals(lo, hi, 1e-15))
    if isinstance(space, CircleSpace) and len(ivs) > 1 and \
            ivs[0, 0] + space.period <= ivs[-1, 1] + 1e-15:
        # merge across the wrap seam
        ivs[0, 0] = ivs[-1, 0] - space.period
        ivs = ivs[:-1]
    return ivs


def _validate_witness(system, intervals):
    """Forward closure of a union of sorted intervals ((n, 2) array): for
    every member and every generator allowed on it, the (exact, for
    monotone maps) image must land inside one member dilated by TOL_STEP."""
    space = system.space
    lo, hi = intervals[:, 0], intervals[:, 1]
    w_lo, w_hi = lo - TOL_STEP, hi + TOL_STEP
    for i, gen in enumerate(system.generators):
        moved = ~system.guiding[i].covers_interval(lo, hi, space,
                                                   system.tol_lambda)
        if not moved.any():
            continue
        img_lo, img_hi, _ = _interval_images(space, gen, lo[moved],
                                             hi[moved], 33)
        if not _inside_one(space, w_lo, w_hi, img_lo, img_hi).all():
            return False
    return True


def _closure_witness(system, pts, eps):
    """(intervals, robust): a closure's representatives pts padded by half
    an eps/2-cell (robust) or else by tol_lambda, validated forward-closed;
    (None, False) when neither validates. A closure saturated short of
    full coverage counts only with one: one point per dedup cell also
    stalls closures that are not closed (close rational approximants,
    steps below the cell near parabolic fixed points)."""
    space = system.space
    robust = space.length / space.cell_count(eps / 2.0) / 2.0
    for pad in (robust, system.tol_lambda):
        witness = _witness_intervals(space, pts, pad)
        if _validate_witness(system, witness):
            return witness, pad == robust
    return None, False


def _roots(links):
    """Each seed's root under the links of a chained `_closures` run: the
    seed itself where its link is -1, else the root of the seed it links
    to. Links point to lower indices, so resolving them in index order
    ends every chain at a seed that ran to its own end; pointer jumping
    does that in a few array steps."""
    root = np.where(links < 0, np.arange(links.size), links)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def _stalled_witnesses(system, seeds, stuck, depth, eps, mult, cap,
                       target=None):
    """(k, intervals, robust, cov) for each k in stuck, in order, whose
    seed saturates on its own closure and that closure has a witness
    (`_closure_witness`); cov is its cov_count. Reruns with the pass's
    target keep the seeds' representatives, so each runs to its own end:
    a seed that took a root's saturated outcome in a chained pass may
    cover, or saturate on a larger closure. They run in batches that
    double from one seed, so a witness found early spares the later
    reruns, and each closure is validated only when asked."""
    start, size = 0, 1
    while start < stuck.size:
        batch = stuck[start:start + size]
        cov, saturated, _, _, _, reps = _closures(
            system, seeds[batch], depth, eps, mult, cap, target=target,
            keep_points=True)
        for i in np.flatnonzero(saturated):
            witness, robust = _closure_witness(system, reps[i], eps)
            if witness is not None:
                yield (batch[i], witness, robust,
                       None if cov is None else cov[i])
        start, size = start + size, 2 * size


def probe_minimality(system: GuidedSystem, eps: float, depth: int,
                     cell_cap: int = 500_000) -> MinimalityVerdict:
    """Run guided orbit closures from one seed per eps-cell.

    MinimalEvidence iff every seed reaches full eps-coverage; NotMinimal iff
    some seed's closure saturates on a proper subset whose padded hull is
    verified forward-closed; Inconclusive otherwise. A seed whose closure
    reaches the start cell of an earlier seed takes that seed's outcome
    (`_closures`), and depth bounds each seed's own levels, not the
    chained path to its root's end.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    space = system.space
    if isinstance(space, FiniteGraphSpace):
        return _probe_minimality_graph(system, eps, depth)
    n_cov = space.cell_count(eps)
    seeds = space.cell_left_edges(n_cov)
    unresolved = np.arange(n_cov)
    worst = 1.0
    tight_fallback = None
    for mult in _PROBE_MULTS:
        batch = seeds[unresolved]
        cov_count, saturated, _, _, _, _ = _closures(
            system, batch, depth, eps, mult, cell_cap)
        coverage = cov_count / n_cov
        done = coverage >= 1.0
        # saturated seeds (covered ones retire) may hold a NotMinimal
        # witness: the first robust one decides, else the first tight one
        stuck = np.flatnonzero(saturated)
        for k, witness, robust, cov in _stalled_witnesses(
                system, batch, stuck, depth, eps, mult, cell_cap):
            if not robust and tight_fallback is not None:
                continue
            seed, n = float(batch[k]), len(witness)
            verdict = MinimalityVerdict(
                kind="not_minimal", eps=eps, depth=depth,
                coverage=float(cov / n_cov),
                witness=tuple(map(tuple, witness.tolist())),
                note=f"seed {seed!r}: forward-closed set of {n} interval(s)"
                if robust else f"seed {seed!r}: set invariant through "
                f"exact guiding exclusions ({n} interval(s))")
            if robust:
                return verdict
            tight_fallback = verdict
        worst = float(np.min(coverage[~done], initial=worst))
        unresolved = unresolved[~done]
        if unresolved.size == 0:
            break
    if tight_fallback is not None:
        return tight_fallback
    if unresolved.size > 0:
        return MinimalityVerdict(kind="inconclusive", eps=eps, depth=depth,
                                 coverage=worst)
    return MinimalityVerdict(kind="minimal_evidence", eps=eps, depth=depth,
                             coverage=1.0)


def _probe_minimality_graph(system, eps, depth):
    graph = build_orbit_graph(system, cells=system.space.n_nodes)
    comps = minimal_subsystems(graph)
    n = system.space.n_nodes
    if len(comps) == 1 and len(comps[0]) == n:
        return MinimalityVerdict(kind="minimal_evidence", eps=eps,
                                 depth=depth, coverage=1.0,
                                 via="terminal_scc")
    witness = comps[0]
    return MinimalityVerdict(kind="not_minimal", eps=eps, depth=depth,
                             coverage=len(witness) / n,
                             witness_nodes=tuple(witness),
                             via="terminal_scc")


# --------------------------------------------------------------------------
# Weak attractor probe
# --------------------------------------------------------------------------

@dataclass
class WeakAttractorVerdict:
    kind: str  # "yes" | "no" | "inconclusive"
    x0: float
    eps: float
    depth: int
    witness_seed: float = None
    note: str = ""


def probe_weak_attractor(system: GuidedSystem, x0, eps: float, depth: int,
                         cell_cap: int = 500_000) -> WeakAttractorVerdict:
    """Yes iff from every eps-cell seed some proper orbit enters B(x0, eps)
    within depth; No with a witness seed whose saturated closure never
    does and has a validated forward-closed witness; Inconclusive
    otherwise. A seed whose closure reaches the start cell of an earlier
    seed takes that seed's outcome (`_closures`), and depth bounds each
    seed's own levels, not the chained path to its root's end."""
    space = system.space
    _check_seed(space, x0)
    if isinstance(space, FiniteGraphSpace):
        return _probe_weak_attractor_graph(system, x0, eps, depth)
    n_cov = space.cell_count(eps)
    seeds = space.cell_left_edges(n_cov)
    unresolved = np.arange(n_cov)
    for mult in _PROBE_MULTS:
        _, saturated, _, hit, _, _ = _closures(
            system, seeds[unresolved], depth, eps, mult, cell_cap, target=x0)
        stuck = unresolved[saturated]    # no hit seed is saturated
        unresolved = unresolved[~hit]
        if unresolved.size == 0:
            return WeakAttractorVerdict(kind="yes", x0=float(x0), eps=eps,
                                        depth=depth)
    # the first saturated seed whose closure has a witness
    for k, *_ in _stalled_witnesses(system, seeds, stuck, depth, eps, mult,
                                    cell_cap, target=x0):
        return WeakAttractorVerdict(kind="no", x0=float(x0), eps=eps,
                                    depth=depth, witness_seed=float(seeds[k]))
    return WeakAttractorVerdict(kind="inconclusive", x0=float(x0),
                                eps=eps, depth=depth)


def _probe_weak_attractor_graph(system, x0, eps, depth):
    graph = build_orbit_graph(system, cells=system.space.n_nodes)
    # nodes that reach x0 are those x0 reaches along reversed edges
    start, succ = _adjacency(graph.n_nodes, graph.edges[:, 1],
                             graph.edges[:, 0])
    unreached = ~np.array(_reached(start, succ, int(x0)))
    if not unreached.any():
        return WeakAttractorVerdict(kind="yes", x0=float(x0), eps=eps,
                                    depth=depth)
    witness = np.flatnonzero(unreached)[0]
    return WeakAttractorVerdict(kind="no", x0=float(x0), eps=eps,
                                depth=depth, witness_seed=float(witness))


# --------------------------------------------------------------------------
# Guided cycle search
# --------------------------------------------------------------------------

@dataclass
class CycleReport:
    cycles: list
    max_len: int
    n_seeds: int

    @property
    def empty(self):
        return len(self.cycles) == 0


def find_guided_cycles(system: GuidedSystem,
                       max_len: int = MAX_CYCLE_LEN) -> CycleReport:
    """Search for proper cycles whose points all lie inside the union of
    guiding sets (within tol_lambda), starting from seeds inside that
    union; a path closes when it returns within TOL_CYCLE of its start. An
    empty list is evidence that no guided cycle exists up to max_len at
    the working resolution."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    space = system.space
    seeds = []
    for gset in system.guiding:
        for lo, hi in gset.intervals:
            seeds.extend([lo, hi] if hi > lo else [lo])
            if hi > lo:
                seeds.append(0.5 * (lo + hi))
    uniq = []
    for s in seeds:
        if all(space.metric(s, u) > 1e-12 for u in uniq):
            uniq.append(float(s))

    found = []
    seen_keys = set()

    def dfs(start, path_pts, path_gens, allowed):
        for i in allowed:
            nxt = float(system.step(i, path_pts[-1])[0])
            gens = path_gens + (i,)
            if space.metric(nxt, start) <= TOL_CYCLE:
                pts = np.array(path_pts + [nxt])
                key = _cycle_key(space, pts[:-1], gens)
                if key not in seen_keys:
                    seen_keys.add(key)
                    found.append(Orbit(points=pts, gens=gens))
                continue
            # prune at the length bound and at revisits inside the path
            if len(gens) >= max_len or any(
                    space.metric(nxt, q) <= 1e-12 for q in path_pts[1:]):
                continue
            # a path goes on only inside the union of the guiding sets
            nxt_allowed = allowed_generators(system, nxt)
            if len(nxt_allowed) < system.n_generators:
                dfs(start, path_pts + [nxt], gens, nxt_allowed)

    for s in uniq:
        dfs(s, [s], (), allowed_generators(system, s))
    return CycleReport(cycles=found, max_len=max_len, n_seeds=len(uniq))


def _cycle_key(space, pts, gens):
    scale = TOL_CYCLE * 10.0
    n = len(pts)
    variants = []
    for r in range(n):
        rolled_p = tuple(
            int(round(float(space.normalize(np.atleast_1d(p))[0]) / scale))
            for p in np.roll(pts, -r))
        rolled_g = tuple(int(g) for g in np.roll(np.array(gens), -r))
        variants.append((rolled_p, rolled_g))
    return min(variants)


# --------------------------------------------------------------------------
# Contraction certificate (sufficient condition for minimality of the
# unguided dynamics: strict contraction plus range covering)
# --------------------------------------------------------------------------

@dataclass
class ContractionMinimalityCertificate:
    lipschitz: tuple
    range_cover_defect: float
    guiding_empty: bool
    note: str = ""


@dataclass
class ContractionRefusal:
    failed: str
    generator: int
    witness: tuple = None
    detail: str = ""


def check_contraction_minimality(system: GuidedSystem, rng=None):
    """Certificate iff every generator strictly contracts 256 sampled pairs
    (and its grid Lipschitz estimate is < 1 when a derivative is known) and
    the union of generator ranges covers the space within TOL_RANGE.

    The certificate concerns the unguided dynamics; it implies guided
    minimality only when every guiding set is empty (guiding_empty flag).
    """
    space = system.space
    if isinstance(space, FiniteGraphSpace):
        raise ValueError("contraction certificate needs a metric space")
    rng = np.random.default_rng(0) if rng is None else rng
    lip = []
    for i, gen in enumerate(system.generators):
        xs = space.random(rng, 256)
        ys = space.random(rng, 256)
        keep = space.metric(xs, ys) > 0
        xs, ys = xs[keep], ys[keep]
        dxy = space.metric(xs, ys)
        dimg = space.metric(np.asarray(gen(xs), dtype=float),
                            np.asarray(gen(ys), dtype=float))
        bad = dimg >= dxy
        if np.any(bad):
            k = int(np.argmax(bad))
            return ContractionRefusal(
                failed="contraction", generator=i,
                witness=(float(xs[k]), float(ys[k])),
                detail=f"d(images)={float(dimg[k])!r} >= "
                       f"d(points)={float(dxy[k])!r}")
        grid = space.grid(2049)
        if gen.has_derivative:
            est = float(np.max(np.abs(np.asarray(gen.derivative(grid),
                                                 dtype=float))))
        elif gen.monotone is not None and isinstance(space, Interval):
            est = abs(_scalar(gen, space.b) - _scalar(gen, space.a)) \
                / space.length
        else:
            vals = np.asarray(gen(grid), dtype=float)
            est = float(np.max(np.abs(np.diff(vals) / np.diff(grid))))
        lip.append(est)
        if est >= 1.0:
            return ContractionRefusal(
                failed="contraction", generator=i,
                detail=f"Lipschitz estimate {est!r} >= 1")
    defect = _range_cover_defect(system)
    if defect > TOL_RANGE:
        return ContractionRefusal(failed="range_cover", generator=-1,
                                  detail=f"uncovered gap {defect!r}")
    return ContractionMinimalityCertificate(
        lipschitz=tuple(lip), range_cover_defect=defect,
        guiding_empty=all(g.is_empty for g in system.guiding))


def _range_cover_defect(system):
    """Largest distance from a space point to the union of generator
    ranges (0 means covered)."""
    space = system.space
    ends = [np.array([end]) for end in _space_ends(space)]
    arcs = []
    for gen in system.generators:
        if gen.monotone is not None:
            arcs.append(_interval_images(space, gen, *ends, 4097))
        else:
            # the 4097-point grid stops short of the period on a circle
            img = np.asarray(gen(space.grid(4097)), dtype=float)
            arcs.append(_wrap_images(space, img.min(keepdims=True),
                                     img.max(keepdims=True)))
    lo, hi, span = np.concatenate(arcs, axis=1)
    if isinstance(space, CircleSpace):
        if np.any(span >= space.period):
            return 0.0
        return float(GuidingSet(np.column_stack((lo, hi))).distance(
            space.grid(4096), space).max())
    lo, hi = _merge_intervals(lo, hi, 0.0)
    return float(np.max(np.r_[lo[0] - space.a, lo[1:] - hi[:-1],
                              space.b - hi[-1], 0.0]))


def _space_ends(space):
    return (space.a, space.b) if isinstance(space, Interval) \
        else (0.0, space.period)


# --------------------------------------------------------------------------
# Finite orbit graph and terminal strongly connected components
# --------------------------------------------------------------------------

@dataclass
class OrbitGraph:
    n_nodes: int
    edges: np.ndarray  # rows (src, dst, gen)
    approximate: bool


def build_orbit_graph(system: GuidedSystem, cells: int) -> OrbitGraph:
    """Discretize the system into a finite directed multigraph.

    Interval/circle: nodes are equal cells; for each generator allowed on a
    cell, edges go to every cell its image overlaps with positive length
    (exact endpoint images for monotone maps, 9-point sampling otherwise).
    Finite graphs embed their edge tables directly.
    """
    space = system.space
    blocks = [np.empty((0, 3), dtype=np.int64)]
    if isinstance(space, FiniteGraphSpace):
        nodes = np.arange(space.n_nodes)
        for i, gen in enumerate(system.generators):
            v = nodes[system.allowed_mask(i, nodes.astype(float))]
            blocks.append(np.column_stack((v, gen.table[v],
                                           np.full(v.size, i))))
        return OrbitGraph(n_nodes=space.n_nodes,
                          edges=np.concatenate(blocks), approximate=False)
    if cells < 2:
        raise ValueError("cells must be >= 2")
    circle = isinstance(space, CircleSpace)
    w = space.length / cells
    lo0 = _space_ends(space)[0]
    tau = w * 1e-9
    approx = False
    c = np.arange(cells)
    clo, chi = lo0 + c * w, lo0 + (c + 1) * w
    for i, gen in enumerate(system.generators):
        moved = ~system.guiding[i].covers_interval(clo, chi, space,
                                                   system.tol_lambda)
        if not moved.any():
            continue
        approx |= gen.monotone is None
        ilo, ihi, span = _interval_images(space, gen, clo[moved],
                                          chi[moved], 9)
        # cells meeting [ilo, ihi] with positive length (touching endpoints
        # excluded); a degenerate image maps to the cell holding it, a
        # full-circle one to every cell
        mid = np.floor((0.5 * (ilo + ihi) - lo0) / w)
        point = ihi - ilo <= 2 * tau
        jlo = np.where(point, mid, np.floor((ilo - lo0 + tau) / w))
        jhi = np.where(point, mid, np.floor((ihi - lo0 - tau) / w))
        if circle:
            full = span >= space.period
            jlo, jhi = np.where(full, 0, jlo), np.where(full, cells - 1, jhi)
        jlo = jlo.astype(np.int64)
        count = np.maximum(jhi.astype(np.int64) - jlo + 1, 0)
        first = np.cumsum(count) - count
        dst = np.repeat(jlo - first, count) + np.arange(count.sum())
        dst = dst % cells if circle else np.clip(dst, 0, cells - 1)
        blocks.append(np.column_stack((np.repeat(c[moved], count), dst,
                                       np.full(dst.size, i))))
    return OrbitGraph(n_nodes=cells, edges=np.concatenate(blocks),
                      approximate=approx)


def _adjacency(n, src, dst):
    """The edges src -> dst on nodes 0..n-1 as lists in CSR form: the
    successors of v are succ[start[v]:start[v + 1]], in edge order."""
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    return start, dst[order].tolist()


def _reached(start, succ, root):
    """Per node, whether it is reachable from root (root included), by a
    depth-first search on an explicit stack: O(V + E)."""
    seen = [False] * (len(start) - 1)
    seen[root] = True
    todo = [root]
    while todo:
        v = todo.pop()
        for w in succ[start[v]:start[v + 1]]:
            if not seen[w]:
                seen[w] = True
                todo.append(w)
    return seen


def _strong_components(start, succ):
    """(count, label): Tarjan's strongly connected components in O(V + E),
    iterative, so a path of any length needs no recursion. path holds the
    depth-first path, pos[v] the next edge of v to scan and where[v] the
    place of v on the component stack. A node whose component is complete
    gets index n, above every live low-link, so its edges change none."""
    n = len(start) - 1
    index, low, label, where = [-1] * n, [0] * n, [-1] * n, [0] * n
    pos = start[:-1]
    stack, path = [], []
    count = visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        where[root] = len(stack)
        stack.append(root)
        path.append(root)
        while path:
            v = path[-1]
            p, end, low_v = pos[v], start[v + 1], low[v]
            while p < end:
                w = succ[p]
                p += 1
                if index[w] < 0:
                    # descend into w; v resumes after this edge
                    pos[v], low[v] = p, low_v
                    index[w] = low[w] = visited
                    visited += 1
                    where[w] = len(stack)
                    stack.append(w)
                    path.append(w)
                    break
                if index[w] < low_v:
                    low_v = index[w]
            else:
                path.pop()
                if low_v == index[v]:
                    for w in stack[where[v]:]:
                        label[w], index[w] = count, n
                    del stack[where[v]:]
                    count += 1
                else:
                    low[v] = low_v
                    if low_v < low[path[-1]]:
                        low[path[-1]] = low_v
    return count, label


def minimal_subsystems(graph: OrbitGraph) -> list:
    """Terminal strongly connected components, each sorted, ordered by
    smallest member. At least one is always returned for graphs whose
    every node has out-degree >= 1 (and singletons without self-loops are
    reported when a node has no outgoing edges at all)."""
    n_comp, label = _strong_components(*_adjacency(
        graph.n_nodes, graph.edges[:, 0], graph.edges[:, 1]))
    label = np.array(label, dtype=np.int64)
    src, dst = label[graph.edges[:, 0]], label[graph.edges[:, 1]]
    exits = np.zeros(n_comp, dtype=bool)
    exits[src[src != dst]] = True
    order = np.argsort(label, kind="stable")
    bounds = np.searchsorted(label[order], np.arange(n_comp + 1))
    terminal = [order[bounds[k]:bounds[k + 1]].tolist()
                for k in np.flatnonzero(~exits)]
    terminal.sort(key=lambda c: c[0])
    return terminal


# --------------------------------------------------------------------------
# Conjugacy verification
# --------------------------------------------------------------------------

@dataclass
class ConjugacyReport:
    map_defect: float
    guiding_defects: tuple
    inv_defect: float
    properness_checked: int
    properness_violations: int
    samples: int
    ok: bool


def _nth_allowed(masks, pick):
    """Per row of the boolean matrix masks, the column of its
    (pick + 1)-th True entry; pick must be below the row's count."""
    return np.argmax(np.cumsum(masks, axis=1) > pick[:, None], axis=1)


def verify_conjugacy(sys_a: GuidedSystem, sys_b: GuidedSystem, phi,
                     phi_inv, samples: int = 100,
                     rng=None) -> ConjugacyReport:
    """Check that phi intertwines the generators (max defect over samples),
    carries guiding sets onto guiding sets (sampled Hausdorff distance),
    and maps proper orbits to proper orbits (100 random 8-step orbits of
    sys_a, each step allowed in sys_b at the image under phi; one
    `sys_a.step_each` call moves all orbits a step); each defect must be
    at most 1e-9, and a NaN defect fails."""
    if sys_a.n_generators != sys_b.n_generators:
        raise ValueError("systems must share the generator count")
    rng = np.random.default_rng(0) if rng is None else rng
    f = as_callable(phi)
    f_inv = as_callable(phi_inv)
    xs = sys_a.space.random(rng, samples)
    fx = np.asarray(f(xs), dtype=float)
    back = np.asarray(f_inv(fx), dtype=float)
    inv_defect = float(np.max(sys_a.space.metric(back, xs)))
    tol = 1e-9
    if not inv_defect <= tol:
        k = int(np.argmax(sys_a.space.metric(back, xs)))
        raise NotInvertible("phi_inv fails to invert phi",
                            point=float(xs[k]), defect=inv_defect)
    # one `step_each` call per system steps the samples by every
    # generator; block i of lhs is phi(delta_i(xs)), of rhs delta_i(fx)
    gens = np.arange(sys_a.n_generators)
    each = np.repeat(gens, xs.size)
    lhs = np.asarray(f(sys_a.step_each(each, np.tile(xs, gens.size))),
                     dtype=float)
    rhs = sys_b.step_each(each, np.tile(fx, gens.size))
    map_defect = float(np.max(sys_b.space.metric(
        sys_b.space.normalize(lhs), rhs)))
    guiding_defects = []
    for ga, gb in zip(sys_a.guiding, sys_b.guiding):
        if ga.is_empty and gb.is_empty:
            guiding_defects.append(0.0)
            continue
        if ga.is_empty != gb.is_empty:
            guiding_defects.append(float("inf"))
            continue
        sa = np.asarray(f(ga.sample()), dtype=float)
        d1 = float(np.max(gb.distance(sa, sys_b.space)))
        sb = gb.sample()
        d2 = float(np.max(np.min(np.abs(
            sys_b.space.metric(sb[:, None], sa[None, :])), axis=1)))
        guiding_defects.append(float(np.maximum(d1, d2)))
    violations = 0
    checked = 0
    pts = sys_a.space.random(rng, 100)
    for _ in range(8):
        masks = np.column_stack([sys_a.allowed_mask(i, pts) for i in gens])
        counts = masks.sum(axis=1)
        live = counts > 0
        if not np.any(live):
            break
        # a random allowed generator per live orbit, and whether sys_b
        # allows it at the orbit's image
        pick = (rng.random(pts.size) * counts).astype(np.int64)
        chosen = _nth_allowed(masks, pick)[live]
        fx_live = np.asarray(f(pts[live]), dtype=float)
        allowed = np.column_stack([sys_b.allowed_mask(i, fx_live)
                                   for i in gens])
        checked += chosen.size
        violations += int(np.sum(~allowed[np.arange(chosen.size), chosen]))
        pts[live] = sys_a.step_each(chosen, pts[live])
    max_guid = float(np.max(guiding_defects))
    ok = (map_defect <= tol and max_guid <= tol and violations == 0)
    return ConjugacyReport(map_defect=map_defect,
                           guiding_defects=tuple(guiding_defects),
                           inv_defect=inv_defect,
                           properness_checked=checked,
                           properness_violations=violations,
                           samples=samples, ok=ok)


# --------------------------------------------------------------------------
# Scalar roots: bracketed Newton, zero bands (derivative roots -> guiding sets)
# --------------------------------------------------------------------------

def _newton(fn, dfn, y, neg, pos, x):
    """Roots of fn(x) = y for the arrays y, neg, pos and x at once (fn and
    dfn act on arrays; fn is continuous with derivative dfn): Newton's
    method from each start x on its bracket between neg and pos, where
    fn - y must be strictly negative and positive. A step strictly inside
    the bracket, or onto an end that has not been an iterate, is taken;
    any other step is replaced by the midpoint, so a zero dfn (its warnings
    suppressed) bisects. An element ends at x when
      - fn(x) == y exactly;
      - its step is not taken, points into the bracket and is at most one
        ulp of x (it settled);
      - x was reached by an inside step over which dfn did not change (to
        one ulp), and the new step is not taken or is no shorter than that
        one. fn was linear over that step to rounding, so the step landed
        on a root up to rounding, and a step that does not shrink is fn's
        rounding noise;
    and at its next iterate when that is within one ulp of x. At most
    NEWTON_MAX_ITER steps; each element depends on its own data alone.
    Returns roots and steps."""
    out, steps = np.empty_like(x), np.empty(x.shape, dtype=np.int64)
    active = np.arange(x.size)
    # an end that has not been an iterate sits one ulp outside the
    # bracket, so that a step landing exactly on it is inside
    width = pos - neg
    neg, pos = np.nextafter(neg, neg - width), np.nextafter(pos, pos + width)
    # the length of the inside step that reached x, and dfn where that
    # step started (NaN when x is a start or a midpoint)
    last = fp_last = np.full(x.size, np.nan)
    for k in range(1, NEWTON_MAX_ITER + 1):
        f = np.asarray(fn(x), dtype=float) - y
        fp = np.asarray(dfn(x), dtype=float)
        neg, pos = np.where(f < 0.0, x, neg), np.where(f > 0.0, x, pos)
        lo, hi = np.minimum(neg, pos), np.maximum(neg, pos)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / fp
        x_new, mid = x - step, 0.5 * (lo + hi)
        inside = (x_new > lo) & (x_new < hi)
        size = np.abs(step)
        ulp = np.spacing(np.abs(x))
        # x is a bracket end: an inward step moves it towards mid
        settled = (size <= ulp) & (step * (mid - x) < 0.0)
        linear = np.abs(fp - fp_last) <= np.spacing(np.abs(fp))
        at_x = (f == 0.0) | np.where(inside, linear & (size >= last),
                                     linear | settled)
        x_new = np.where(at_x, x, np.where(inside, x_new, mid))
        out[active] = x_new
        steps[active] = k
        todo = np.abs(x_new - x) > ulp
        active = active[todo]
        if not active.size:
            break
        last = np.where(inside, size, np.nan)[todo]
        fp_last = np.where(inside, fp, np.nan)[todo]
        y, x, neg, pos = y[todo], x_new[todo], neg[todo], pos[todo]
    return out, steps


def zero_band_guiding(fn: Expression, interval: Interval) -> GuidingSet:
    """Roots of a nonnegative expression as a union of closed intervals:
    contiguous sub-tolerance runs are widened to where fn crosses tol, and
    grid-local minima whose refined value dips below tol are included as
    tangential roots, widened the same way. fn is scanned on ZERO_BAND_N
    grid points; tol is ZERO_BAND_TOL.

    fn is an expression. One `_newton` call refines every candidate
    minimum as the root of fn' on [t_(j-1), t_(j+1)] from t_j, one more
    every crossing as a root of fn = tol from the linear interpolation of
    the values on either side; a scan with neither differentiates nothing."""
    tol = ZERO_BAND_TOL
    ts = np.linspace(interval.a, interval.b, ZERO_BAND_N)
    vs = np.asarray(fn(ts), dtype=float)
    below = vs < tol

    # maximal sub-tolerance runs [j, k]: edges of the padded mask
    edges = np.flatnonzero(np.diff(np.concatenate(([False], below, [False]))))
    starts, stops = edges[::2], edges[1::2] - 1

    # tangential dips the grid may have straddled: grid-local minima clear
    # of the runs, skipped when the parabola through the three samples
    # (the sample itself when flat) stays well above tol
    left, mid, right = vs[:-2], vs[1:-1], vs[2:]
    minima = ~(below[:-2] | below[1:-1] | below[2:]) & \
        (mid <= left) & (mid <= right)
    denom = left - 2 * mid + right
    with np.errstate(all="ignore"):
        fitted = np.where(denom <= 0, mid,
                          mid - (left - right) ** 2 / (8 * denom))
    clear = (fitted >= tol) & (mid >= 10 * tol) & (fitted >= 0.01 * mid)
    dips = np.flatnonzero(minima & ~clear) + 1
    if not (starts.size or dips.size):
        return GuidingSet()

    dfn = differentiate(fn)
    t_min = _newton(dfn, differentiate(dfn), np.zeros(dips.size),
                    ts[dips - 1], ts[dips + 1], ts[dips])[0]
    v_min = np.asarray(fn(t_min), dtype=float)
    keep = v_min < tol
    dips, t_min, v_min = dips[keep], t_min[keep], v_min[keep]

    # a band [lo, hi] lies between the samples beyond its ends; an end with
    # a sample beyond it is a tol crossing between the two
    ends = np.r_[ts[starts], t_min, ts[stops], t_min]
    v_end = np.r_[vs[starts], v_min, vs[stops], v_min]
    beyond = np.r_[starts - 1, dips - 1, stops + 1, dips + 1]
    x = (beyond >= 0) & (beyond < ts.size)   # the ends that are crossings
    b, inner, v_in = beyond[x], ends[x], v_end[x]
    start = inner + (tol - v_in) / (vs[b] - v_in) * (ts[b] - inner)
    ends[x] = _newton(fn, dfn, np.full(b.size, tol), inner, ts[b], start)[0]
    lo, hi = np.split(ends, 2)

    return GuidingSet(zip(*_merge_intervals(lo, hi, (ts[1] - ts[0]) * 1e-6)))
