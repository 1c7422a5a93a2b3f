"""Scalar convex calculus on the half-line.

Convex functions of a nonnegative scalar (a strain-rate or stress
magnitude) are represented by their samples on a grid starting at 0,
with an explicit sentinel index marking where the function becomes
+inf.  On top of that representation this module provides the
Legendre-Fenchel transform, infimal convolution (directly and through
the conjugate identity ``(f [] g)* = f* + g*``), the Moreau-Yosida
envelope, one-sided subdifferentials, and the Fenchel-Young residual.

Discrete exactness
------------------
The conjugate of sampled data is piecewise linear with kinks exactly at
the discrete slopes of the input.  The default dual grid therefore uses
those slopes, which makes biconjugation reproduce the input values on
its finite domain to roundoff, and makes the two infimal-convolution
routes agree to roundoff as well.  Other dual grids are available by
passing an explicit array.

A function sampled on ``[0, r_max]`` with all values finite is a
window onto a function defined on the whole half-line.  Its conjugate
beyond the right slope at ``r_max`` is not resolvable from the window
and is reported as +inf (never as a large finite surrogate), which is
exact for 1-homogeneous inputs and conservative otherwise.  When the
input itself carries a +inf tail inside the window (an indicator-type
function), the conjugate is finite for every argument and affine past
its last kink, with the last finite sample point as its slope; one dual
point past that kink carries the tail exactly.

The exhaustive scan and the direct infimal convolution take O(n m) time
and O(block) memory, reducing blocks of ``_BLOCK`` elements, and their
outputs are bitwise those of the plain definitions.  The default sweep is
a vectorized slope search, O((n + m) log n) numpy work: each dual point
reduces the samples with slopes within 1e-9 of it, and one on either side,
so it equals the scan on every finite entry.  (Dual points packed in such
runs go to the scan.)  No call loads ``numpy.ma``.
"""

from __future__ import annotations

from functools import cached_property

# SubdiffInterval lives in _graph, which the element kinds import without this module
from ._graph import _INF, SubdiffInterval
from ._numpy import np
from ._record import Record
from .errors import InvalidInputError, OutOfRangeError

__all__ = [
    "SampledFunction",
    "SubdiffInterval",
    "uniform_grid",
    "evaluate",
    "legendre_transform",
    "inf_convolve_direct",
    "inf_convolve_via_conjugate",
    "yosida",
    "subdifferential",
    "fenchel_young_residual",
]

# Convexity slack on the chord defect, relative to value scale.
_CONVEXITY_TOL = 1e-12
# Relative slack when deciding that a dual point exceeds the resolvable
# slope range of a window-limited function.
_SENTINEL_RTOL = 1e-12
# Elements (256 KB of float64) in one block of the exhaustive kernels.
_BLOCK = 2**15


def uniform_grid(r_max: float = 10.0, n: int = 2048) -> np.ndarray:
    """Uniform grid ``[0, r_max]`` with ``n`` points."""
    if not (0.0 < r_max < _INF) or n < 2:
        raise InvalidInputError("uniform_grid needs a finite r_max > 0 and n >= 2")
    return np.linspace(0.0, float(r_max), int(n))


class SampledFunction(Record, eq=False):
    """Grid-sampled scalar convex function with a +inf support boundary.

    Parameters
    ----------
    grid : ndarray
        Strictly increasing sample points, ``grid[0] == 0``.
    values : ndarray
        Function values; entries from ``finite_sup`` on are ``+inf``.
    finite_sup : int
        Index past which values are +inf; equals ``len(grid)`` when the
        function is finite on the whole grid.
    """

    grid: np.ndarray
    values: np.ndarray
    finite_sup: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).copy()
        values = np.asarray(self.values, dtype=float).copy()
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidInputError("grid must be a nonempty 1-d array")
        if grid.shape != values.shape:
            raise InvalidInputError("grid and values must have the same length")
        if grid[0] != 0.0:
            raise InvalidInputError("grid must start at 0")
        if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
            raise InvalidInputError("grid must be strictly increasing")
        m = int(self.finite_sup)
        if m < 1 or m > grid.size:
            raise InvalidInputError("finite_sup must be in [1, len(grid)]")
        finite = values[:m]
        if not np.all(np.isfinite(finite)):
            raise InvalidInputError("values must be finite below finite_sup")
        if not np.all(np.isinf(values[m:])):
            raise InvalidInputError("values must be +inf from finite_sup on")
        if np.any(values[m:] < 0):
            raise InvalidInputError("infinite values must be +inf, not -inf")
        if finite[0] > finite.min() + 1e-12 * max(1.0, abs(float(finite[0]))):
            raise InvalidInputError("values[0] must be the minimum")
        if m >= 3:
            # Chord defect in value units: robust on grids with nearly coincident points,
            # where slope differences amplify roundoff.  Slack: values or grid end x slope,
            # the terms a transform subtracts (s v - f) to form them.
            g = grid[:m]
            lam = (g[2:] - g[1:-1]) / (g[2:] - g[:-2])
            chord = lam * finite[:-2] + (1.0 - lam) * finite[2:]
            scale = max(1.0, float(np.max(np.abs(finite))),
                        float(g[-1] * np.max(np.abs(np.diff(finite) / np.diff(g)))))
            if np.any(finite[1:-1] - chord > _CONVEXITY_TOL * scale):
                raise InvalidInputError("values are not convex on the finite range")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "finite_sup", m)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_samples(cls, grid, values) -> "SampledFunction":
        """Build from raw samples, locating the +inf tail automatically."""
        values = np.asarray(values, dtype=float)
        infinite = np.isinf(values)
        m = int(np.argmax(infinite)) if infinite.any() else values.size
        return cls(np.asarray(grid, dtype=float), values, m)

    # -- basic queries ------------------------------------------------

    @property
    def r_max(self) -> float:
        return float(self.grid[-1])

    @cached_property
    def _slopes(self) -> np.ndarray:
        """Slopes of the segments between consecutive finite samples."""
        m = self.finite_sup
        return np.diff(self.values[:m]) / np.diff(self.grid[:m])

    def __call__(self, v: float) -> float:
        return evaluate(self, v)


def _tol(f: SampledFunction) -> float:
    """Roundoff slack of argument comparisons on the grid of ``f``."""
    return 1e-12 * max(1.0, f.r_max)


def _in_range(f: SampledFunction, v: float) -> float:
    """``v`` clamped onto the grid; :class:`OutOfRangeError` past roundoff."""
    v = float(v)
    if v < -_tol(f) or v > f.r_max + _tol(f):
        raise OutOfRangeError(f"argument {v} outside grid range [0, {f.r_max}]")
    return min(max(v, 0.0), f.r_max)


def _interp(f: SampledFunction, r):
    """Linear interpolant of the samples; +inf past the last finite one."""
    m = f.finite_sup
    out = np.interp(r, f.grid[:m], f.values[:m])
    return np.where(r > f.grid[m - 1] + _tol(f), np.inf, out)


def _slope_interval(f: SampledFunction, r):
    """Ends ``(lo, hi)`` of the interpolant's slope interval at ``r >= 0``.

    Between samples both are the segment's slope, and at a sample the
    slopes on either side; ``lo`` is 0 at ``r = 0``.  The graph is
    vertical past the last finite sample, and at it when the support is
    cut there.
    """
    m = f.finite_sup
    g = f.grid[:m]
    if m < 2:
        # point support: the normal cone at 0
        return np.where(r > 0, np.inf, 0.0), np.full(np.shape(r), np.inf)
    s = f._slopes
    lo = s[np.clip(np.searchsorted(g, r, side="left") - 1, 0, m - 2)]
    hi = s[np.clip(np.searchsorted(g, r, side="right") - 1, 0, m - 2)]
    lo = np.where(r > g[-1], np.inf, np.where(r == 0.0, 0.0, lo))
    hi = np.where((r >= g[-1]) if m < f.grid.size else (r > g[-1]), np.inf, hi)
    return lo, hi


def evaluate(f: SampledFunction, v: float) -> float:
    """Evaluate ``f`` at ``v`` by linear interpolation of the samples.

    Points beyond the last finite sample (but inside the grid) return
    +inf; points outside the grid range raise :class:`OutOfRangeError`.
    """
    return float(_interp(f, _in_range(f, v)))


def _dual_cap(f: SampledFunction) -> float:
    """Largest dual point at which the conjugate is grid-resolvable.

    Window-limited data (finite everywhere on the grid) resolves the
    conjugate only up to the right slope at the window end.  Data with a
    +inf tail inside the window, or a single point, has a finite
    conjugate for every dual argument.
    """
    if f.finite_sup < f.grid.size or not f._slopes.size:
        return float("inf")
    return float(f._slopes[-1])


def _dual_grid(slopes: np.ndarray, cap: float) -> np.ndarray:
    """Dual grid on the kinks ``slopes`` of a conjugate resolvable up to ``cap``.

    Past a finite ``cap`` one explicit +inf point keeps the window
    information through further conjugation.  With no cap the conjugate
    is affine past its last kink, and one more point resolves that tail.
    """
    pts = np.sort(np.concatenate(([0.0], slopes)))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]  # np.unique loads numpy.ma
    if np.isfinite(cap):
        pts = pts[pts <= cap * (1.0 + _SENTINEL_RTOL) + 1e-300]
        if pts[-1] < cap:
            pts = np.append(pts, cap)
    # A point clear of its predecessor is clear of the last kept point,
    # which is no larger, so only the others need the sequential rule.
    tol = 1e-13 * np.maximum(1.0, np.abs(pts))
    keep = np.ones(pts.size, dtype=bool)
    keep[1:] = pts[1:] > pts[:-1] + tol[1:]
    last = 0
    for i in np.flatnonzero(~keep).tolist():
        if keep[i - 1]:
            last = i - 1
        keep[i] = pts[i] > pts[last] + tol[i]
    pts = pts[keep]
    end = pts[-1]
    tail = cap + 1e-6 * max(1.0, cap) if np.isfinite(cap) else end + max(1.0, end)
    return np.append(pts, tail)


def _conjugate_values_scan(v, fv, s) -> np.ndarray:
    """Exhaustive sup over the grid, in blocks of ``_BLOCK`` elements."""
    out = np.empty(s.size)
    rows = max(1, _BLOCK // v.size)
    buf = np.empty((rows, v.size))
    for k in range(0, s.size, rows):
        sk = s[k : k + rows, None]
        blk = buf[: sk.shape[0]]
        np.multiply(sk, v, out=blk)
        np.subtract(blk, fv, out=blk)
        blk.max(axis=1, out=out[k : k + rows])
    return out


def _conjugate_values_sweep(v, fv, s) -> np.ndarray:
    """The scan's sup over each dual point's run of slopes within 1e-9, padded by one sample."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(fv) / np.diff(v)
        lo = np.maximum(np.searchsorted(np.maximum.accumulate(d), s * (1.0 - 1e-9)) - 1, 0)
        up = np.minimum.accumulate(d[::-1])[::-1]
        n = np.minimum(np.searchsorted(up, s * (1.0 + 1e-9), side="right") + 2, v.size) - lo
        end = np.cumsum(n)
        if end[-1] > 8 * (v.size + s.size):  # dual points packed in runs: scan, in blocks
            return _conjugate_values_scan(v, fv, s)
        j = np.arange(end[-1]) - np.repeat(end - n - lo, n)
        return np.maximum.reduceat(np.repeat(s, n) * v[j] - fv[j], end - n)


def legendre_transform(
    f: SampledFunction,
    dual_grid=None,
    method: str = "sweep",
) -> SampledFunction:
    """Convex conjugate ``f*(s) = sup_v { s v - f(v) }`` over the grid.

    Parameters
    ----------
    f : SampledFunction
    dual_grid : None or array
        ``None`` uses the discrete slopes of ``f`` (exact transform,
        domain ``[0, right slope at r_max]``, plus one point past the
        last kink; see the module docstring).  An explicit array is used
        as-is; it must be finite, start at 0 and be strictly increasing.
    method : {"sweep", "scan"}
        "scan" is the exhaustive reference; "sweep" searches the slopes and
        equals it on every finite entry (to roundoff if gaps < 1e-9 r_max).

    Returns
    -------
    SampledFunction
        Convex by construction.  For window-limited input, dual points
        beyond the right end slope are +inf (not grid-resolvable).
    """
    if not isinstance(f, SampledFunction):
        raise InvalidInputError("legendre_transform expects a SampledFunction")
    if dual_grid is None:
        s = _dual_grid(f._slopes, _dual_cap(f))
    else:
        s = np.asarray(dual_grid, dtype=float)
        if s.ndim != 1 or s.size == 0 or s[0] != 0.0 or not np.all(np.isfinite(s)):
            raise InvalidInputError("dual grid must be 1-d, finite and start at 0")
        if s.size > 1 and not np.all(np.diff(s) > 0.0):
            raise InvalidInputError("dual grid must be strictly increasing")

    m = f.finite_sup
    v = f.grid[:m]
    fv = f.values[:m]
    if method == "scan":
        out = _conjugate_values_scan(v, fv, s)
    elif method == "sweep":
        out = _conjugate_values_sweep(v, fv, s)
    else:
        raise InvalidInputError(f"unknown transform method {method!r}")

    cap = _dual_cap(f)
    if np.isfinite(cap):
        cut = cap + _SENTINEL_RTOL * max(1.0, cap)
        out[s > cut] = np.inf
    return SampledFunction.from_samples(s, out)


def _require_uniform(grid: np.ndarray, what: str) -> float:
    if grid.size < 2:
        raise InvalidInputError(f"{what}: grid needs at least 2 points")
    d = np.diff(grid)
    h = float(d.mean())
    if np.max(np.abs(d - h)) > 1e-9 * h:
        raise InvalidInputError(f"{what}: requires a uniform grid")
    return h


def _resample(f: SampledFunction, grid: np.ndarray) -> SampledFunction:
    return SampledFunction.from_samples(grid, _interp(f, grid))


def _common_pair(f: SampledFunction, g: SampledFunction):
    """Bring two sampled functions onto one shared uniform grid."""
    if f.grid.size == g.grid.size and np.array_equal(f.grid, g.grid):
        _require_uniform(f.grid, "infimal convolution")
        return f, g
    hf = _require_uniform(f.grid, "infimal convolution")
    hg = _require_uniform(g.grid, "infimal convolution")
    h = min(hf, hg)
    end = max(f.r_max, g.r_max)
    n = int(round(end / h)) + 1
    grid = np.linspace(0.0, end, n)
    return _resample(f, grid), _resample(g, grid)


def inf_convolve_direct(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Infimal convolution ``min over splits of f(w) + g(v - w)``.

    Both functions are resampled onto a shared uniform grid first, so
    that every split of a grid point is again a pair of grid points.
    """
    f2, g2 = _common_pair(f, g)
    fv = f2.values
    gv = g2.values
    n = fv.size
    # Row i of ``gw`` holds g[i - j] at column j <= i and +inf past it, which
    # never wins the min; a block of rows [a, b) reads only columns < b.
    gr = np.concatenate((gv[::-1], np.full(n - 1, np.inf)))
    gw = np.lib.stride_tricks.sliding_window_view(gr, n)[::-1]
    out = np.empty(n)
    rows = max(1, _BLOCK // n)
    buf = np.empty(rows * n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        # a contiguous block: rows n apart alias in cache when n is 2**k
        blk = buf[: (b - a) * b].reshape(b - a, b)
        np.add(fv[:b], gw[a:b, :b], out=blk)
        blk.min(axis=1, out=out[a:b])
    return SampledFunction.from_samples(f2.grid, out)


def inf_convolve_via_conjugate(
    f: SampledFunction, g: SampledFunction
) -> SampledFunction:
    """Infimal convolution through ``(f [] g)* = f* + g*``.

    Two conjugations onto the merged slope grid of both inputs plus a
    pointwise sum, conjugated back onto the shared primal grid.  Agrees
    with :func:`inf_convolve_direct` to roundoff because the merged
    slope grid contains every kink of ``f* + g*``.
    """
    f2, g2 = _common_pair(f, g)
    dual = _dual_grid(np.concatenate((f2._slopes, g2._slopes)),
                      min(_dual_cap(f2), _dual_cap(g2)))
    fstar = legendre_transform(f2, dual)
    gstar = legendre_transform(g2, dual)
    total = SampledFunction.from_samples(dual, fstar.values + gstar.values)
    return legendre_transform(total, f2.grid)


def yosida(f: SampledFunction, eps: float) -> SampledFunction:
    """Moreau-Yosida envelope ``inf_w f(w) + |w - v|^2 / (2 eps)``.

    Equals the infimal convolution of ``f`` with the quadratic of
    modulus ``1/eps``; for a convex ``f`` with minimum at 0 the
    minimizing split stays on the half-line, so the half-line
    convolution is the full envelope.
    """
    if not (eps > 0.0):
        raise InvalidInputError("yosida needs eps > 0")
    quad = SampledFunction.from_samples(f.grid, f.grid**2 / (2.0 * eps))
    return inf_convolve_direct(f, quad)


def subdifferential(f: SampledFunction, v: float) -> SubdiffInterval:
    """One-sided slope interval of ``f`` at ``v >= 0``.

    ``f`` is extended evenly through 0, so at ``v = 0`` the interval is
    ``[-f'(0+), f'(0+)]``.  At the boundary of the finite support the
    upper end is +inf (normal cone); inside the +inf region both ends
    are +inf, a saturation marker rather than an error.
    """
    v = _in_range(f, v)
    tol = _tol(f)
    if v <= tol:
        hi = float(_slope_interval(f, 0.0)[1])
        return SubdiffInterval(-hi, hi)
    g = f.grid[: f.finite_sup]
    i = int(np.searchsorted(g, v))
    if i < g.size and abs(v - g[i]) <= tol * max(1.0, abs(float(g[i]))):
        v = float(g[i])
    elif i > 0 and abs(v - g[i - 1]) <= tol:
        v = float(g[i - 1])
    lo, hi = (float(x) for x in _slope_interval(f, v))
    # clamp against slope noise across nearly coincident points
    return SubdiffInterval(lo, max(hi, lo))


def fenchel_young_residual(
    f: SampledFunction, fstar: SampledFunction, v: float, s: float
) -> float:
    """``f(v) + f*(s) - s v``; nonnegative, zero iff ``s`` in ``df(v)``."""
    return evaluate(f, v) + evaluate(fstar, s) - float(s) * float(v)
