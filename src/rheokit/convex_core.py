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
the interior of its finite domain to roundoff, and makes the two
infimal-convolution routes agree to roundoff as well.  Uniform dual
grids are available by passing an explicit grid.

A function sampled on ``[0, r_max]`` with all values finite is a
window onto a function defined on the whole half-line.  Its conjugate
beyond the right slope at ``r_max`` is not resolvable from the window
and is reported as +inf (never as a large finite surrogate), which is
exact for 1-homogeneous inputs and conservative otherwise.  When the
input itself carries a +inf tail inside the window (an indicator-type
function), the conjugate is finite for every argument and no sentinel
is produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SubdiffInterval:
    """Closed interval ``[lo, hi]`` of a set-valued scalar subdifferential.

    ``lo == hi`` at differentiable points; ``hi = inf`` marks a normal
    cone at a support boundary (or saturation in composite solves).
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise InvalidInputError(
                f"subdifferential interval needs lo <= hi, got [{self.lo}, {self.hi}]"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def uniform_grid(r_max: float = 10.0, n: int = 2048) -> np.ndarray:
    """Uniform grid ``[0, r_max]`` with ``n`` points."""
    if not (r_max > 0.0) or n < 2:
        raise InvalidInputError("uniform_grid needs r_max > 0 and n >= 2")
    return np.linspace(0.0, float(r_max), int(n))


@dataclass(frozen=True, eq=False)
class SampledFunction:
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
            # Chord defect in value units: robust on grids with nearly
            # coincident points, where slope differences amplify roundoff.
            g = grid[:m]
            lam = (g[2:] - g[1:-1]) / (g[2:] - g[:-2])
            chord = lam * finite[:-2] + (1.0 - lam) * finite[2:]
            scale = max(1.0, float(np.max(np.abs(finite))))
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

    def __call__(self, v: float) -> float:
        return evaluate(self, v)


def evaluate(f: SampledFunction, v: float) -> float:
    """Evaluate ``f`` at ``v`` by linear interpolation of the samples.

    Points beyond the last finite sample (but inside the grid) return
    +inf; points outside the grid range raise :class:`OutOfRangeError`.
    """
    v = float(v)
    tol = 1e-12 * max(1.0, f.r_max)
    if v < -tol or v > f.r_max + tol:
        raise OutOfRangeError(f"argument {v} outside grid range [0, {f.r_max}]")
    v = min(max(v, 0.0), f.r_max)
    m = f.finite_sup
    if v > f.grid[m - 1] + tol:
        return float("inf")
    v = min(v, float(f.grid[m - 1]))
    return float(np.interp(v, f.grid[:m], f.values[:m]))


def _slopes(f: SampledFunction) -> np.ndarray:
    m = f.finite_sup
    if m < 2:
        return np.empty(0)
    return np.diff(f.values[:m]) / np.diff(f.grid[:m])


def _right_slope_end(f: SampledFunction) -> float:
    """Right slope at the end of the finite range; +inf for a single point."""
    s = _slopes(f)
    return float(s[-1]) if s.size else float("inf")


def _dual_cap(f: SampledFunction) -> float:
    """Largest dual point at which the conjugate is grid-resolvable.

    Window-limited data (finite everywhere on the grid) resolves the
    conjugate only up to the right slope at the window end.  Data with a
    +inf tail inside the window has a finite conjugate for every dual
    argument.
    """
    if f.finite_sup < f.grid.size:
        return float("inf")
    return _right_slope_end(f)


def _default_dual_grid(f: SampledFunction) -> np.ndarray:
    """Discrete slope points of ``f`` (the exact kinks of its conjugate)."""
    pts = _slopes(f)
    pts = np.concatenate(([0.0], pts))
    pts = np.unique(pts)
    keep = [pts[0]]
    for p in pts[1:]:
        if p > keep[-1] + 1e-13 * max(1.0, abs(p)):
            keep.append(p)
    grid = np.array(keep)
    cap = _dual_cap(f)
    if np.isfinite(cap):
        # One explicit +inf point past the resolvable range keeps the
        # window information through further conjugation.
        grid = np.append(grid, cap + 1e-6 * max(1.0, cap))
    return grid


def _conjugate_values_scan(v, fv, s) -> np.ndarray:
    """Exhaustive sup over the grid, chunked to bound memory."""
    out = np.empty(s.size)
    chunk = max(1, int(2**22 // max(1, v.size)))
    for k in range(0, s.size, chunk):
        sk = s[k : k + chunk]
        out[k : k + chunk] = np.max(sk[:, None] * v[None, :] - fv[None, :], axis=1)
    return out


def _conjugate_values_sweep(v, fv, s) -> np.ndarray:
    """Single monotone sweep; the argmax index is nondecreasing in s."""
    out = np.empty(s.size)
    vl = v.tolist()
    fl = fv.tolist()
    j = 0
    m = len(vl)
    for k, sk in enumerate(s.tolist()):
        while j + 1 < m and sk * vl[j + 1] - fl[j + 1] >= sk * vl[j] - fl[j]:
            j += 1
        out[k] = sk * vl[j] - fl[j]
    return out


def legendre_transform(
    f: SampledFunction,
    dual_grid=None,
    method: str = "sweep",
) -> SampledFunction:
    """Convex conjugate ``f*(s) = sup_v { s v - f(v) }`` over the grid.

    Parameters
    ----------
    f : SampledFunction
    dual_grid : None, int, or array
        ``None`` uses the discrete slopes of ``f`` (exact transform,
        domain ``[0, right slope at r_max]``).  An int builds a uniform
        grid on that domain.  An explicit array is used as-is; it must
        start at 0 and be strictly increasing.
    method : {"sweep", "scan"}
        "scan" is the exhaustive reference; "sweep" walks the argmax
        monotonically in a single pass.  Both agree to roundoff.

    Returns
    -------
    SampledFunction
        Convex by construction.  For window-limited input, dual points
        beyond the right end slope are +inf (not grid-resolvable).
    """
    if not isinstance(f, SampledFunction):
        raise InvalidInputError("legendre_transform expects a SampledFunction")
    if dual_grid is None:
        s = _default_dual_grid(f)
    elif isinstance(dual_grid, int):
        cap = _dual_cap(f)
        if not np.isfinite(cap):
            raise InvalidInputError(
                "cannot size a default dual grid for an indicator-type input; "
                "pass an explicit grid"
            )
        s = np.linspace(0.0, cap, dual_grid)
    else:
        s = np.asarray(dual_grid, dtype=float)
        if s.ndim != 1 or s.size == 0 or s[0] != 0.0:
            raise InvalidInputError("dual grid must be 1-d and start at 0")
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
    m = f.finite_sup
    vals = np.interp(grid, f.grid[:m], f.values[:m])
    vals[grid > f.grid[m - 1] + 1e-12 * max(1.0, f.r_max)] = np.inf
    return SampledFunction.from_samples(grid, vals)


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
    out = np.empty(n)
    for i in range(n):
        out[i] = np.min(fv[: i + 1] + gv[i::-1])
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
    cap = min(_dual_cap(f2), _dual_cap(g2))
    pts = np.concatenate(([0.0], _slopes(f2), _slopes(g2)))
    pts = np.unique(pts)
    if np.isfinite(cap):
        pts = pts[pts <= cap * (1.0 + _SENTINEL_RTOL) + 1e-300]
        if pts[-1] < cap:
            pts = np.append(pts, cap)
    keep = [pts[0]]
    for p in pts[1:]:
        if p > keep[-1] + 1e-13 * max(1.0, abs(p)):
            keep.append(p)
    dual = np.array(keep)
    if np.isfinite(cap):
        dual = np.append(dual, cap + 1e-6 * max(1.0, cap))
    else:
        # Both inputs end in genuine +inf tails: their conjugates are
        # exact and affine beyond the last kink, so one extra dual point
        # resolves the tail of the sum exactly.
        dual = np.append(dual, dual[-1] + max(1.0, dual[-1]))
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
    upper end is +inf (normal cone).
    """
    v = float(v)
    tol = 1e-12 * max(1.0, f.r_max)
    if v < -tol or v > f.r_max + tol:
        raise OutOfRangeError(f"argument {v} outside grid range [0, {f.r_max}]")
    v = min(max(v, 0.0), f.r_max)
    m = f.finite_sup
    grid = f.grid
    vals = f.values
    if m < 2:
        # Only v = 0 is finite: normal cone of the point support.
        if v <= tol:
            return SubdiffInterval(float("-inf"), float("inf"))
        return SubdiffInterval(float("inf"), float("inf"))
    last = float(grid[m - 1])
    if v > last + tol:
        # Inside the +inf region: empty subdifferential, reported as
        # a saturation marker rather than an error.
        return SubdiffInterval(float("inf"), float("inf"))

    slopes = np.diff(vals[:m]) / np.diff(grid[:m])
    if v <= tol:
        r = float(slopes[0])
        return SubdiffInterval(-r, r)
    i = int(np.searchsorted(grid[:m], v))
    at_node = i < m and abs(v - grid[i]) <= tol * max(1.0, abs(float(grid[i])))
    if not at_node and i > 0 and abs(v - grid[i - 1]) <= tol:
        i, at_node = i - 1, True
    if at_node:
        left = float(slopes[i - 1])
        if i == m - 1:
            boundary = m < grid.size
            right = float("inf") if boundary else left
        else:
            # clamp against slope noise across nearly coincident points
            right = max(float(slopes[i]), left)
        return SubdiffInterval(left, right)
    seg = float(slopes[i - 1])
    return SubdiffInterval(seg, seg)


def fenchel_young_residual(
    f: SampledFunction, fstar: SampledFunction, v: float, s: float
) -> float:
    """``f(v) + f*(s) - s v``; nonnegative, zero iff ``s`` in ``df(v)``."""
    return evaluate(f, v) + evaluate(fstar, s) - float(s) * float(v)
