"""Closed-form dissipation potentials and their conjugates.

All potentials are radial: they are functions of the magnitude of the
strain rate (or, for conjugate-side objects, of the stress), with the
vector law recovered by the caller as ``sigma = mu_eff(|eps|) eps``.
Every variant is normalized to vanish at zero rate.

Catalog
-------
Dashpot(D)             0.5 * D * r**2                     (linear viscosity)
PerfectPlastic(a)      a * r                              (dry friction, yield a)
PowerLaw(D, n)         n/(n+1) * D * r**(1 + 1/n)         (creep exponent n)
Huber(a, D)            0.5*D*r**2 below a/D, affine above (serial creep+slip)
QuadPlusBall(q, a)     0.5*q*s**2 on [0, a], +inf outside (conjugate-side)
Sampled(f)             grid data, numeric fallbacks

Each kind subclasses :class:`Potential` and carries its own laws.  The
polyline kinds (Dashpot, PerfectPlastic, Huber, QuadPlusBall) declare
only their stress law's graph and read their kernels from it.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

from ._graph import SubdiffInterval, _Feat, _Graph
from ._numpy import _Lazy, np
from ._record import Record
from .errors import InvalidInputError

cc = _Lazy("rheokit.convex_core")  # imported at the Sampled kind's first use alone

__all__ = [
    "Dashpot",
    "PerfectPlastic",
    "PowerLaw",
    "Huber",
    "QuadPlusBall",
    "Sampled",
    "Potential",
    "value",
    "dvalue",
    "conjugate_analytic",
    "overstress_flow",
    "papanastasiou_stress",
    "casson_stress",
    "sample_potential",
]


def _number(x, name, rule="positive"):
    """``x`` as a float if it is a number: not a bool, str or bytes, and converts to a finite
    float; with ``rule`` "positive" (a modulus) also > 0, with "nonnegative" >= 0, with None
    of any sign.  Else an :class:`InvalidInputError` naming ``name``, which does not echo a
    number past the float range."""
    big = False
    try:
        v = math.nan if isinstance(x, (bool, str, bytes)) else float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        v, big = math.nan, isinstance(exc, OverflowError)
    if math.isfinite(v) and (v > 0 or rule != "positive" and (v == 0 or rule is None)):
        return v
    kind = f"a {rule} finite number" if rule else "a finite number"
    got = "a number past the float range" if big else repr(x)
    raise InvalidInputError(f"{name} must be {kind}, got {got}")


def _rates(x, name, positive=False):
    """``x`` as a float array, and whether it came as a scalar, if it holds numbers (not
    bools or strings) all finite and >= 0 (> 0 if ``positive``); else an
    :class:`InvalidInputError` naming ``name``."""
    a = np.asarray(x)
    if a.dtype.kind in "iuf":
        a = np.asarray(a, dtype=float)
        if np.all(np.isfinite(a) & ((a > 0) if positive else (a >= 0))):
            return a, a.ndim == 0
    sign = "strictly positive" if positive else ">= 0"
    raise InvalidInputError(f"{name} must be finite and {sign}")


def _conjugate_modulus(kind, name, x, base, exp):
    """A conjugate's modulus ``x = base**exp``; a typed error where that over- or underflowed."""
    if 0.0 < x < math.inf:
        return x
    raise InvalidInputError(f"the conjugate {kind} has {name} = 10**{exp * math.log10(base):.6g}, "
                            "which float64 cannot represent")


class Potential(Record):
    """One element kind of the catalog, carrying its own laws.

    Each kind defines ``value`` (the density at an array of magnitudes,
    +inf off the support), ``conjugate``, and the kernels ``stress`` (at
    strain-rate magnitudes) and ``flow`` (at stress magnitudes): at a
    float64 array or numpy scalar they return ``(lo, hi, slope)``, the
    ends of the set-valued derivative and the slope of the upper end, +inf
    at a jump.  Callers set ``np.errstate``.  ``_float_flow()``, ``_float_stress()``:
    each on one Python float, in Python floats, bit for bit, +inf on overflow, no raise.
    ``kind`` names the element in model documents (None: not representable);
    ``_graph`` is the stress law as a polyline, None where it is not one.
    """

    kind = None
    _graph = None
    _nonneg = ()  # fields that may be 0

    def __post_init__(self):
        """Each field is a modulus, > 0 (>= 0 if in ``_nonneg``), stored as the float
        that :func:`_number` returns."""
        for f in self._fields:
            rule = "nonnegative" if f in self._nonneg else "positive"
            self.__dict__[f] = _number(self.__dict__[f], f, rule)

    def _float_flow(self, law=None):
        """The float kernel of ``flow`` (or ``law``): by default the numpy one, under errstate."""
        law = law or self.flow
        def kernel(x):
            with np.errstate(all="ignore"):
                return tuple(map(float, law(np.float64(x))))

        return kernel

    def _float_stress(self):
        return Potential._float_flow(self, self.stress)

    def _feat(self) -> _Feat:
        """Graph features; by default a strictly increasing, unbounded law."""
        return _Feat(True, True, True, True)

    def stress_sup(self) -> float:
        """Supremum of the attainable stress (inf when unbounded)."""
        return math.inf


class _GraphLaw(Potential):
    """A kind whose stress law is the polyline its ``_pieces`` declare; the
    kernels, graph features and stress supremum are read from that graph
    (:class:`_graph._Graph`), the flow from its transpose."""

    @cached_property
    def _graph(self) -> _Graph:
        return _Graph(self._pieces())

    def stress(self, eps):
        return self._graph(eps)

    def flow(self, sig):
        return self._graph.T(sig, rest=True)  # zero rate at zero stress

    def _float_flow(self):
        return self._graph.T._at  # with rest, as flow

    def _float_stress(self):
        at = self._graph._at
        return lambda r: at(r, False)

    def _feat(self):
        return self._graph.feat

    def stress_sup(self):
        return self._graph.sup


class _Polyline(_GraphLaw):
    """A merged graph of the kinds below: one element standing for several."""

    _graph: _Graph
    __post_init__ = Record.__post_init__  # a merged graph, its parts checked when built


class Dashpot(_GraphLaw):
    """Linear viscous element with modulus ``D`` in Pa*s."""

    D: float
    kind = "dashpot"

    def value(self, r):
        return 0.5 * self.D * r**2

    def _pieces(self):
        return ((0.0, 0.0, 1.0, self.D),)

    def conjugate(self):
        return Dashpot(_conjugate_modulus("Dashpot", "D", 1.0 / self.D, self.D, -1))


class PerfectPlastic(_GraphLaw):
    """Rate-independent element with activation (yield) stress in Pa."""

    sigma_a: float
    kind = "plastic"

    def value(self, r):
        return self.sigma_a * r

    def _pieces(self):
        # rigid: the vertical segment [0, a] at rest, then flat
        return ((0.0, 0.0, 0.0, 1.0), (0.0, self.sigma_a, 1.0, 0.0))

    def conjugate(self):
        return QuadPlusBall(0.0, self.sigma_a)


def _power_kernel(a, b, p, c, arrays=False):
    """A power law either way: ``v -> (x, x, c * u**(p - 1))``, ``u = v / a``, ``x = b * u**p``
    (``a`` or ``b`` of 1 moves no bit), ``(u * b**(1/p))**p`` where ``u**p`` overflows, and the
    slope ``p * x / v`` (``c = p * b / a``) where ``u**(p - 1)`` does; +inf where those overflow or
    ** raises 0 to a power < 0.  On Python floats, or numpy's, with no warning."""
    q, r = p - 1.0, 1.0 / p
    def on_arrays(v):
        with np.errstate(all="ignore"):
            u = np.divide(v, a)
            x = b * (w := u**p)
            if np.any(past := (w == math.inf) & (u < math.inf)):
                x = np.where(past, (u * b**r) ** p, x)[()]
            s = c * (g := u**q)
            if np.any(past := (g == math.inf) & (0.0 < u) & (u < math.inf)):
                s = np.where(past, x / v * p, s)[()]
            return x, x, s
    def kernel(v):
        u = v / a
        try:
            x = b * u**p
        except OverflowError:  # u**p past the floats, b * u**p maybe not
            try:
                x = (u * b**r) ** p
            except OverflowError:
                x = math.inf
        try:
            return x, x, c * u**q
        except OverflowError:  # u**q past the floats, the slope c * u**q = p * x / v maybe not
            return x, x, x / v * p
        except ZeroDivisionError:
            return x, x, c * math.inf

    return on_arrays if arrays else kernel


class PowerLaw(Potential):
    """Power-law creep element, stress law ``D * r**(1/n)``.

    ``D`` is in Pa*s^(1/n); ``n = 1`` is a linear dashpot, large ``n``
    approaches perfect plasticity with ``D`` in the role of the yield
    stress.
    """

    D: float
    n: float
    kind = "powerlaw"

    def value(self, r):
        return self.n / (self.n + 1.0) * self.D * r ** (1.0 + 1.0 / self.n)

    def _float_flow(self, arrays=False):
        return _power_kernel(self.D, 1.0, self.n, self.n / self.D, arrays)

    def _float_stress(self, arrays=False):
        return _power_kernel(1.0, self.D, 1.0 / self.n, self.D / self.n, arrays)

    def stress(self, eps):
        return self._float_stress(type(eps) is not float)(eps)

    def flow(self, sig):
        return self._float_flow(type(sig) is not float)(sig)

    def conjugate(self):
        # exponent 1+n, coefficient 1/((1+n) D**n)
        try:
            d = self.D ** (-self.n)
        except OverflowError:
            d = math.inf
        return PowerLaw(_conjugate_modulus("PowerLaw", "D", d, self.D, -self.n), 1.0 / self.n)


class Huber(_GraphLaw):
    """Quadratic below ``sigma_a / D``, affine above.

    The serial combination of a yield element ``sigma_a`` and a dashpot
    ``D``: quadratic creep branch, then slip at constant slope
    ``sigma_a`` with offset ``-0.5 * sigma_a**2 / D``.
    """

    sigma_a: float
    D: float
    kind = "huber"

    def value(self, r):
        a, d = self.sigma_a, self.D
        try:
            off = 0.5 * a**2 / d
        except OverflowError:  # a**2 past the float range; the offset may not be
            off = 0.5 * a * (a / d)
        with np.errstate(over="ignore", invalid="ignore"):  # +inf past the float range
            return np.where(r <= a / d, 0.5 * d * r**2, a * r - off)

    def _pieces(self):
        a, d = self.sigma_a, self.D
        return ((0.0, 0.0, 1.0, d), (a / d, a, 1.0, 0.0))

    def conjugate(self):
        q = _conjugate_modulus("QuadPlusBall", "Dinv_quad", 1.0 / self.D, self.D, -1)
        return QuadPlusBall(q, self.sigma_a)


class QuadPlusBall(_GraphLaw):
    """``0.5 * Dinv_quad * s**2`` on ``[0, sigma_a]``, +inf outside.

    Conjugate-side object (argument is a stress magnitude).  A zero
    quadratic part gives the plain ball indicator.
    """

    Dinv_quad: float
    sigma_a: float

    _nonneg = ("Dinv_quad",)

    def value(self, r):
        q = self.Dinv_quad  # a plain ball is 0 inside, also where r**2 overflows
        return np.where(r <= self.sigma_a, 0.5 * q * r**2 if q else 0.0, np.inf)

    def _pieces(self):
        # the normal cone at the support boundary is a vertical end ray
        q, a = self.Dinv_quad, self.sigma_a
        return ((0.0, 0.0, 1.0, q), (a, a * q, 0.0, 1.0))

    def conjugate(self):
        if self.Dinv_quad == 0.0:
            return PerfectPlastic(self.sigma_a)
        d = _conjugate_modulus("Huber", "D", 1.0 / self.Dinv_quad, self.Dinv_quad, -1)
        return Huber(self.sigma_a, d)


class Sampled(Potential):
    """Grid-sampled potential; shifted so the value at 0 is exactly 0.

    Derivatives are those of the piecewise-linear interpolant; the flow
    is the stress law of the numeric conjugate, computed once.  A +inf
    tail bounds the rate by the last finite sample point: the conjugate
    is affine past its last grid point, and the flow there is that bound.
    """

    f: cc.SampledFunction

    def __post_init__(self):
        f = self.f
        if not isinstance(f, cc.SampledFunction):
            raise InvalidInputError(f"Sampled needs a SampledFunction, got {f!r}")
        if f.values[0] != 0.0:
            shifted = cc.SampledFunction(f.grid, f.values - f.values[0], f.finite_sup)
            object.__setattr__(self, "f", shifted)

    @cached_property
    def _dual(self) -> "Sampled":
        return Sampled(cc.legendre_transform(self.f))

    def value(self, r):
        return cc._interp(self.f, r)

    def stress(self, eps):
        lo, hi = cc._slope_interval(self.f, eps)
        # piecewise constant: flat between grid points, a jump at a kink
        return lo, hi, np.where(lo == hi, 0.0, np.inf)

    def flow(self, sig):
        if self.f.finite_sup < self.f.grid.size:
            sig = np.minimum(sig, self._dual.f.r_max)
        # the rate at zero stress is zero, not the conjugate's slope at rest
        lo, hi, d = self._dual.stress(sig)
        return lo, np.where(sig == 0.0, 0.0, hi), d

    def conjugate(self):
        return self._dual

    def _feat(self):
        # accept strictly convex, everywhere-finite samples as strict and
        # unbounded (growth beyond the window is not inferable)
        f = self.f
        allfin = f.finite_sup == f.grid.size
        strict = f._slopes.size >= 1 and bool(np.all(np.diff(f._slopes) > 0.0))
        return _Feat(allfin, strict, allfin, strict and allfin)

    def stress_sup(self):
        return cc._dual_cap(self.f)


def _potential(p) -> Potential:
    if not isinstance(p, Potential):
        raise InvalidInputError(f"unknown potential {p!r}")
    return p


def value(p: Potential, r):
    """Potential density at rate (or stress) magnitude ``r >= 0``, in Pa/s.

    Evaluation past a finite support returns +inf, not an error.
    Accepts scalars or arrays.
    """
    r, scalar = _rates(r, "potential argument")
    out = _potential(p).value(r)
    return float(out) if scalar else out


def dvalue(p: Potential, r: float) -> SubdiffInterval:
    """Radial stress (sub)derivative at ``r >= 0``, as a magnitude interval.

    Single-valued except for the yield ball of PerfectPlastic at rest,
    reported as ``[0, sigma_a]``, and the normal cone at the support
    boundary of QuadPlusBall, reported with an upper end of +inf.
    """
    lo, hi, _ = _potential(p)._float_stress()(_number(r, "potential argument", "nonnegative"))
    return SubdiffInterval(lo, hi)


def conjugate_analytic(p: Potential) -> Potential:
    """Convex conjugate of a catalog potential, again a catalog potential.

    Dashpot(D)        <-> Dashpot(1/D)          (quadratic of modulus 1/D)
    PerfectPlastic(a) <-> QuadPlusBall(0, a)    (indicator of [0, a])
    PowerLaw(D, n)    <-> PowerLaw(D**-n, 1/n)  (exponent 1+n, coeff 1/((1+n) D**n))
    Huber(a, D)       <-> QuadPlusBall(1/D, a)
    Sampled           ->  numeric transform fallback
    """
    return _potential(p).conjugate()


def overstress_flow(D: float, n_exp: float, sigma_a: float, sigma: float) -> float:
    """Strain rate of the overstress flow rule, in 1/s.

    Zero at or below the yield stress, ``(sigma - sigma_a)**n / D``
    above it: the conjugate derivative of the rate-dependent-plasticity
    potential written as a flow function of the overstress.
    """
    D, n_exp = _number(D, "D"), _number(n_exp, "n_exp")
    sigma_a = _number(sigma_a, "sigma_a", "nonnegative")
    sigma = _number(sigma, "sigma", "nonnegative")
    if sigma <= sigma_a:
        return 0.0
    x = sigma - sigma_a
    try:
        w = x**n_exp
    except OverflowError:
        w = math.inf
    try:  # the power past the float range or under its normals, the rate maybe not: divide first
        return w / D if sys.float_info.min <= w < math.inf else (x / D ** (1.0 / n_exp)) ** n_exp
    except OverflowError:
        return math.inf


def papanastasiou_stress(sigma_a: float, c: float, n_exp: float, eps: float) -> float:
    """Regularized yield-stress law ``sigma_a * (1 + c * eps**n)**(1/n)``.

    Single-valued by design; at ``eps = 0`` the continuous limit
    ``sigma_a`` is returned.
    """
    sigma_a, n_exp = _number(sigma_a, "sigma_a"), _number(n_exp, "n_exp")
    c, eps = _number(c, "c", "nonnegative"), _number(eps, "eps", "nonnegative")
    if eps == 0.0 or c == 0.0:
        return sigma_a
    try:
        out = sigma_a * (1.0 + c * eps**n_exp) ** (1.0 / n_exp)
        if out < math.inf:
            return out
    except OverflowError:
        pass
    # a power or product past the float range, the stress maybe not: in logs, to about 1e-13
    # relative, log(1 + t) = max(l, 0) + log1p(exp(-|l|)) from l = log t = log c + n log eps
    lt = math.log(c) + n_exp * math.log(eps)
    try:
        return math.exp(math.log(sigma_a) + (max(lt, 0.0) + math.log1p(math.exp(-abs(lt)))) / n_exp)
    except OverflowError:
        return math.inf


def casson_stress(sigma_a: float, c: float, eps: float) -> float:
    """Casson law ``sigma_a * (1 + c * eps)**(1/2)``; ``sigma_a`` at rest."""
    sigma_a = _number(sigma_a, "sigma_a")
    c, eps = _number(c, "c", "nonnegative"), _number(eps, "eps", "nonnegative")
    if eps == 0.0:
        return sigma_a
    t = c * eps  # +inf past the float range, where the stress may not be
    return sigma_a * (math.sqrt(1.0 + t) if t < math.inf else math.sqrt(c) * math.sqrt(eps))


def sample_potential(p: Potential, grid=None) -> cc.SampledFunction:
    """Sample a catalog potential onto a grid (default uniform 2048 pts)."""
    if grid is None:
        grid = cc.uniform_grid()
    grid = np.asarray(grid, dtype=float)
    return cc.SampledFunction.from_samples(grid, value(p, grid))
