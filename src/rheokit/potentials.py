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
from functools import cached_property

from ._numpy import np
from . import convex_core as cc
from ._record import Record
from .convex_core import SampledFunction, SubdiffInterval, _Feat, _Graph
from .errors import InvalidInputError

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


def _check_positive(**kwargs):
    for name, x in kwargs.items():
        try:
            xf = float(x)
        except (TypeError, ValueError):
            raise InvalidInputError(f"{name} must be a number, got {x!r}") from None
        if not (math.isfinite(xf) and xf > 0):
            raise InvalidInputError(f"{name} must be a positive finite number, got {x!r}")


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
    (:class:`convex_core._Graph`), the flow from its transpose."""

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


class Dashpot(_GraphLaw):
    """Linear viscous element with modulus ``D`` in Pa*s."""

    D: float
    kind = "dashpot"

    def __post_init__(self):
        _check_positive(D=self.D)

    def value(self, r):
        return 0.5 * self.D * r**2

    def _pieces(self):
        return ((0.0, 0.0, 1.0, float(self.D)),)

    def conjugate(self):
        return Dashpot(_conjugate_modulus("Dashpot", "D", 1.0 / self.D, self.D, -1))


class PerfectPlastic(_GraphLaw):
    """Rate-independent element with activation (yield) stress in Pa."""

    sigma_a: float
    kind = "plastic"

    def __post_init__(self):
        _check_positive(sigma_a=self.sigma_a)

    def value(self, r):
        return self.sigma_a * r

    def _pieces(self):
        # rigid: the vertical segment [0, a] at rest, then flat
        return ((0.0, 0.0, 0.0, 1.0), (0.0, float(self.sigma_a), 1.0, 0.0))

    def conjugate(self):
        return QuadPlusBall(0.0, self.sigma_a)


def _power_kernel(a, b, p, c):
    """A power law either way: ``v -> (x, x, c * u**(p - 1))``, ``u = v / a``, ``x = b * u**p``
    (``a`` or ``b`` of 1 moves no bit); +inf where ** overflows or raises 0 to a power < 0."""
    q = p - 1.0
    def kernel(v):
        u = v / a
        try:
            x = b * u**p
        except ArithmeticError:
            x = math.inf
        try:
            return x, x, c * u**q
        except ArithmeticError:
            return x, x, c * math.inf

    return kernel


class PowerLaw(Potential):
    """Power-law creep element, stress law ``D * r**(1/n)``.

    ``D`` is in Pa*s^(1/n); ``n = 1`` is a linear dashpot, large ``n``
    approaches perfect plasticity with ``D`` in the role of the yield
    stress.
    """

    D: float
    n: float
    kind = "powerlaw"

    def __post_init__(self):
        _check_positive(D=self.D, n=self.n)

    def value(self, r):
        return self.n / (self.n + 1.0) * self.D * r ** (1.0 + 1.0 / self.n)

    def stress(self, eps):
        x = self.D * eps ** (1.0 / self.n)
        return x, x, self.D / self.n * eps ** (1.0 / self.n - 1.0)

    def flow(self, sig):
        u = sig / self.D
        x = u**self.n
        return x, x, self.n / self.D * u ** (self.n - 1.0)

    def _float_flow(self):
        return _power_kernel(float(self.D), 1.0, float(self.n), float(self.n / self.D))

    def _float_stress(self):
        return _power_kernel(1.0, float(self.D), 1.0 / self.n, float(self.D / self.n))

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

    def __post_init__(self):
        _check_positive(sigma_a=self.sigma_a, D=self.D)

    def value(self, r):
        a, d = float(self.sigma_a), float(self.D)
        try:
            off = 0.5 * a**2 / d
        except OverflowError:  # a**2 past the float range; the offset may not be
            off = 0.5 * a * (a / d)
        with np.errstate(over="ignore", invalid="ignore"):  # +inf past the float range
            return np.where(r <= a / d, 0.5 * d * r**2, a * r - off)

    def _pieces(self):
        a, d = float(self.sigma_a), float(self.D)
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

    def __post_init__(self):
        try:
            q = float(self.Dinv_quad)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"Dinv_quad must be a number, got {self.Dinv_quad!r}"
            ) from None
        if not (math.isfinite(q) and q >= 0):
            raise InvalidInputError(f"Dinv_quad must be >= 0 and finite, got {q!r}")
        _check_positive(sigma_a=self.sigma_a)

    def value(self, r):
        q = self.Dinv_quad  # a plain ball is 0 inside, also where r**2 overflows
        return np.where(r <= self.sigma_a, 0.5 * q * r**2 if q else 0.0, np.inf)

    def _pieces(self):
        # the normal cone at the support boundary is a vertical end ray
        q, a = float(self.Dinv_quad), float(self.sigma_a)
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

    f: SampledFunction

    def __post_init__(self):
        f = self.f
        if not isinstance(f, SampledFunction):
            raise InvalidInputError(f"Sampled needs a SampledFunction, got {f!r}")
        if f.values[0] != 0.0:
            shifted = SampledFunction(f.grid, f.values - f.values[0], f.finite_sup)
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


def _magnitudes(p, r) -> np.ndarray:
    if not isinstance(p, Potential):
        raise InvalidInputError(f"unknown potential {p!r}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInputError("potential argument must be >= 0")
    return r


def value(p: Potential, r):
    """Potential density at rate (or stress) magnitude ``r >= 0``, in Pa/s.

    Evaluation past a finite support returns +inf, not an error.
    Accepts scalars or arrays.
    """
    r = _magnitudes(p, r)
    out = p.value(r)
    return float(out) if r.ndim == 0 else out


def dvalue(p: Potential, r: float) -> SubdiffInterval:
    """Radial stress (sub)derivative at ``r >= 0``, as a magnitude interval.

    Single-valued except for the yield ball of PerfectPlastic at rest,
    reported as ``[0, sigma_a]``, and the normal cone at the support
    boundary of QuadPlusBall, reported with an upper end of +inf.
    """
    if not isinstance(p, Potential):
        raise InvalidInputError(f"unknown potential {p!r}")
    r = float(r)
    if r < 0:
        raise InvalidInputError("potential argument must be >= 0")
    lo, hi, _ = p._float_stress()(r)
    return SubdiffInterval(lo, hi)


def conjugate_analytic(p: Potential) -> Potential:
    """Convex conjugate of a catalog potential, again a catalog potential.

    Dashpot(D)        <-> Dashpot(1/D)          (quadratic of modulus 1/D)
    PerfectPlastic(a) <-> QuadPlusBall(0, a)    (indicator of [0, a])
    PowerLaw(D, n)    <-> PowerLaw(D**-n, 1/n)  (exponent 1+n, coeff 1/((1+n) D**n))
    Huber(a, D)       <-> QuadPlusBall(1/D, a)
    Sampled           ->  numeric transform fallback
    """
    if not isinstance(p, Potential):
        raise InvalidInputError(f"unknown potential {p!r}")
    return p.conjugate()


def overstress_flow(D: float, n_exp: float, sigma_a: float, sigma: float) -> float:
    """Strain rate of the overstress flow rule, in 1/s.

    Zero at or below the yield stress, ``(sigma - sigma_a)**n / D``
    above it: the conjugate derivative of the rate-dependent-plasticity
    potential written as a flow function of the overstress.
    """
    _check_positive(D=D, n_exp=n_exp)
    if sigma_a < 0 or sigma < 0:
        raise InvalidInputError("sigma_a and sigma must be >= 0")
    if sigma <= sigma_a:
        return 0.0
    return (sigma - sigma_a) ** n_exp / D


def papanastasiou_stress(sigma_a: float, c: float, n_exp: float, eps: float) -> float:
    """Regularized yield-stress law ``sigma_a * (1 + c * eps**n)**(1/n)``.

    Single-valued by design; at ``eps = 0`` the continuous limit
    ``sigma_a`` is returned.
    """
    _check_positive(sigma_a=sigma_a, n_exp=n_exp)
    if c < 0 or eps < 0:
        raise InvalidInputError("c and eps must be >= 0")
    if eps == 0.0:
        return float(sigma_a)
    return sigma_a * (1.0 + c * eps**n_exp) ** (1.0 / n_exp)


def casson_stress(sigma_a: float, c: float, eps: float) -> float:
    """Casson law ``sigma_a * (1 + c * eps)**(1/2)``; ``sigma_a`` at rest."""
    _check_positive(sigma_a=sigma_a)
    if c < 0 or eps < 0:
        raise InvalidInputError("c and eps must be >= 0")
    if eps == 0.0:
        return float(sigma_a)
    return sigma_a * math.sqrt(1.0 + c * eps)


def sample_potential(p: Potential, grid=None) -> SampledFunction:
    """Sample a catalog potential onto a grid (default uniform 2048 pts)."""
    if grid is None:
        grid = cc.uniform_grid()
    grid = np.asarray(grid, dtype=float)
    return SampledFunction.from_samples(grid, value(p, grid))
