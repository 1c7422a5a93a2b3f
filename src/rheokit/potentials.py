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

Each kind subclasses :class:`Potential` and carries its own laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import convex_core as cc
from .convex_core import SampledFunction, SubdiffInterval
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


def _where(c, x, y):
    """``np.where`` that keeps a scalar condition scalar (the Maxwell step)."""
    return np.where(c, x, y) if isinstance(c, np.ndarray) else (x if c else y)


def _full(x, v):
    return np.full_like(x, v) if isinstance(x, np.ndarray) else v


@dataclass(frozen=True)
class _Feat:
    """Features of an element's primal derivative graph on the half-line.

    sv: single-valued (no vertical segments inside the domain)
    nf: no flats (strictly increasing where defined)
    dom: domain is all of [0, inf)
    ub: range is unbounded
    Conjugation swaps sv<->nf and dom<->ub; Parallel sums primal graphs,
    Serial sums conjugate graphs.
    """

    sv: bool
    nf: bool
    dom: bool
    ub: bool


class Potential:
    """One element kind of the catalog, carrying its own laws.

    ``value`` is the density at an array of magnitudes, +inf off the
    support.  The kernels ``stress`` (at strain-rate magnitudes) and
    ``flow`` (at stress magnitudes, the conjugate derivative) take a
    float64 array or a numpy float64 scalar and return ``(lo, hi,
    slope)``: the ends of the set-valued derivative and the slope of the
    upper end, +inf at a jump (a vertical segment of the graph).  Callers
    set ``np.errstate``.  ``kind`` names the element in model documents;
    it is None for the kinds a document cannot hold.
    """

    kind = None

    def value(self, r):
        raise NotImplementedError

    def stress(self, eps):
        raise NotImplementedError

    def flow(self, sig):
        raise NotImplementedError

    def conjugate(self) -> "Potential":
        raise NotImplementedError

    def _feat(self) -> _Feat:
        """Graph features; by default a strictly increasing, unbounded law."""
        return _Feat(True, True, True, True)

    def stress_sup(self) -> float:
        """Supremum of the attainable stress (inf when unbounded)."""
        return math.inf


@dataclass(frozen=True)
class Dashpot(Potential):
    """Linear viscous element with modulus ``D`` in Pa*s."""

    D: float
    kind = "dashpot"

    def __post_init__(self):
        _check_positive(D=self.D)

    def value(self, r):
        return 0.5 * self.D * r**2

    def stress(self, eps):
        x = self.D * eps
        return x, x, _full(eps, self.D)

    def flow(self, sig):
        x = sig / self.D
        return x, x, _full(sig, 1.0 / self.D)

    def conjugate(self):
        return Dashpot(1.0 / self.D)


@dataclass(frozen=True)
class PerfectPlastic(Potential):
    """Rate-independent element with activation (yield) stress in Pa."""

    sigma_a: float
    kind = "plastic"

    def __post_init__(self):
        _check_positive(sigma_a=self.sigma_a)

    def value(self, r):
        return self.sigma_a * r

    def stress(self, eps):
        a = self.sigma_a
        # rigid: the graph is the vertical segment [0, a] at rest
        return _where(eps > 0, a, 0.0), _full(eps, a), _where(eps > 0, 0.0, math.inf)

    def flow(self, sig):
        a = self.sigma_a
        hi = _where(sig < a, 0.0, math.inf)  # also the slope: flat, then a jump
        return _where(sig <= a, 0.0, math.inf), hi, hi

    def conjugate(self):
        return QuadPlusBall(0.0, self.sigma_a)

    def _feat(self):
        return _Feat(False, False, True, False)

    def stress_sup(self):
        return self.sigma_a


@dataclass(frozen=True)
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

    def conjugate(self):
        # exponent 1+n, coefficient 1/((1+n) D**n)
        return PowerLaw(self.D ** (-self.n), 1.0 / self.n)


@dataclass(frozen=True)
class Huber(Potential):
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
        a, d = self.sigma_a, self.D
        return np.where(r <= a / d, 0.5 * d * r**2, a * r - 0.5 * a**2 / d)

    def stress(self, eps):
        de = self.D * eps
        x = np.minimum(de, self.sigma_a)
        return x, x, _where(de < self.sigma_a, self.D, 0.0)

    def flow(self, sig):
        a, x = self.sigma_a, sig / self.D
        return (_where(sig <= a, x, math.inf), _where(sig < a, x, math.inf),
                _where(sig < a, 1.0 / self.D, math.inf))

    def conjugate(self):
        return QuadPlusBall(1.0 / self.D, self.sigma_a)

    def _feat(self):
        return _Feat(True, False, True, False)

    def stress_sup(self):
        return self.sigma_a


@dataclass(frozen=True)
class QuadPlusBall(Potential):
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
        return np.where(r <= self.sigma_a, 0.5 * self.Dinv_quad * r**2, np.inf)

    def stress(self, eps):
        a, q = self.sigma_a, self.Dinv_quad
        return (_where(eps <= a, q * eps, math.inf), _where(eps < a, q * eps, math.inf),
                _where(eps < a, q, math.inf))

    def flow(self, sig):
        a, q = self.sigma_a, self.Dinv_quad
        if q == 0.0:
            x = _where(sig > 0, a, 0.0)
            return x, x, _where(sig > 0, 0.0, math.inf)
        u = sig / q
        x = np.minimum(u, a)
        return x, x, _where(u < a, 1.0 / q, 0.0)

    def conjugate(self):
        if self.Dinv_quad == 0.0:
            return PerfectPlastic(self.sigma_a)
        return Huber(self.sigma_a, 1.0 / self.Dinv_quad)

    def _feat(self):
        return _Feat(False, self.Dinv_quad > 0.0, False, True)


@dataclass(frozen=True)
class Sampled(Potential):
    """Grid-sampled potential; shifted so the value at 0 is exactly 0.

    Derivatives are those of the piecewise-linear interpolant; the flow
    is the stress law of the numeric conjugate, computed once.  A +inf
    tail bounds the rate by the last finite sample point: the conjugate
    is affine past its last grid point, and the flow there is that bound.
    """

    f: SampledFunction = field()

    def __post_init__(self):
        f = self.f
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
    r = _magnitudes(p, [float(r)])
    with np.errstate(divide="ignore", over="ignore"):
        lo, hi, _ = p.stress(r)
    return SubdiffInterval(float(lo[0]), float(hi[0]))


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
