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
Sampled(f)             grid samples, linearly interpolated

Each kind subclasses :class:`Potential` and declares one pair of laws,
``_laws``, on numpy's floats and on Python's, which ``stress`` and ``flow``
choose between.  The graph kinds (Dashpot, PerfectPlastic, Huber,
QuadPlusBall, Sampled) declare only their stress law's graph and build
the pair from it.  Every kind's float kernels are snippets of source,
``_GRAPH`` and ``_POWER``, that the generated float solves inline.  The
standalone laws ``overstress_flow``, ``papanastasiou_stress`` and
``casson_stress`` are ``_comparison``'s, served here at their first use (PEP 562).
"""

from __future__ import annotations

import math
from functools import cached_property, partial

from ._graph import SubdiffInterval, _Feat, _Graph
from ._numpy import _Lazy, _served, np
from ._record import Record
from .errors import InvalidInputError

cc = _Lazy("rheokit.convex_core")  # imported at the Sampled kind's first use alone
rh = _Lazy("rheokit.rheology")  # which generates the float laws, and imports this module

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

    Each kind defines ``value`` (the density at an array of magnitudes, +inf off the support),
    ``conjugate``, and ``_laws``, made once: ``((flow, stress) on numpy's floats, (flow, stress)
    on Python's)``, the stress at strain-rate magnitudes and the flow at stress magnitudes, each
    returning ``(lo, hi, slope)``: the ends of the set-valued derivative and the slope of the
    upper end, +inf at a jump.  ``stress`` and ``flow`` run the numpy law at a numpy array, 0-d
    included (callers set ``np.errstate``), and the float law at any other number ``x``, a numpy
    scalar too, at ``float(x)``.  The float laws, also ``_float_flow()`` and ``_float_stress()``,
    return Python floats, +inf on overflow, no raise: the numpy law's bits on 0-d arrays, also
    on 1-d ones but where numpy's ``**`` rounds a power law otherwise (by up to 2 ulps seen); each
    carries a snippet (:class:`_Law`), inlined in a generated solve.  ``kind`` names the element in
    model documents (None: not representable); ``_graph`` is the stress law as a polyline, None
    where it is not one.
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

    def stress(self, eps):
        return self._law_at(eps, 1)

    def flow(self, sig):
        return self._law_at(sig, 0)

    def _law_at(self, x, side):  # no numpy name read at a Python number
        if isinstance(x, (int, float)) or not isinstance(x, np.ndarray):
            return self._laws[1][side](float(x))
        return self._laws[0][side](x)

    def _float_flow(self):
        return self._laws[1][0]

    def _float_stress(self):
        return self._laws[1][1]

    def _feat(self) -> _Feat:
        """Graph features; by default a strictly increasing, unbounded law."""
        return _Feat(True, True, True, True)

    def stress_sup(self) -> float:
        """Supremum of the attainable stress (inf when unbounded)."""
        return math.inf


class _GraphLaw(Potential):
    """A kind whose stress law is the polyline its ``_pieces`` declare; its pair of laws,
    graph features and stress supremum are read from that graph (:class:`_graph._Graph`),
    the flow from its transpose."""

    @cached_property
    def _graph(self) -> _Graph:
        return _Graph(self._pieces())

    @cached_property
    def _laws(self):  # the flow reads zero rate at zero stress (``rest``), the stress does not
        g, t = self._graph, self._graph.T
        floats = _Law(inline=(_GRAPH, (*t._rows, True))), _Law(inline=(_GRAPH, (*g._rows, False)))
        return (partial(t, rest=True), g), floats

    def _feat(self):
        return self._graph.feat

    def stress_sup(self):
        return self._graph.sup


class _Law:
    """A float law that runs ``_law``, a function made at the first call by ``make(self)`` and kept.
    A generated solve calls that function, or inlines a law that carries a snippet over its cells,
    ``_inline = ((kind, cell names, source), cells)``: from ``x`` part ``i`` sets its ends ``l{i},
    h{i}`` and slope ``d{i}``.  With no ``make``, ``_law`` is the snippet alone, generated."""

    def __init__(self, make=None, inline=None):
        self._make, self._inline = make, inline

    def __call__(self, x):
        return self._law(x)

    @cached_property
    def _law(self):
        return self._make(self) if self._make else rh._generate("law", rh._LAW, {}, [self])


# The graph's rows at ``x`` (:meth:`_graph._Graph._rows`): ``y0 + (x - x0) * dy / dx``, capped at
# the level of a flat it runs into, and at a jump its ends, the lower one at rest if ``rest``.
_GRAPH = ("graph", "rows starts rest", """\
x0, y0, dx, dy, d{i}, k, l{i} = rows{i}[bisect_right(starts{i}, x)]
h{i} = y0 + (x - x0) * dy / dx if dy else y0
if k is not None and not h{i} < k:
    h{i}, d{i} = k, 0.0
if x == x0 and l{i} < y0:
    h{i}, d{i} = l{i} if rest{i} and not x else h{i}, inf
else:
    l{i} = h{i}
""")


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


_POWER = ("powerlaw", "a b p q r c", """\
w = x / a{i}
try:
    h{i} = b{i} * w**p{i}
except OverflowError:  # w**p past the floats, b * w**p maybe not
    try:
        h{i} = (w * b{i}**r{i}) ** p{i}
    except OverflowError:
        h{i} = inf
try:
    d{i} = c{i} * w**q{i}
except OverflowError:  # w**q past the floats, the slope c * w**q = p * h / x maybe not
    d{i} = h{i} / x * p{i}
except ZeroDivisionError:
    d{i} = c{i} * inf
l{i} = h{i}
""")


def _power_kernel(a, b, p, c):
    """A power law either way: ``v -> (x, x, c * u**(p - 1))``, ``u = v / a``, ``x = b * u**p``
    (``a`` or ``b`` of 1 moves no bit), ``(u * b**(1/p))**p`` where ``u**p`` overflows, and the
    slope ``p * x / v`` (``c = p * b / a``) where ``u**(p - 1)`` does; +inf where those overflow or
    ** raises 0 to a power < 0.  The pair of it on numpy's floats, with no warning, and on Python
    floats, the snippet :data:`_POWER`."""
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

    return on_arrays, _Law(inline=(_POWER, (a, b, p, q, r, c)))


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

    @cached_property
    def _laws(self):
        return tuple(zip(_power_kernel(self.D, 1.0, self.n, self.n / self.D),
                         _power_kernel(1.0, self.D, 1.0 / self.n, self.D / self.n)))

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


class Sampled(_GraphLaw):
    """Grid-sampled potential; shifted so the value at 0 is exactly 0.  Its stress law is the
    interpolant's staircase derivative, ``SampledFunction._staircase``: window-limited data
    ends in its last flat, the stress past the window, where the conjugate is +inf."""

    f: cc.SampledFunction

    def __post_init__(self):
        f = self.f
        if not isinstance(f, cc.SampledFunction):
            raise InvalidInputError(f"Sampled needs a SampledFunction, got {f!r}")
        if f.values[0] != 0.0:
            self.__dict__["f"] = cc.SampledFunction(f.grid, f.values - f.values[0], f.finite_sup)

    def value(self, r):
        return cc._interp(self.f, r)

    def _pieces(self):
        return self.f._staircase

    def conjugate(self):
        dual = Sampled(cc.legendre_transform(self.f))
        dual.__dict__["_graph"] = self._graph.T  # so its stress is this flow, bit for bit
        return dual

    def _feat(self):  # strictly convex samples finite on the grid: strict and unbounded
        f = self.f
        allfin = f.finite_sup == f.grid.size
        strict = f._slopes.size >= 1 and bool(np.all(np.diff(f._slopes) > 0.0))
        return _Feat(allfin, strict, allfin, strict and allfin)


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
    lo, hi, _ = _potential(p).stress(_number(r, "potential argument", "nonnegative"))
    return SubdiffInterval(lo, hi)


def conjugate_analytic(p: Potential) -> Potential:
    """Convex conjugate of a catalog potential, again a catalog potential.

    Dashpot(D)        <-> Dashpot(1/D)          (quadratic of modulus 1/D)
    PerfectPlastic(a) <-> QuadPlusBall(0, a)    (indicator of [0, a])
    PowerLaw(D, n)    <-> PowerLaw(D**-n, 1/n)  (exponent 1+n, coeff 1/((1+n) D**n))
    Huber(a, D)       <-> QuadPlusBall(1/D, a)
    Sampled           ->  Sampled of the numeric transform, its graph transposed
    """
    return _potential(p).conjugate()


def sample_potential(p: Potential, grid=None) -> cc.SampledFunction:
    """Sample a catalog potential onto a grid (default uniform 2048 pts)."""
    if grid is None:
        grid = cc.uniform_grid()
    grid = np.asarray(grid, dtype=float)
    return cc.SampledFunction.from_samples(grid, value(p, grid))


__getattr__ = _served(__name__, dict.fromkeys(
    ("overstress_flow", "papanastasiou_stress", "casson_stress"), "_comparison"))
