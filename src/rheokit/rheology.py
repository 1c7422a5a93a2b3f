"""Serial/parallel composition of potentials and effective viscosities.

A rheological network is a tree: leaves hold potentials, Parallel nodes
add potentials (stresses add at common rate), Serial nodes combine them
by infimal convolution (rates add at common stress).  When a node is
built, its children with polyline stress laws (dashpot, plastic, Huber)
merge into one exact polyline leaf, so a subtree of them alone is one
closed form.  Elsewhere ``strain_rate_of_stress`` (rates summed across
a Serial node) and ``stress_of_strain_rate`` (stresses summed across a
Parallel node) invert each other by one monotone root finder: on floats
``_root_scalar`` (also the Maxwell step's), on arrays the same rules
elementwise.  It takes safeguarded Newton steps in log-log coordinates
inside a bracket that bisects the ordered bits of the floats, from a first
probe just below a finite cap, else 1, so no solve depends on the unit
scale.  Each node reports its tangent next to its value (stiffnesses add
across Parallel, compliances across Serial, an inverse takes the
reciprocal), for the Newton steps and for ``mu_eff_rigorous``'s exact
limit at rest.  Set-valued points are :class:`SubdiffInterval`; saturation
(stress beyond a composite's attainable range) is a +inf marker, not an
error.  Every node binds its laws, graph features and polyline graph once,
when built: on numpy arrays (``stress_curve``), and on Python floats, never
importing numpy, as one walk along ascending targets per inverting node, which
starts each root solve after the first from the last one's lower bracket end
and a log-log Newton step.  Scalar calls and nested solves walk one target,
``curve`` a grid short enough for its depth.  On either path an inverting node
reads its summed law at rest once, at its first solve, not when built.

The module also provides the closed-form and empirical effective
viscosity family (min-formulas, harmonic-mean variants, diffusion +
dislocation creep in series), the two equivalent three-element models
and the parameter map between them, and closed-form stress solutions of
the serial diffusion/dislocation equation for exponents 1, 2, 3.
"""

from __future__ import annotations

import enum
import math
import struct
from functools import cache, reduce
from typing import Sequence, Union

from ._graph import SubdiffInterval, _graph_sum
from ._numpy import np
from ._record import Record
from .errors import InvalidInputError, NonConvergenceError, UnsupportedModeError
from .potentials import (Dashpot, PerfectPlastic, Potential, PowerLaw, _Feat, _Polyline, _number,
                         _rates)

__all__ = [
    "Leaf",
    "Parallel",
    "Serial",
    "RheoExpr",
    "ThreeElementParams",
    "strain_rate_of_stress",
    "stress_of_strain_rate",
    "stress_curve",
    "mu_eff_curve",
    "mu_eff_rigorous",
    "three_element_stress",
    "map_serial_parallel_params",
    "Formula",
    "mu_eff_formula",
    "serial_dif_dsl_stress",
    "harmonic_mean_linear",
]

_RTOL = 1e-14
_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class Leaf(Record):
    p: Potential

    def __post_init__(self):
        if not isinstance(self.p, Potential):
            raise InvalidInputError(f"Leaf needs a Potential, got {self.p!r}")
        p = self.p  # its laws, walk, graph features, graph and stress supremum, bound once
        self.__dict__.update(_flow=lambda sig: _leaf_flow(p, sig),
                             _stress=lambda eps: _leaf_stress(p, eps),
                             _float_flow=p._float_flow(), _float_stress=(fs := p._float_stress()),
                             _walk=lambda eps: list(map(fs, eps)),
                             _feat=p._feat(), _graph=p._graph, _sup=p.stress_sup())


class Parallel(Record):
    """Sum of potentials: children see a common strain rate."""

    children: tuple

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise InvalidInputError("Parallel needs at least one child")
        for c in self.children:
            _check_expr(c)
        self.__dict__.update(_bind(self.children, serial=False))


class Serial(Record):
    """Infimal convolution of potentials: children see a common stress.

    At least one child must have a strictly increasing, unbounded
    conjugate derivative (a dashpot or power-law somewhere in it), which
    makes the stress solve well posed for every strain rate.
    """

    children: tuple

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise InvalidInputError("Serial needs at least one child")
        for c in self.children:
            _check_expr(c)
        if not any(all(c._feat) for c in self.children):
            raise InvalidInputError(
                "Serial node needs at least one child with a strictly "
                "increasing, unbounded conjugate derivative (e.g. a dashpot "
                "or power-law element)"
            )
        self.__dict__.update(_bind(self.children, serial=True))


RheoExpr = Union[Leaf, Parallel, Serial]


def _check_expr(e):
    if not isinstance(e, (Leaf, Parallel, Serial)):
        raise InvalidInputError(f"expected a RheoExpr node, got {e!r}")


def _merged(children, serial):
    """What a node evaluates: its graph children merged into one leaf, in
    place of the first; Parallel adds graphs at a common rate, Serial at a
    common stress."""
    graphs = [c._graph for c in children]
    found = [g for g in graphs if g is not None]
    if len(found) < 2:
        return children
    merged = _graph_sum([g.T for g in found]).T if serial else _graph_sum(found)
    first = next(i for i, g in enumerate(graphs) if g is not None)
    return tuple(Leaf(_Polyline(merged)) if i == first else c
                 for i, c in enumerate(children) if i == first or graphs[i] is None)


def _bind(children, serial):
    """A node's ``_parts`` (its children :func:`_merged`), stress supremum ``_sup``, graph
    features ``_feat``, polyline ``_graph`` and laws, bound once when it is built: the
    array laws ``_flow`` and ``_stress``, the float laws ``_float_flow`` and
    ``_float_stress``, and ``_walk``, the float stress along an ascending grid.  Parts in
    series add their rates, and the least supremum bounds them; parts in parallel add their
    stresses and suprema.  The other law inverts that sum (:func:`_array_inverse`; on floats
    a one-target walk of the node's one :func:`_float_walk`, in series its ``_walk``); a
    parallel flow saturates to +inf past ``_sup``.  A lone part's laws, walk and graph are
    the node's.  Features add as the potentials do in parallel, and as their conjugates do
    in series."""
    parts = _merged(children, serial)
    sup = (min if serial else sum)(c._sup for c in parts)
    cap, top = (sup, math.inf) if serial else (math.inf, sup)
    sv, nf, dom, ub = zip(*(c._feat for c in children))
    one, other = (any, all) if serial else (all, any)
    bound = {"_parts": parts, "_sup": sup, "_feat": _Feat(one(sv), other(nf), one(dom), other(ub))}
    if len(parts) == 1:
        laws = ("_flow", "_stress", "_float_flow", "_float_stress", "_walk", "_graph")
        return bound | {k: getattr(parts[0], k) for k in laws}
    summed, inverted = ("_flow", "_stress") if serial else ("_stress", "_flow")
    bound[summed] = total = reduce(_plus, [getattr(c, summed) for c in parts])
    bound[inverted] = _array_inverse(total, cap, top)
    bound["_float" + summed] = total = reduce(_plus, [getattr(c, "_float" + summed) for c in parts])
    walk, walks = _float_walk(total, cap, top), [c._walk for c in parts]
    bound["_float" + inverted] = lambda t: walk((t,))[0]
    bound["_walk"] = walk if serial else (  # in parallel, a part's rows are a law on the grid index
        lambda ts: list(map(reduce(_plus, [w(ts).__getitem__ for w in walks]), range(len(ts)))))
    return bound | {"_graph": None}


def _array_inverse(total, cap, top):
    """The array law inverse to ``total``: :func:`_root` in ``[0, cap]``, +inf past ``top``,
    from the value and slope of ``total`` at rest, read once, as :func:`_float_walk` does."""
    @cache
    def at_rest():  # at the first call, so binding evaluates nothing
        with np.errstate(all="ignore"):
            return [v[0] for v in total(np.zeros(1))[1:]]

    def inverse(t):
        sat = t > top  # saturated
        x, d = _root(total, np.where(sat, 0.0, t), cap, *at_rest())
        x = np.where(sat, np.inf, x)
        return x, x, np.where(sat, np.inf, d)

    return inverse


def _float_walk(total, cap, top):
    """The float law inverse to ``total`` along ascending targets: per target ``t`` a row
    ``(x, x, dx/dt)``, ``x`` the least in ``[0, cap]`` where the upper end of ``total``
    reaches ``t`` (:func:`_root_scalar` on ``total`` less its value at rest), dx/dt 0
    below rest and at the cap, else the reciprocal of the last slope read; +inf past
    ``top``.  Each walk starts at rest, read once.  Each solve's bracket starts at the last
    one's final lower end, below the last target and so this one, and it starts warm from
    the last point read (the first cold).  No root falls below the one before."""
    at_rest = cache(lambda: total(0.0))  # at the first walk, so binding evaluates nothing

    def walk(ts):
        _, g0, d = at_rest()
        rows, root, lo, x, g = [], 0.0, 0.0, 0.0, 0.0  # last point read: x, g(x) - g0, d

        def residual(xn):
            nonlocal lo, x, g, d
            _, gx, d = total(xn)
            x, g, lo = xn, gx - g0, xn if gx < t else lo
            return gx - t, d

        for t in ts:
            if t > top:  # saturated
                rows.append((math.inf, math.inf, math.inf))
                continue
            if root < cap and t > g0:
                root = max(root, _root_scalar(residual, t - g0, cap, _RTOL, lo, x, g, d))
            rows.append((root, root, 0.0 if t < g0 or root == cap else 1.0 / d if d else math.inf))
        return rows

    return walk


def _plus(f, g):
    """The law of two in sum, on Python floats or numpy arrays: their ``(lo, hi, slope)``
    added, so a ``reduce`` over parts adds them left to right."""
    def law(x):
        a, b, c = f(x)
        u, v, w = g(x)
        return a + u, b + v, c + w

    return law


def _depth(e, stress=True) -> int:
    """How deeply the solves of the array law ``_stress`` (``_flow`` if not ``stress``) nest."""
    if isinstance(e, Leaf):
        return 0
    # a Serial node solves for its stress, a Parallel one for its rate, unless merged to one part
    own = len(e._parts) > 1 and stress == isinstance(e, Serial)
    return own + max(_depth(c, stress != own) for c in e._parts)


# ---------------------------------------------------------------------------
# Vectorized interval evaluation
# ---------------------------------------------------------------------------


def _leaf_flow(p: Potential, sig: np.ndarray):
    """Strain-rate interval and slope of one element at stress magnitudes ``sig``."""
    return p.flow(sig)


def _leaf_stress(p: Potential, eps: np.ndarray):
    """Stress interval and slope of one element at strain rates ``eps``."""
    return p.stress(eps)


def _root(fn, t, sup, g0, d0):
    """The solve of :func:`_float_walk` on an array of targets ``t``, elementwise, from the
    caller's value ``g0`` and slope ``d0`` of ``fn`` at rest; a target up to ``g0`` has root 0.

    Each target takes the scalar finder's iterates from the same first probe, Newton
    step, push, accept test and stop, in numpy's ``log1p`` and ``expm1``; a bisection
    halves the bracket in the ordered int64 view of the floats (:func:`_mid`), and an
    entry leaves the loop when its bracket closes.
    """
    shape, t = t.shape, t.ravel()
    with np.errstate(all="ignore"):
        x, dx = np.zeros_like(t), np.full_like(t, d0)
        idx = np.flatnonzero(t > g0)
        tt = t[idx]
        lo, hi = np.zeros_like(tt), np.full_like(tt, sup)
        s1 = s2 = np.full_like(tt, np.inf)
        xc = np.full(1, math.nextafter(sup, 0.0) if sup < math.inf else 1.0)  # one, shared
        for _ in range(_MAX_ITER):
            if not idx.size:
                break
            _, g, d = fn(xc)
            r = g - tt
            below = r < 0
            lo, hi = np.where(below, xc, lo), np.where(below, hi, xc)
            adjacent = hi.view(np.int64) - lo.view(np.int64) <= 1
            done = ((hi - lo <= _RTOL * hi) & (hi < np.inf)) | adjacent
            x[idx[done]], dx[idx[done]] = hi[done], np.broadcast_to(d, hi.shape)[done]
            g = tt - g0 + r
            u = np.log1p(-r / g) * g / (xc * d)  # log(xn / xc)
            xn = xc + xc * np.expm1(u)
            push = np.abs(xn - xc) < 0.5 * _RTOL * xc  # too short to cross the root
            xn = np.where(push, xc + np.where(below, 0.5, -0.5) * _RTOL * xc, xn)
            u = np.where(push, 0.5 * _RTOL, u)
            ok = (lo < xn) & (xn < hi) & (np.abs(u) <= 0.5 * s2)
            xn = np.where(ok, xn, _mid(lo, hi))
            s1, s2 = np.abs(np.where(ok, u, np.log(xn / xc))), s1
            if done.any():  # entries whose bracket closed leave the loop
                idx, tt, lo, hi, xn, s1, s2 = (a[~done] for a in (idx, tt, lo, hi, xn, s1, s2))
            xc = xn
        dx = np.where((t < g0) | (x == sup), 0.0, 1.0 / dx)
    if idx.size:
        raise NonConvergenceError(
            f"root solve: {idx.size} targets unresolved after {_MAX_ITER} steps, "
            f"first {float(tt[0])!r}"
        )
    return x.reshape(shape), dx.reshape(shape)


def _mid(lo, hi):
    """Midpoint of ``[lo, hi]`` (floats >= 0) in their ordered int64 view."""
    ilo, ihi = lo.view(np.int64), hi.view(np.int64)
    return (ilo + (ihi - ilo) // 2).view(np.float64)


_F64, _I64 = struct.Struct("d"), struct.Struct("q")


def _mid_scalar(lo, hi):
    """:func:`_mid` of two Python floats, through their bits packed by ``struct``."""
    (ilo,), (ihi,) = _I64.unpack(_F64.pack(lo)), _I64.unpack(_F64.pack(hi))
    return _F64.unpack(_I64.pack(ilo + (ihi - ilo) // 2))[0]


def _root_scalar(fn, target, sup, rtol, lo=0.0, x=0.0, g=0.0, d=0.0):
    """Smallest ``x`` in ``[0, sup]`` where a nondecreasing ``g`` with ``g(0) = 0``
    reaches ``target``, on Python floats.

    ``fn(x)`` returns the residual ``g(x) - target``, formed by the caller so its sign
    holds where the two cancel, and ``g'(x)``.  The bracket starts as ``[lo, sup]``, with
    ``g(lo) < target``.  The first probe is the warm start from the last point the caller
    read, ``(x, g(x), g'(x)) = (x, g, d)``: the log-log Newton step ``x * exp(log(target
    / g) * g / (x * d))`` if inside the bracket; else (g = 0: none read) just below a
    finite ``sup``, which tests the cap, else 1.  Newton steps solve ``log g = log target``
    against ``log x``, which is blind to the unit scale and exact in one step for a
    power law: ``x + x * expm1(log1p((t - g) / g) * g / (x * g'))``.  A step is taken
    only if it lands inside the bracket and is at most half the step before last
    (rtsafe); otherwise the bracket is bisected in the ordered bits of the floats, so
    64 halvings span [0, inf].  A step shorter than ``rtol`` is pushed across the
    root.  Stops on a bracket ``rtol`` wide or on adjacent floats, and returns its
    upper end (``sup`` if never reached).
    """
    hi, s1, s2, half = sup, math.inf, math.inf, 0.5 * rtol
    try:  # g = 0 (none read): start cold; a flat slope or a step past the floats raises
        x = x * math.exp(math.log(target / g) * g / (x * d)) if g else math.nan
    except (ArithmeticError, ValueError):
        x = math.nan
    if not lo < x < sup:
        x = math.nextafter(sup, 0.0) if sup < math.inf else 1.0
    for _ in range(_MAX_ITER):
        r, d = fn(x)
        if r < 0:
            lo = x
        else:
            hi = x
        if (hi - lo <= rtol * hi and hi < math.inf) or math.nextafter(lo, hi) >= hi:
            return hi
        try:  # a step through 0 or +inf raises, and bisects
            g = target + r
            u = math.log1p(-r / g) * g / (x * d)  # log(xn / x)
            xn = x + x * math.expm1(u)
            if abs(xn - x) < half * x:  # too short to cross the root: push it across
                xn, u = x + (half if r < 0 else -half) * x, half
            ok = lo < xn < hi and abs(u) <= 0.5 * s2
        except (ArithmeticError, ValueError):
            ok = False
        xn = xn if ok else _mid_scalar(lo, hi)
        s1, s2, x = abs(u if ok else math.log(xn / x)), s1, xn
    raise NonConvergenceError(f"root solve: target {target!r} unresolved after {_MAX_ITER} steps")


# ---------------------------------------------------------------------------
# Public evaluation
# ---------------------------------------------------------------------------


def strain_rate_of_stress(e: RheoExpr, sigma: float) -> SubdiffInterval:
    """Strain-rate response at stress magnitude ``sigma``, in 1/s.

    Sum of conjugate derivatives across a Serial node; monotone root
    solve across a Parallel node.  Stress beyond a yield cap returns a
    saturated interval with +inf ends.  Evaluated on Python floats.
    """
    _check_expr(e)
    lo, hi, _ = e._float_flow(_number(sigma, "sigma", "nonnegative"))
    return SubdiffInterval(lo, hi)


def stress_of_strain_rate(e: RheoExpr, eps: float) -> SubdiffInterval:
    """Stress response at strain-rate magnitude ``eps``, in Pa, on Python floats."""
    _check_expr(e)
    lo, hi, _ = e._float_stress(_number(eps, "eps", "nonnegative"))
    return SubdiffInterval(lo, hi)


def stress_curve(e: RheoExpr, eps) -> np.ndarray:
    """Stress (interval midpoints) over an array of strain rates."""
    _check_expr(e)
    eps, _ = _rates(eps, "strain rates")
    with np.errstate(divide="ignore", over="ignore"):
        lo, hi, _ = e._stress(eps)
    return np.where(lo == hi, lo, 0.5 * lo + 0.5 * hi)[()]  # [()]: a 0-d array as a scalar


def mu_eff_curve(e: RheoExpr, eps) -> np.ndarray:
    """Effective viscosity ``stress / eps`` over strictly positive rates."""
    eps, _ = _rates(eps, "strain rates", positive=True)
    return stress_curve(e, eps) / eps


def mu_eff_rigorous(e: RheoExpr, eps: float, limit: bool = False) -> float:
    """Effective viscosity from the rigorous stress solve, in Pa*s.

    ``stress_of_strain_rate(e, eps).midpoint / eps`` for ``eps > 0``.
    At ``eps = 0`` the value is defined only by continuity: pass
    ``limit=True`` to get the limit, which is +inf when the model
    carries a yield offset at rest and otherwise the exact tangent
    d(stress)/d(rate) at rest (stiffnesses add across Parallel,
    compliances across Serial; +inf for a power law with n > 1).
    """
    _check_expr(e)
    eps = _number(eps, "eps", "nonnegative")
    if eps > 0:
        return stress_of_strain_rate(e, eps).midpoint / eps
    if not limit:
        raise InvalidInputError("mu_eff at eps = 0 requires limit=True")
    _, rest, slope = e._float_stress(0.0)
    return math.inf if rest > 0 else slope


# ---------------------------------------------------------------------------
# Three-element models
# ---------------------------------------------------------------------------


class ThreeElementParams(Record):
    """Yield stress plus two viscosities of the bi-viscous plastic models."""

    sigma_a: float
    D2: float
    D3: float

    def __post_init__(self):
        self.__dict__.update({f: _number(self.__dict__[f], f) for f in self._fields})


def three_element_stress(p: ThreeElementParams, eps):
    """Stress of the bi-viscous plastic model, piecewise closed form.

    ``(D2 + D3) * eps`` below the switch rate ``sigma_a / D2``, and
    ``sigma_a + D3 * eps`` above it; continuous at the switch.
    """
    eps, scalar_in = _rates(eps, "eps")
    with np.errstate(over="ignore"):  # a stress past the float range is inf
        out = np.where(eps <= p.sigma_a / p.D2, (p.D2 + p.D3) * eps, p.sigma_a + p.D3 * eps)
    return float(out) if scalar_in else out


def map_serial_parallel_params(sigma_a: float, D2: float, D3: float) -> ThreeElementParams:
    """Parameters of the serial-parallel variant equivalent to (sigma_a, D2, D3).

    sigma_a~ = sigma_a (1 + D3/D2),  D2~ = D2 + D3,  D3~ = D3 (1 + D3/D2).
    """
    base = ThreeElementParams(sigma_a, D2, D3)
    ratio = 1.0 + base.D3 / base.D2
    return ThreeElementParams(base.sigma_a * ratio, base.D2 + base.D3, base.D3 * ratio)


def three_element_parallel_serial(p: ThreeElementParams) -> RheoExpr:
    """Tree of the parallel-serial variant: (plastic [] dashpot) + dashpot."""
    return Parallel([Serial([Leaf(PerfectPlastic(p.sigma_a)), Leaf(Dashpot(p.D2))]),
                     Leaf(Dashpot(p.D3))])


def three_element_serial_parallel(p: ThreeElementParams) -> RheoExpr:
    """Tree of the serial-parallel variant: (plastic + dashpot) [] dashpot."""
    return Serial([Parallel([Leaf(PerfectPlastic(p.sigma_a)), Leaf(Dashpot(p.D3))]),
                   Leaf(Dashpot(p.D2))])


# ---------------------------------------------------------------------------
# Closed-form / empirical effective viscosities
# ---------------------------------------------------------------------------


class Formula(enum.Enum):
    """Closed-form and empirical effective-viscosity laws."""

    VP_MIN = "vp_min"
    BINGHAM_SUM = "bingham_sum"
    THREE_ELEMENT = "three_element"
    MULTI_ELEMENT = "multi_element"
    EMP_VAR1 = "emp_var1"
    EMP_VAR2 = "emp_var2"
    HB_MIN = "hb_min"
    EMP_DIF_DSL = "emp_dif_dsl"
    EMP_HARMONIC_GENERAL = "emp_harmonic_general"


_FORMULA_ARITY = {
    Formula.VP_MIN: 2,
    Formula.BINGHAM_SUM: 2,
    Formula.THREE_ELEMENT: 3,
    Formula.MULTI_ELEMENT: 3,
    Formula.EMP_VAR1: 3,
    Formula.EMP_VAR2: 3,
    Formula.HB_MIN: 3,
    Formula.EMP_DIF_DSL: 3,
    Formula.EMP_HARMONIC_GENERAL: 1,
}


def mu_eff_formula(formula, params: Sequence, eps):
    """Evaluate one of the closed-form / empirical viscosity laws.

    Parameters
    ----------
    formula : Formula or str
    params : tuple matching the formula arity
        VP_MIN(sigma_a, D):            min(D, sigma_a/|eps|)
        BINGHAM_SUM(sigma_a, D):       D + sigma_a/|eps|
        THREE_ELEMENT(sigma_a, D2, D3): min(sigma_a/|eps|, D2) + D3
        MULTI_ELEMENT(sigma_a_i, D2_i, D3): sum_i min(...) + D3
        EMP_VAR1(sigma_a, D2, D3):     (|eps|/sigma_a + 1/D2)^-1 + D3
        EMP_VAR2(sa~, D2~, D3~):       (1/(sa~/|eps| + D3~) + 1/D2~)^-1
        HB_MIN(sigma_a, D, n):         min(sigma_a/|eps|, D/|eps|^(1-1/n))
        EMP_DIF_DSL(D_dif, D_dsl, n):  1/(1/D_dif + |eps|^(1-1/n)/D_dsl)
        EMP_HARMONIC_GENERAL(mus):     (sum_i mu_i(|eps|)^-1)^-1
    eps : positive scalar or array
    """
    if isinstance(formula, str):
        try:
            formula = Formula(formula.lower())
        except ValueError:
            raise InvalidInputError(f"unknown formula id {formula!r}") from None
    if formula not in _FORMULA_ARITY:
        raise InvalidInputError(f"unknown formula id {formula!r}")
    params = list(params)
    if len(params) != _FORMULA_ARITY[formula]:
        raise InvalidInputError(
            f"{formula.name} takes {_FORMULA_ARITY[formula]} parameters, got {len(params)}"
        )
    if formula is not Formula.EMP_HARMONIC_GENERAL:
        # each modulus a positive number, the MULTI_ELEMENT lists arrays of them; n may be inf
        n_at = 2 if formula in (Formula.HB_MIN, Formula.EMP_DIF_DSL) else None
        for i, x in enumerate(params):
            name = f"{formula.name} parameter {i}"
            if formula is Formula.MULTI_ELEMENT and i < 2:
                params[i] = _rates(x, name, positive=True)[0]
            elif not (i == n_at and isinstance(x, float) and x == math.inf):
                params[i] = _number(x, name)
    eps, scalar_in = _rates(eps, "eps", positive=True)

    if formula is Formula.EMP_HARMONIC_GENERAL:
        (mus,) = params
        if not mus:
            raise InvalidInputError("EMP_HARMONIC_GENERAL needs at least one viscosity")
        mus = [np.asarray(mu(eps), dtype=float) for mu in mus]
        # m / sum(m / mu_i), m the largest power of two up to the least mu_i at each rate, as
        # harmonic_mean_linear: no term overflows, and where every 1/mu_i is normal, same bits
        m = np.ldexp(0.5, np.frexp(reduce(np.minimum, mus))[1])
        out = m / sum((m / mu for mu in mus), np.zeros_like(eps))
    with np.errstate(over="ignore"):  # a term past the float range is inf; its min or sum is right
        if formula is Formula.VP_MIN:
            sigma_a, d = params
            out = np.minimum(d, sigma_a / eps)
        elif formula is Formula.BINGHAM_SUM:
            sigma_a, d = params
            out = d + sigma_a / eps
        elif formula is Formula.THREE_ELEMENT:
            sigma_a, d2, d3 = params
            out = np.minimum(sigma_a / eps, d2) + d3
        elif formula is Formula.MULTI_ELEMENT:
            sig_list, d2_list, d3 = params
            if sig_list.ndim != 1 or sig_list.size == 0 or sig_list.shape != d2_list.shape:
                raise InvalidInputError(
                    "MULTI_ELEMENT needs matching nonempty sigma_a and D2 lists")
            out = np.minimum(sig_list[:, None] / eps[None, ...].reshape(1, -1), d2_list[:, None])
            out = out.sum(axis=0).reshape(eps.shape) + d3
        elif formula is Formula.EMP_VAR1:
            sigma_a, d2, d3 = params
            out = 1.0 / (eps / sigma_a + 1.0 / d2) + d3
        elif formula is Formula.EMP_VAR2:
            sigma_a, d2, d3 = params
            out = 1.0 / (1.0 / (sigma_a / eps + d3) + 1.0 / d2)
        elif formula is Formula.HB_MIN:
            sigma_a, d, n = params
            out = np.minimum(sigma_a / eps, d / eps ** (1.0 - 1.0 / n))
        elif formula is Formula.EMP_DIF_DSL:
            d_dif, d_dsl, n = params
            out = 1.0 / (1.0 / d_dif + eps ** (1.0 - 1.0 / n) / d_dsl)
    return float(out) if scalar_in else out


# ---------------------------------------------------------------------------
# Serial diffusion + dislocation creep
# ---------------------------------------------------------------------------


def serial_dif_dsl_stress(
    D_dif: float, D_dsl: float, n: float, eps, mode: str = "closed"
):
    """Stress of a dashpot in series with a power-law element.

    Solves ``(sigma/D_dsl)**n + sigma/D_dif = eps`` for ``sigma >= 0``.
    Closed mode covers n in {1, 2, 3} (linear harmonic mean, quadratic
    formula, depressed-cubic real root); numeric mode runs the monotone
    root finder of the tree solves for any n > 0.  The two agree to 1e-12
    relative wherever the stress is a normal float.
    """
    D_dif, D_dsl, n = _number(D_dif, "D_dif"), _number(D_dsl, "D_dsl"), _number(n, "n")
    eps, scalar_in = _rates(eps, "eps")

    if mode == "closed":
        if n == 1:
            with np.errstate(over="ignore"):  # a stress past the float range is inf, as below
                out = eps / (1.0 / D_dif + 1.0 / D_dsl)
        elif n in (2, 3):
            # Dimensionless: sigma = S y with S = D_dsl / q and
            # q = (D_dif / D_dsl)**(1/(n-1)) turns the equation into
            # y**n + y = e, e = eps (D_dif / D_dsl) q.  z = (n-1) ln e picks
            # where one term is below 1e-17 of the other: the stress is then
            # that of the other element alone, and in between q and e are
            # representable.  S is kept as mantissa and exponent.
            cut = math.log(1e-17)
            with np.errstate(all="ignore"):
                z = (n - 1.0) * np.log(eps) + n * (math.log(D_dif) - math.log(D_dsl))
                rho = np.float64(D_dif) / D_dsl
                q = rho ** (1.0 / (n - 1.0))
                e = eps * rho * q
                if n == 2:
                    # y = sqrt(e + 1/4) - 1/2, rationalized to avoid cancellation
                    y = e / (np.sqrt(0.25 + e) + 0.5)
                else:
                    # Depressed cubic y^3 + y = e; real root by the two signed
                    # cube roots, evaluated as e/(A^2 - A B + B^2) so the
                    # near-cancelling sum A + B never forms.
                    u1 = e / 2.0 + np.sqrt(e**2 / 4.0 + 1.0 / 27.0)
                    a_, b_ = u1 ** (1.0 / 3.0), -((1.0 / 27.0 / u1) ** (1.0 / 3.0))  # u1 > 0
                    y = e / (a_**2 - a_ * b_ + b_**2)
                (m1, k1), (m2, k2) = np.frexp(D_dsl), np.frexp(q)
                out = np.where(z < cut, D_dif * eps, np.where(
                    z > -n * cut, D_dsl * eps ** (1.0 / n), np.ldexp(m1 / m2 * y, k1 - k2)))
        else:
            raise UnsupportedModeError(
                f"closed mode covers n in {{1, 2, 3}}, got n = {n}"
            )
    elif mode == "numeric":
        out = Serial([Leaf(Dashpot(D_dif)), Leaf(PowerLaw(D_dsl, n))])._stress(eps)[1]
    else:
        raise InvalidInputError(f"mode must be 'closed' or 'numeric', got {mode!r}")
    return float(out) if scalar_in else out


def _dif_dsl_closed(D_dif, D_dsl, n):
    """The closed mode of :func:`serial_dif_dsl_stress` for n in {1, 2, 3} as a kernel on one
    Python float rate > 0: the same arithmetic on floats, never importing numpy, and
    ``math.sqrt`` and products where numpy takes them for ``** 0.5`` and ``** 2``."""
    if n == 1:
        c = 1.0 / D_dif + 1.0 / D_dsl
        return lambda eps: eps / c
    cut, lz = math.log(1e-17), n * (math.log(D_dif) - math.log(D_dsl))
    rho = D_dif / D_dsl
    q = rho ** (1.0 / (n - 1.0))
    (m1, k1), (m2, k2) = math.frexp(D_dsl), math.frexp(q)

    def kernel(eps):
        z = (n - 1.0) * math.log(eps) + lz
        if z < cut:  # the dashpot alone
            return D_dif * eps
        if z > -n * cut:  # the power law alone
            return D_dsl * (math.sqrt(eps) if n == 2 else eps ** (1.0 / 3.0))
        e = eps * rho * q
        if n == 2:
            y = e / (math.sqrt(0.25 + e) + 0.5)
        else:
            u1 = e / 2.0 + math.sqrt(e * e / 4.0 + 1.0 / 27.0)
            a, b = u1 ** (1.0 / 3.0), -((1.0 / 27.0 / u1) ** (1.0 / 3.0))
            y = e / (a * a - a * b + b * b)
        try:
            return math.ldexp(m1 / m2 * y, k1 - k2)
        except OverflowError:  # past the float range, as np.ldexp
            return math.inf

    return kernel


def harmonic_mean_linear(D_list: Sequence[float]) -> float:
    """Modulus of serially arranged linear dashpots: ``1 / sum(1/D_i)``, as ``m / sum(m/D_i)``
    with ``m`` the largest power of two up to the least ``D_i``, so no term overflows and a
    subnormal modulus is kept; where the terms are normal floats the bits are the same."""
    ds = [_number(d, f"D_list[{i}]") for i, d in enumerate(D_list)]
    if not ds:
        raise InvalidInputError("harmonic_mean_linear needs a nonempty list")
    m = math.ldexp(0.5, math.frexp(min(ds))[1])
    return m / sum(m / d for d in ds)
