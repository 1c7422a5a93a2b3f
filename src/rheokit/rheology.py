"""Serial/parallel composition of potentials and effective viscosities.

A rheological network is a tree: leaves hold potentials, Parallel nodes
add potentials (stresses add at common rate), Serial nodes combine them
by infimal convolution (rates add at common stress).  When a node is
built, its children with polyline stress laws (dashpot, plastic, Huber)
merge into one exact polyline leaf, so a subtree of them alone is one
closed form.  Elsewhere ``strain_rate_of_stress`` (rates summed across
a Serial node) and ``stress_of_strain_rate`` (stresses summed across a
Parallel node) invert each other by one monotone root finder, vectorized
and scalar (the Maxwell step's): safeguarded Newton steps in
log-log coordinates inside a bracket that bisects the ordered bits of
the floats, so no solve depends on the unit scale.  Each node reports
its tangent next to its value (stiffnesses add across Parallel,
compliances across Serial, an inverse takes the reciprocal), for the
Newton steps and for ``mu_eff_rigorous``'s exact limit at rest.
Set-valued points are carried as :class:`SubdiffInterval`; saturation
(stress beyond a composite's attainable range) is reported with a +inf
marker, not an error.  ``stress_curve`` walks the tree over arrays; on
Python floats (never importing numpy) every node binds its two laws once,
when built, and the scalar API calls the root's; ``curve`` picks one.

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
from functools import reduce
from typing import Sequence, Union

from ._numpy import np
from ._record import Record
from .convex_core import SubdiffInterval, _graph_sum
from .errors import InvalidInputError, NonConvergenceError, UnsupportedModeError
from .potentials import Dashpot, PerfectPlastic, Potential, PowerLaw, _Feat, _Polyline

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
        p = self.p  # its float laws and stress supremum, bound once
        self.__dict__.update(_float_flow=p._float_flow(), _float_stress=p._float_stress(),
                             _sup=p.stress_sup())


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
        if not any(_strict_unbounded(c) for c in self.children):
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


def _conj_feat(f: _Feat) -> _Feat:
    return _Feat(f.nf, f.sv, f.ub, f.dom)


def _sum_feats(fs) -> _Feat:
    return _Feat(
        all(f.sv for f in fs),
        any(f.nf for f in fs),
        all(f.dom for f in fs),
        any(f.ub for f in fs),
    )


def _feat(e) -> _Feat:
    if isinstance(e, Leaf):
        return e.p._feat()
    if isinstance(e, Parallel):
        return _sum_feats([_feat(c) for c in e.children])
    return _conj_feat(_sum_feats([_conj_feat(_feat(c)) for c in e.children]))


def _strict_unbounded(e) -> bool:
    f = _feat(e)
    return f.sv and f.nf and f.dom and f.ub


def _graph(e):
    """The polyline graph a subtree evaluates as, or None."""
    if isinstance(e, Leaf):
        return e.p._graph
    return _graph(e._parts[0]) if len(e._parts) == 1 else None


def _merged(children, serial):
    """What a node evaluates: its graph children merged into one leaf, in
    place of the first; Parallel adds graphs at a common rate, Serial at a
    common stress."""
    graphs = [_graph(c) for c in children]
    found = [g for g in graphs if g is not None]
    if len(found) < 2:
        return children
    merged = _graph_sum([g.T for g in found]).T if serial else _graph_sum(found)
    first = next(i for i, g in enumerate(graphs) if g is not None)
    return tuple(Leaf(_Polyline(merged)) if i == first else c
                 for i, c in enumerate(children) if i == first or graphs[i] is None)


def _bind(children, serial):
    """A node's ``_parts`` (its children :func:`_merged`), stress supremum ``_sup`` and
    float laws, bound once when it is built.  Parts in series add their rates, and the
    least supremum bounds them; parts in parallel add their stresses and suprema.  The
    other law inverts that sum by :func:`_solve`; a parallel flow saturates to +inf past
    ``_sup``.  A lone part's laws are the node's."""
    parts = _merged(children, serial)
    sup = (min if serial else sum)(c._sup for c in parts)
    total = reduce(_plus, [c._float_flow if serial else c._float_stress for c in parts])
    cap, top = (sup, math.inf) if serial else (math.inf, sup)
    if len(parts) == 1:
        inverse = parts[0]._float_stress if serial else parts[0]._float_flow
    else:
        def inverse(t):
            if t > top:  # saturated
                return math.inf, math.inf, math.inf
            x, d = _solve(total, t, cap)
            return x, x, d

    flow, stress = (total, inverse) if serial else (inverse, total)
    return {"_parts": parts, "_sup": sup, "_float_flow": flow, "_float_stress": stress}


def _plus(f, g):
    """The float law of two in sum: their ``(lo, hi, slope)`` added."""
    def law(x):
        a, b, c = f(x)
        u, v, w = g(x)
        return a + u, b + v, c + w

    return law


def _depth(e, stress=True) -> int:
    """How deeply the solves of ``_stress`` (``_flow`` if not ``stress``) nest."""
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


def _sum(parts):
    """Elementwise sum of (lo, hi, slope) triples."""
    lo, hi, d = next(parts)
    for clo, chi, cd in parts:
        lo, hi, d = lo + clo, hi + chi, d + cd
    return lo, hi, d


def _flow(e, sig: np.ndarray):
    """Strain-rate interval of a subtree at stress magnitudes ``sig``.

    With the slope d(rate)/d(stress): compliances add across Serial.
    """
    if isinstance(e, Leaf):
        return _leaf_flow(e.p, sig)
    if isinstance(e, Serial) or len(e._parts) == 1:
        return _sum(_flow(c, sig) for c in e._parts)
    return _parallel_flow(e, sig)


def _stress(e, eps: np.ndarray):
    """Stress interval of a subtree at strain rates ``eps``.

    With the slope d(stress)/d(rate): stiffnesses add across Parallel; a
    Serial node inverts its summed flow and takes the reciprocal slope.
    """
    if isinstance(e, Leaf):
        return _leaf_stress(e.p, eps)
    if isinstance(e, Parallel) or len(e._parts) == 1:
        return _sum(_stress(c, eps) for c in e._parts)
    x, d = _root(lambda s: _flow(e, s)[1:], eps, e._sup)
    return x, x, d


def _parallel_flow(node: Parallel, sig: np.ndarray):
    """Invert the summed stress of a Parallel node (generic path).

    Stresses beyond the node's attainable supremum saturate to a +inf
    marker instead of failing.
    """
    sat = sig > node._sup
    x, d = _root(lambda e: _stress(node, e)[1:], np.where(sat, 0.0, sig))
    x = np.where(sat, np.inf, x)
    return x, x, np.where(sat, np.inf, d)


def _root(fn, target, sup=math.inf):
    """Smallest ``x`` in ``[0, sup]`` with ``fn(x)[0] >= target``, elementwise.

    ``fn`` is nondecreasing and returns its value and slope.  Newton steps
    solve ``log(fn(x) - fn(0)) = log(target - fn(0))`` against ``log(x)``,
    which is blind to the unit scale and exact in one step for a power
    law.  A step is taken only if it lands inside the bracket and is at
    most half the step before last (rtsafe); otherwise the bracket is
    bisected in the ordered int64 view of the floats, so 64 halvings span
    [0, inf].  An entry stops only on a verified bracket, ``hi - lo <=
    1e-14 * hi`` or adjacent floats, and returns ``hi``; a Newton step
    shorter than that is pushed across the root to close the bracket.
    Also returns dx/dtarget at the root, the reciprocal of the slope
    there (0 where ``fn`` jumps past the target).
    """
    t = np.asarray(target, dtype=float)
    shape, t = t.shape, t.ravel()
    x = np.zeros_like(t)
    with np.errstate(all="ignore"):
        g0, d0 = (v[0] for v in fn(np.zeros(1)))
        dxdt = np.where(t < g0, 0.0, 1.0 / d0)
        idx = np.flatnonzero(t > g0)
        if idx.size and sup < math.inf:
            # not reached below the cap: the answer is the cap itself
            cap = fn(np.array([np.nextafter(sup, 0.0)]))[0] < t[idx]
            x[idx[cap]], dxdt[idx[cap]] = sup, 0.0
            idx = idx[~cap]
        t = t[idx]
        lt = np.log(t - g0)
        lo, hi = np.zeros_like(t), np.full_like(t, sup)
        xc = np.full_like(t, min(1.0, 0.5 * sup))
        s1 = s2 = np.full_like(t, np.inf)
        for _ in range(_MAX_ITER):
            if not idx.size:
                break
            g, d = fn(xc)
            below = g < t
            lo = np.where(below, xc, lo)
            hi = np.where(below, hi, xc)
            ilo, ihi = lo.view(np.int64), hi.view(np.int64)
            done = ((hi - lo <= _RTOL * hi) & (hi < np.inf)) | (ihi - ilo <= 1)
            x[idx[done]] = hi[done]
            dxdt[idx[done]] = 1.0 / d[done]
            r = g - g0
            xn = xc * np.exp((lt - np.log(r)) * r / (xc * d))
            tiny = 0.5 * _RTOL * xc
            xn = np.where(np.abs(xn - xc) < tiny, xc + np.where(below, tiny, -tiny), xn)
            ok = (xn > lo) & (xn < hi) & (np.abs(np.log(xn / xc)) <= 0.5 * s2)
            xn = np.where(ok, xn, _mid(lo, hi))
            s1, s2 = np.abs(np.log(xn / xc)), s1
            keep = ~done
            idx, t, lt, lo, hi, xc, s1, s2 = (a[keep] for a in (idx, t, lt, lo, hi, xn, s1, s2))
    if idx.size:
        raise NonConvergenceError(
            f"root solve: {idx.size} targets unresolved after {_MAX_ITER} steps, "
            f"first {float(t[0])!r}"
        )
    return x.reshape(shape), dxdt.reshape(shape)


def _mid(lo, hi):
    """Midpoint of ``[lo, hi]`` (floats >= 0) in their ordered int64 view."""
    ilo, ihi = lo.view(np.int64), hi.view(np.int64)
    return (ilo + (ihi - ilo) // 2).view(np.float64)


_F64, _I64 = struct.Struct("d"), struct.Struct("q")


def _mid_scalar(lo, hi):
    """:func:`_mid` of two Python floats, through their bits packed by ``struct``."""
    (ilo,), (ihi,) = _I64.unpack(_F64.pack(lo)), _I64.unpack(_F64.pack(hi))
    return _F64.unpack(_I64.pack(ilo + (ihi - ilo) // 2))[0]


def _root_scalar(fn, target, sup, rtol):
    """Scalar :func:`_root` for a nondecreasing ``g`` with ``g(0) = 0``.

    ``fn(x)`` returns floats: the residual ``g(x) - target``, formed by the caller so
    its sign holds where the two cancel, and ``g'(x)``.  Stops ``rtol`` wide.  Newton
    steps ``x + x * expm1(log1p((t - g) / g) * g / (x * g'))`` are linear at the root.
    The first probe, just below ``sup``, tests the cap; ``sup`` if never reached.
    """
    lo, hi, x, s1, s2 = 0.0, sup, math.nextafter(sup, 0.0), math.inf, math.inf
    for _ in range(_MAX_ITER):
        r, d = fn(x)
        lo, hi = (x, hi) if r < 0 else (lo, x)
        if (hi - lo <= rtol * hi and hi < math.inf) or math.nextafter(lo, hi) >= hi:
            return hi
        try:  # a step through 0 or +inf raises, and bisects
            g = target + r
            u = math.log1p(-r / g) * g / (x * d)  # log(xn / x)
            xn = x + x * math.expm1(u)
            if abs(xn - x) < 0.5 * rtol * x:  # too short to cross the root: push it across
                xn, u = x + (0.5 if r < 0 else -0.5) * rtol * x, 0.5 * rtol
            ok = lo < xn < hi and abs(u) <= 0.5 * s2
        except (ArithmeticError, ValueError):
            ok = False
        xn = xn if ok else _mid_scalar(lo, hi)
        s1, s2, x = abs(u if ok else math.log(xn / x)), s1, xn
    raise NonConvergenceError(f"root solve: target {target!r} unresolved after {_MAX_ITER} steps")


def _solve(fn, t, sup):
    """:func:`_root` at one float by :func:`_root_scalar`, on the upper end of ``fn``
    less its value at rest: ``x`` and dx/dt, 0 below rest and at the cap ``sup``."""
    _, g0, d = fn(0.0)
    x = 0.0
    if t > g0:
        def residual(x):
            nonlocal d
            _, g, d = fn(x)
            return g - t, d

        x = _root_scalar(residual, t - g0, sup, _RTOL)
    return x, 0.0 if t < g0 or x == sup else 1.0 / d if d else math.inf


# ---------------------------------------------------------------------------
# Public evaluation
# ---------------------------------------------------------------------------


def _check_scalar_nonneg(x, name):
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise InvalidInputError(f"{name} must be finite and >= 0, got {x}")
    return x


def strain_rate_of_stress(e: RheoExpr, sigma: float) -> SubdiffInterval:
    """Strain-rate response at stress magnitude ``sigma``, in 1/s.

    Sum of conjugate derivatives across a Serial node; monotone root
    solve across a Parallel node.  Stress beyond a yield cap returns a
    saturated interval with +inf ends.  Evaluated on Python floats.
    """
    _check_expr(e)
    lo, hi, _ = e._float_flow(_check_scalar_nonneg(sigma, "sigma"))
    return SubdiffInterval(lo, hi)


def stress_of_strain_rate(e: RheoExpr, eps: float) -> SubdiffInterval:
    """Stress response at strain-rate magnitude ``eps``, in Pa, on Python floats."""
    _check_expr(e)
    lo, hi, _ = e._float_stress(_check_scalar_nonneg(eps, "eps"))
    return SubdiffInterval(lo, hi)


def stress_curve(e: RheoExpr, eps) -> np.ndarray:
    """Stress (interval midpoints) over an array of strain rates."""
    _check_expr(e)
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0) or not np.all(np.isfinite(eps)):
        raise InvalidInputError("strain rates must be finite and >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        lo, hi, _ = _stress(e, eps)
    return 0.5 * (lo + hi)


def mu_eff_curve(e: RheoExpr, eps) -> np.ndarray:
    """Effective viscosity ``stress / eps`` over strictly positive rates."""
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise InvalidInputError("mu_eff_curve needs strictly positive rates")
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
    eps = _check_scalar_nonneg(eps, "eps")
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
        for name in ("sigma_a", "D2", "D3"):
            x = float(getattr(self, name))
            if not (math.isfinite(x) and x > 0):
                raise InvalidInputError(f"{name} must be positive, got {x}")


def three_element_stress(p: ThreeElementParams, eps):
    """Stress of the bi-viscous plastic model, piecewise closed form.

    ``(D2 + D3) * eps`` below the switch rate ``sigma_a / D2``, and
    ``sigma_a + D3 * eps`` above it; continuous at the switch.
    """
    scalar_in = np.isscalar(eps) or np.ndim(eps) == 0
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0):
        raise InvalidInputError("eps must be >= 0")
    out = np.where(
        eps <= p.sigma_a / p.D2,
        (p.D2 + p.D3) * eps,
        p.sigma_a + p.D3 * eps,
    )
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
    return Parallel(
        [
            Serial([Leaf(PerfectPlastic(p.sigma_a)), Leaf(Dashpot(p.D2))]),
            Leaf(Dashpot(p.D3)),
        ]
    )


def three_element_serial_parallel(p: ThreeElementParams) -> RheoExpr:
    """Tree of the serial-parallel variant: (plastic + dashpot) [] dashpot."""
    return Serial(
        [
            Parallel([Leaf(PerfectPlastic(p.sigma_a)), Leaf(Dashpot(p.D3))]),
            Leaf(Dashpot(p.D2)),
        ]
    )


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
    params = tuple(params)
    if len(params) != _FORMULA_ARITY[formula]:
        raise InvalidInputError(
            f"{formula.name} takes {_FORMULA_ARITY[formula]} parameters, got {len(params)}"
        )
    if formula is not Formula.EMP_HARMONIC_GENERAL:
        # every modulus positive and finite; an exponent n may also be inf
        has_n = formula in (Formula.HB_MIN, Formula.EMP_DIF_DSL)
        for i, x in enumerate(params):
            x = np.asarray(x, dtype=float)
            if not np.all((x > 0) & (np.isfinite(x) | (has_n and i == 2))):
                raise InvalidInputError(
                    f"{formula.name} parameters must be positive and finite, got {params!r}"
                )
    scalar_in = np.isscalar(eps) or np.ndim(eps) == 0
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise InvalidInputError("mu_eff_formula needs strictly positive eps")

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
        sig_list = np.asarray(sig_list, dtype=float)
        d2_list = np.asarray(d2_list, dtype=float)
        if sig_list.size == 0 or sig_list.shape != d2_list.shape:
            raise InvalidInputError(
                "MULTI_ELEMENT needs matching nonempty sigma_a and D2 lists"
            )
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
    else:  # EMP_HARMONIC_GENERAL
        (mus,) = params
        if not mus:
            raise InvalidInputError("EMP_HARMONIC_GENERAL needs at least one viscosity")
        inv = np.zeros_like(eps)
        for mu in mus:
            inv = inv + 1.0 / np.asarray(mu(eps), dtype=float)
        out = 1.0 / inv
    return float(out) if scalar_in else out


# ---------------------------------------------------------------------------
# Serial diffusion + dislocation creep
# ---------------------------------------------------------------------------


def _signed_cbrt(x):
    return np.sign(x) * np.abs(x) ** (1.0 / 3.0)


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
    for name, x in (("D_dif", D_dif), ("D_dsl", D_dsl), ("n", n)):
        if not (math.isfinite(float(x)) and float(x) > 0):
            raise InvalidInputError(f"{name} must be positive and finite, got {x}")
    scalar_in = np.isscalar(eps) or np.ndim(eps) == 0
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0):
        raise InvalidInputError("eps must be >= 0")

    if mode == "closed":
        if n == 1:
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
                    a_ = _signed_cbrt(u1)
                    b_ = _signed_cbrt(-(1.0 / 27.0) / u1)
                    y = e / (a_**2 - a_ * b_ + b_**2)
                (m1, k1), (m2, k2) = np.frexp(D_dsl), np.frexp(q)
                out = np.where(z < cut, D_dif * eps, np.where(
                    z > -n * cut, D_dsl * eps ** (1.0 / n), np.ldexp(m1 / m2 * y, k1 - k2)))
        else:
            raise UnsupportedModeError(
                f"closed mode covers n in {{1, 2, 3}}, got n = {n}"
            )
    elif mode == "numeric":
        out = _stress(Serial([Leaf(Dashpot(D_dif)), Leaf(PowerLaw(D_dsl, n))]), eps)[1]
    else:
        raise InvalidInputError(f"mode must be 'closed' or 'numeric', got {mode!r}")
    return float(out) if scalar_in else out


def harmonic_mean_linear(D_list: Sequence[float]) -> float:
    """Modulus of serially arranged linear dashpots: ``1 / sum(1/D_i)``."""
    ds = [float(d) for d in D_list]
    if not ds:
        raise InvalidInputError("harmonic_mean_linear needs a nonempty list")
    if any(not math.isfinite(d) or d <= 0 for d in ds):
        raise InvalidInputError("all moduli must be positive and finite")
    return 1.0 / sum(1.0 / d for d in ds)
