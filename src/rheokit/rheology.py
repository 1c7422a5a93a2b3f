"""Serial/parallel composition of potentials and effective viscosities.

A rheological network is a tree: leaves hold potentials, Parallel nodes
add potentials (stresses add at common rate), Serial nodes combine them
by infimal convolution (rates add at common stress).  When a node is
built, its children with polyline stress laws (dashpot, plastic, Huber,
sampled) merge into one exact polyline leaf, so a subtree of them alone is one
closed form.  Elsewhere ``strain_rate_of_stress`` (rates summed across
a Serial node) and ``stress_of_strain_rate`` (stresses summed across a
Parallel node) invert each other by one monotone root finder on Python
floats, the template ``_FINDER`` (also the Maxwell step's).  It takes
safeguarded Newton steps in log-log coordinates inside a bracket that
bisects the ordered bits of the floats, from a first probe just below a
finite cap, else 1, so no solve depends on the unit scale.  Each node
reports its tangent next to its value (stiffnesses add across Parallel,
compliances across Serial, an inverse takes the reciprocal), for the Newton
steps and for ``mu_eff_rigorous``'s exact limit at rest.  Set-valued points
are :class:`SubdiffInterval`; saturation (stress beyond a composite's
attainable range) is a +inf marker, not an error.  Every node binds its
laws, graph features and polyline graph once, when built, never importing
numpy: a walk along ascending targets per inverting node, each solve after
the first from the last one's lower end and a log-log Newton step, and its
one-target inverse, for scalar calls and nested solves.  Each is one function
generated at its first call, every leaf inlined from its kind's snippet, and
compiled once per shape (``_generate``); an inverting node reads its summed
law at rest once.  ``stress_curve`` walks its rates sorted, so numpy stays
at the array API's edges.

The closed-form and empirical viscosity family and the three-element models
are ``_comparison``'s, which this module serves at their first use (PEP 562).
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from functools import cache
from types import SimpleNamespace
from typing import Union

from ._graph import SubdiffInterval, _graph_sum
from ._numpy import _served, np
from ._record import Record
from .errors import InvalidInputError, NonConvergenceError
from .potentials import Potential, _Feat, _Law, _Polyline, _number, _rates

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
        self.__dict__.update(_float_flow=p._float_flow(), _float_stress=(fs := p._float_stress()),
                             _walk=lambda eps: list(map(fs._law, eps)),
                             _feat=p._feat(), _graph=p._graph, _sup=p.stress_sup())


class Parallel(Record):
    """Sum of potentials: children see a common strain rate."""

    children: tuple
    _serial = False

    def __init__(self, children):  # also Serial's: a _serial node checks its solve is well posed
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise InvalidInputError(f"{type(self).__name__} needs at least one child")
        for c in self.children:
            _check_expr(c)
        if self._serial and not any(all(c._feat) for c in self.children):
            raise InvalidInputError(
                "Serial node needs at least one child with a strictly "
                "increasing, unbounded conjugate derivative (e.g. a dashpot "
                "or power-law element)"
            )
        self.__dict__.update(_bind(self.children, self._serial))


class Serial(Record):
    """Infimal convolution of potentials: children see a common stress.

    At least one child must have a strictly increasing, unbounded
    conjugate derivative (a dashpot or power-law somewhere in it), which
    makes the stress solve well posed for every strain rate.
    """

    children: tuple
    _serial = True
    __init__ = Parallel.__init__


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
    features ``_feat``, polyline ``_graph`` and laws, bound once when it is built: the float laws
    ``_float_flow`` and ``_float_stress``, and ``_walk``, the float stress along an ascending
    grid.  Parts in series add their rates, and the least supremum bounds them; parts in parallel
    add their stresses and suprema.  The other law inverts that sum (:data:`_INVERSE`, in series
    also ``_walk``, :data:`_WALK`); a parallel flow saturates to +inf past ``_sup``.  Each law is
    a :class:`_Law`, generated at its first call.  A lone part's laws, walk and graph are the
    node's.  Features add as the potentials do in parallel, and as their conjugates do in
    series."""
    parts = _merged(children, serial)
    sup = (min if serial else sum)(c._sup for c in parts)
    cap, top = (sup, math.inf) if serial else (math.inf, sup)
    sv, nf, dom, ub = zip(*(c._feat for c in children))
    one, other = (any, all) if serial else (all, any)
    bound = {"_parts": parts, "_sup": sup, "_feat": _Feat(one(sv), other(nf), one(dom), other(ub))}
    if len(parts) == 1:
        laws = ("_float_flow", "_float_stress", "_walk", "_graph")
        return bound | {k: getattr(parts[0], k) for k in laws}
    summed, inverted = ("_float_flow", "_float_stress") if serial else (
        "_float_stress", "_float_flow")
    laws, node = [getattr(c, summed) for c in parts], "serial" if serial else "parallel"
    total = _Law(lambda _: _generate("law", _LAW, {}, laws))
    rest = cache(lambda: total(0.0)[1:])  # read once, at the first solve
    walk, one = (_Law(lambda _, e=e, slots=slots: _generate(
        f"{e} {node}", _SOLVE, slots, laws, top, cap, _RTOL, *rest()))
        for e, slots in (("walk", _WALK), ("inverse", _INVERSE)))
    if not serial:  # its parts' walks, added row by row
        walks = [c._walk for c in parts]
        rows = _Law(lambda _: _generate("law", _LAW, {}, [_ROW] * len(walks)))
        walk = lambda ts: list(map(rows._law, zip(*[w(ts) for w in walks])))
    return bound | {summed: total, inverted: one, "_walk": walk, "_graph": None}


_F64, _I64 = struct.Struct("d"), struct.Struct("q")


def _mid_scalar(lo, hi):
    """The midpoint of ``[lo, hi]`` (Python floats >= 0) in the ordered bits of the floats, packed
    by ``struct``: the finder's bisection."""
    (ilo,), (ihi,) = _I64.unpack(_F64.pack(lo)), _I64.unpack(_F64.pack(hi))
    return _F64.unpack(_I64.pack(ilo + (ihi - ilo) // 2))[0]


# The one root finder, of every solve (walks, one-target inverses, the Maxwell step): ``hi`` ends
# as the least ``x`` in ``[lo, cap]`` where a nondecreasing ``g``, ``g(lo) < target``, reaches
# ``target`` (``cap`` if never), from RESIDUAL: ``r = g(x) - target``, formed so its sign holds
# where the two cancel, and ``dr = g'(x)``.  The first probe is the log-log Newton step from the
# last point read, ``(x, g, dr)``, if inside the bracket, else (none read: g = 0) just below a
# finite cap, else 1.  Newton steps in log-log are blind to the unit scale and exact in one step
# for a power law; one is taken only inside the bracket and at most half the one before last
# (rtsafe), else the bracket is bisected in the ordered bits of the floats, so 64 halvings span
# [0, inf].  It stops on a bracket ``rtol`` wide or adjacent floats.
_FINDER = """\
hi, s1, s2 = cap, inf, inf
try:  # g = 0 (none read): start cold; a flat slope or a step past the floats raises
    x = x * exp(log(target / g) * g / (x * dr)) if g else nan
except (ArithmeticError, ValueError):
    x = nan
if not lo < x < cap:
    x = nextafter(cap, 0.0) if cap < inf else 1.0
for _ in range(rheology._MAX_ITER):
    PARTS
    RESIDUAL
    if r < 0:
        lo = x
    else:
        hi = x
    if (hi - lo <= rtol * hi and hi < inf) or nextafter(lo, hi) >= hi:
        break
    try:  # a step through 0 or +inf raises, and bisects
        gt = target + r
        u = log1p(-r / gt) * gt / (x * dr)  # log(xn / x)
        xn = x + x * expm1(u)
        if abs(xn - x) < half * x:  # too short to cross the root: push it across
            xn, u = x + (half if r < 0 else -half) * x, half
        ok = lo < xn < hi and abs(u) <= 0.5 * s2
    except (ArithmeticError, ValueError):
        ok = False
    xn = xn if ok else rheology._mid_scalar(lo, hi)
    s1, s2, x = abs(u if ok else log(xn / x)), s1, xn
else:
    raise NonConvergenceError(
        f"root solve: target {target!r} unresolved after {rheology._MAX_ITER} steps")
"""

# An inverting node's float walk along ascending targets, and its one-target inverse, each a
# unit of its own: per target a row ``(x, x, dx/dt)`` of the summed law less ``g0``, its value at
# rest (slope ``dr0``), which the node reads once; dx/dt 0 below rest and at the cap, else 1 / the
# last slope read; +inf past ``top``.  A walk starts each solve from the last one's lower end and
# last point read, so no root falls below the one before.
_SOLVE = """\
def make(top, cap, rtol, g0, dr0, CELLS):
    half = 0.5 * rtol
    ENTRY
    return solve
"""
_WALK = {"ENTRY": """\
def solve(ts):
    rows, root, lo, x, g, dr = [], 0.0, 0.0, 0.0, 0.0, dr0
    for t in ts:
        TARGET
        rows.append(row)
    return rows
""", "RESIDUAL": "gx, dr = SUM_H, SUM_D\ng, r = gx - g0, gx - t"}
_INVERSE = _WALK | {"ENTRY": """\
def solve(t):
    root, lo, x, g, dr = 0.0, 0.0, 0.0, 0.0, dr0
    TARGET
    return row
"""}
_TARGET = """\
if t > top:  # saturated
    row = (inf, inf, inf)
else:
    if root < cap and t > g0:
        target = t - g0
        FINDER
        root = max(root, hi)
    row = (root, root, 0.0 if t < g0 or root == cap else 1.0 / dr if dr else inf)
"""
_LAW = ("def make(CELLS):\n    def law(x):\n        PARTS\n"  # a node's summed law, a lone kernel
        "        return SUM_L, SUM_H, SUM_D\n    return law\n")
_CALL = ("call", "law", "l{i}, h{i}, d{i} = law{i}(x)\n")  # a part with no snippet: a nested node
_ROW = _Law(inline=(("row", "", "l{i}, h{i}, d{i} = x[{i}]\n"), ()))  # part i's row of a walk
_MADE = {}  # the generated factories, by shape


def _fill(src, slots):
    """``src`` with each slot's name replaced by its text, filled in turn, its lines after the
    first indented by the spaces before the name.  A name is replaced wherever it occurs, so no
    template holds one inside a longer word."""
    for name, text in slots.items():
        if name in src:
            head, *tails = src.split(name)
            text = _fill(text, slots).rstrip("\n")
            for tail in tails:
                head += text.replace("\n", "\n" + " " * (len(head) - len(head.rstrip(" ")))) + tail
            src = head
    return src


def _generate(node, frame, slots, laws, *cells):
    """What ``frame``'s ``make`` returns over ``cells`` and parts of ``laws``, each inlined from
    its snippet or else called.  Part ``i`` sets ``l{i}, h{i}, d{i}`` at ``x``, added left to
    right in ``SUM_L``, ``SUM_H``, ``SUM_D``; ``slots`` fill the frame's others.  The source of a
    shape (``node`` and the parts' kinds) is compiled at its first use and kept, and its unit's
    ``__loader__`` gives it to a traceback.  It reads ``_MAX_ITER`` and ``_mid_scalar`` here at
    each call."""
    specs = [getattr(f, "_inline", None) or (_CALL, (getattr(f, "_law", f),)) for f in laws]
    key, n = (node, *(kind for (kind, _, _), _ in specs)), range(len(specs))
    if key not in _MADE:
        names = ", ".join(c + str(i) for i in n for c in specs[i][0][1].split())
        sums = {"SUM_" + v.upper(): " + ".join(v + str(i) for i in n) for v in "lhd"}
        src = _fill(frame, {"PARTS": "".join(specs[i][0][2].format(i=i) for i in n), "CELLS": names,
                            "TARGET": _TARGET, "FINDER": _FINDER, **sums, **slots})
        name = f"rheokit {node}: {'+'.join(key[1:])}"  # not "<...>", which linecache would not ask
        space = {**vars(math), "bisect_right": bisect_right, "rheology": sys.modules[__name__],
                 "NonConvergenceError": NonConvergenceError, "__name__": name, "__spec__": None,
                 "__loader__": SimpleNamespace(get_source=lambda _: src)}
        exec(compile(src, name, "exec"), space)
        _MADE[key] = space["make"]
    return _MADE[key](*cells, *(v for _, values in specs for v in values))


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
    """Stress (interval midpoints) over an array of strain rates, in their order and shape: the
    tree's float walk along the rates stably sorted, as ``curve`` walks its grid."""
    _check_expr(e)
    eps, _ = _rates(eps, "strain rates")
    order = np.argsort(eps, axis=None, kind="stable")
    out = np.empty(eps.size)
    out[order] = [lo if lo == hi else 0.5 * lo + 0.5 * hi
                  for lo, hi, _ in e._walk(eps.ravel()[order].tolist())]
    return out.reshape(eps.shape)[()]  # [()]: a 0-d array as a scalar


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


__getattr__ = _served(__name__, dict.fromkeys((  # the comparison family: _comparison's
    "Formula ThreeElementParams _dif_dsl_closed harmonic_mean_linear mu_eff_formula "
    "map_serial_parallel_params serial_dif_dsl_stress three_element_parallel_serial "
    "three_element_serial_parallel three_element_stress").split(), "_comparison"))
