"""Spatially homogeneous generalized Maxwell rheology.

One elastic element (stored energy ``0.5 * E * e_el**2``, stress
``sigma = E * e_el``) in series with a set of viscoplastic elements.
The elastic strain evolves by the prescribed total rate minus the sum
of the elements' conjugate flow rates at the common stress:

    d(e_el)/dt = eps(t) - sum_i flow_i(E * e_el)

Time stepping is backward Euler on the elements' own set-valued flow
laws (``Potential.flow``), bound as a Serial node's parts, so the
polyline ones (dashpot, plastic, Huber) merge into one graph.  Each step
solves, on Python floats only, for the stress in ``[0, min(E |trial|,
cap)]``, ``cap`` the tightest stress supremum of the elements (a plastic
constraint ``|sigma| <= sigma_a``), with the tree solves' scale-free
root finder.  A step that reaches the cap stops there with no clamp: the
radial return map, the exact resolution of the differential inclusion
for this scalar model.  :func:`simulate` collects its rows as Python
floats and hands them to :class:`TimeSeries` as they are, so a
simulation written out as CSV never imports numpy.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._numpy import np
from ._record import Record
from .errors import InvalidInputError
from .potentials import Potential
from .rheology import Leaf, _bind, _root_scalar

__all__ = [
    "MaxwellModel",
    "DriveProgram",
    "TimeSeries",
    "step",
    "step_explicit",
    "simulate",
]

_STEP_RTOL = 1e-15


class MaxwellModel(Record):
    """Elastic modulus ``E`` (Pa) and the serial viscoplastic elements."""

    E: float
    elements: tuple

    def __init__(self, E: float, elements):
        E = float(E)
        if not (math.isfinite(E) and E > 0):
            raise InvalidInputError(f"E must be positive, got {E}")
        elements = tuple(elements)
        if not elements:
            raise InvalidInputError("MaxwellModel needs at least one element")
        for p in elements:
            if not isinstance(p, Potential):
                raise InvalidInputError(f"not a Potential: {p!r}")
        # a Serial node's parts, less its strict-child check: the spring keeps each step well posed
        self.__dict__.update(_bind(tuple(map(Leaf, elements)), serial=True), E=E, elements=elements)


class DriveProgram(Record):
    """Piecewise-constant prescribed strain rate.

    ``segments`` is a sequence of ``(t_end, eps)`` pairs with strictly
    increasing end times; segment k applies on ``(t_end_{k-1}, t_end_k]``.
    Beyond the last segment the rate is 0.
    """

    segments: tuple

    def __init__(self, segments):
        segs = []
        prev = 0.0
        for item in segments:
            t_end, eps = item
            t_end = float(t_end)
            eps = float(eps)
            if not t_end > prev:
                raise InvalidInputError("segment end times must be strictly increasing")
            if not math.isfinite(eps):
                raise InvalidInputError("segment rates must be finite")
            segs.append((t_end, eps))
            prev = t_end
        if not segs:
            raise InvalidInputError("DriveProgram needs at least one segment")
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def constant(cls, eps: float) -> "DriveProgram":
        return cls([(math.inf, eps)])

    def rate_at(self, t: float) -> float:
        for t_end, eps in self.segments:
            if t <= t_end:
                return eps
        return 0.0


def _column(i):
    def column(self):
        a = np.array(self.columns[i], dtype=float)
        a.setflags(write=False)
        return a

    return cached_property(column)


class TimeSeries(Record, eq=False):
    """Recorded rows ``(t, eps, e_el, sigma)`` with ``sigma = E * e_el``.

    ``columns`` holds the four columns as given (:func:`simulate` gives
    lists of Python floats, which the CLI writes out as they are); ``t``,
    ``eps``, ``e_el`` and ``sigma`` are read-only float64 copies of them,
    built on first access and kept, so only a caller that reads one loads
    numpy.
    """

    columns: tuple

    def __init__(self, t, eps, e_el, sigma):
        if not len(t) == len(eps) == len(e_el) == len(sigma):
            raise InvalidInputError("TimeSeries columns must have equal length")
        if not all(a < b for a, b in zip(t, t[1:])):
            raise InvalidInputError("TimeSeries times must be strictly increasing")
        object.__setattr__(self, "columns", (t, eps, e_el, sigma))

    t, eps, e_el, sigma = (_column(i) for i in range(4))

    def __len__(self):
        return len(self.columns[0])


def step(model: MaxwellModel, e_el: float, eps: float, dt: float) -> float:
    """One backward-Euler step of the elastic strain.

    Solves ``x = e_el + dt * (eps - sum_i flow_i(E x))``, signed like the
    trial ``e_el + dt * eps``, for the stress ``E |x|`` with the tree
    solves' finder ``rheology._root_scalar``, to ``1e-15`` of itself;
    ``cap / E`` when the stress stops at the cap.  The residual reads the
    model's float kernel: no numpy scalar and no floating-point error state.
    """
    if not (dt > 0):
        raise InvalidInputError("dt must be > 0")
    e_el, eps, dt = float(e_el), float(eps), float(dt)
    if not (math.isfinite(e_el) and math.isfinite(eps)):
        raise InvalidInputError(f"e_el and eps must be finite, got {e_el}, {eps}")
    trial = e_el + dt * eps
    t = abs(trial)
    E, flow, compliance = model.E, model._float_flow, 1.0 / model.E

    def residual(s):
        _, f, d = flow(s)
        return s / E - t + dt * f, compliance + dt * d

    s = _root_scalar(residual, t, min(E * t, model._sup), _STEP_RTOL)
    x = min(s / E, t)
    return x if trial >= 0 else -x


def step_explicit(model: MaxwellModel, e_el: float, eps: float, dt: float) -> float:
    """Forward-Euler step, for cross-checks at small dt only.

    Conditionally stable; the implicit :func:`step` is the reference.
    The flow is the least rate each element allows at the current stress,
    read at most at the cap, and a clamp onto the cap keeps the stress
    admissible.
    """
    if not (dt > 0):
        raise InvalidInputError("dt must be > 0")
    sig = model.E * float(e_el)
    rate = model._float_flow(min(abs(sig), model._sup))[0]
    flow = rate if sig > 0 else (-rate if sig < 0 else 0.0)
    x = float(e_el) + dt * (float(eps) - flow)
    bound = model._sup / model.E
    return min(max(x, -bound), bound)


def simulate(
    model: MaxwellModel,
    drive: DriveProgram,
    dt: float,
    t_end: float,
    e_el0: float = 0.0,
) -> TimeSeries:
    """Integrate from ``t = 0`` to ``t_end``; one recorded row per step.

    The drive is sampled at the end of each step (implicit in time, like
    the stress solve).  A shortened final step lands exactly on
    ``t_end`` when it is not a multiple of ``dt``.
    """
    if not (dt > 0):
        raise InvalidInputError("dt must be > 0")
    if not (t_end >= dt):
        raise InvalidInputError("t_end must be at least dt")
    n_full = int(math.floor(t_end / dt + 1e-12))
    steps = [dt] * n_full
    rem = t_end - n_full * dt
    if rem > 1e-12 * dt:
        steps.append(rem)

    e, now = float(e_el0), 0.0
    t, eps_col, e_col = [now], [drive.rate_at(now)], [e]
    for h in steps:
        now += h
        rate = drive.rate_at(now)
        e = step(model, e, rate, h)
        t.append(now)
        eps_col.append(rate)
        e_col.append(e)
    return TimeSeries(t=t, eps=eps_col, e_el=e_col, sigma=[model.E * x for x in e_col])
