"""Spatially homogeneous generalized Maxwell rheology.

One elastic element (stored energy ``0.5 * E * e_el**2``, stress
``sigma = E * e_el``) in series with a set of viscoplastic elements.
The elastic strain evolves by the prescribed total rate minus the sum
of the elements' conjugate flow rates at the common stress:

    d(e_el)/dt = eps(t) - sum_i flow_i(E * e_el)

Time stepping is backward Euler on the elements' own set-valued flow laws
(``Potential.flow``), bound as a Serial node's parts, so the polyline ones
(dashpot, plastic, Huber) merge into one graph.  Each step solves, on Python
floats only, for the stress in ``[0, min(E |trial|, cap)]``, ``cap`` the
tightest stress supremum of the elements (a plastic constraint ``|sigma| <=
sigma_a``), with the tree solves' scale-free root finder: from just below that
upper end, or in :func:`simulate` from the finder's warm start off the last
point the step before read.  A run binds the step and its residual once, over
the run's state (that point, the target, the step length), so a step builds no
closure and reads no attribute of the model.  A step that reaches the cap
stops there with no clamp: the radial return map, the exact resolution of the
differential inclusion for this scalar model.  :func:`simulate` puts row k at
``k * dt`` and its last row at ``t_end`` exactly, collects the rows as Python
floats and hands them to :class:`TimeSeries` as they are, so a simulation
written out as CSV never imports numpy.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

from ._numpy import np
from ._record import Record
from .errors import InvalidInputError
from .potentials import Potential, _number
from .rheology import Leaf, _bind, _root_scalar

__all__ = [
    "MaxwellModel",
    "DriveProgram",
    "TimeSeries",
    "step",
    "simulate",
]

_STEP_RTOL = 1e-15


class MaxwellModel(Record):
    """Elastic modulus ``E`` (Pa) and the serial viscoplastic elements."""

    E: float
    elements: tuple

    def __init__(self, E: float, elements):
        E = _number(E, "E")
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

    ``segments`` is a sequence of ``(t_end, eps)`` pairs of numbers with strictly
    increasing end times, the last of which may be +inf; segment k applies on
    ``(t_end_{k-1}, t_end_k]``.  Beyond the last segment the rate is 0.
    """

    segments: tuple

    def __init__(self, segments):
        segs, prev = [], 0.0
        for t_end, eps in segments:
            t_end = math.inf if t_end == math.inf else _number(t_end, "segment end time", None)
            if not t_end > prev:
                raise InvalidInputError("segment end times must be strictly increasing")
            segs.append((t_end, _number(eps, "segment rate", None)))
            prev = t_end
        if not segs:
            raise InvalidInputError("DriveProgram needs at least one segment")
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def constant(cls, eps: float) -> "DriveProgram":
        return cls([(math.inf, eps)])

    def rate_at(self, t: float) -> float:
        return next((eps for t_end, eps in self.segments if t <= t_end), 0.0)


class _Run:  # a model's step bound once, over cells of the run's state: no reference cycle
    __slots__ = ("step",)

    def __init__(self, m):
        E, sup, flow, c = m.E, m._sup, m._float_flow, 1.0 / m.E  # c: the compliance
        x = f = d = t = h = 0.0  # the last point read (stress, flow, slope), target, step

        def residual(s):
            nonlocal x, f, d
            x, (_, f, d) = s, flow(s)
            return s / E - t + h * f, c + h * d

        def step(e_el, eps, dt):
            nonlocal t, h
            trial = e_el + dt * eps
            t, h = abs(trial), dt
            e = min(_root_scalar(residual, t, min(E * t, sup), _STEP_RTOL, 0.0,
                                 x, x / E + h * f, c + h * d) / E, t)
            return e if trial >= 0 else -e

        self.step = step


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

    Solves ``x = e_el + dt * (eps - sum_i flow_i(E x))``, signed like the trial
    ``e_el + dt * eps``, for the stress ``E |x|`` with the tree solves' finder
    ``rheology._root_scalar``, to ``1e-15`` of itself; ``cap / E`` when the stress
    stops at the cap.  The residual reads the model's float kernel: no numpy scalar
    and no floating-point error state.  A run (``_Run``) binds the step once to the model's
    laws: a model gets a fresh run each call, so its first probe is just below ``min(E t,
    cap)`` and it keeps no history; :func:`simulate` steps one run, each step but the first
    handing the finder the last point the step before read, for its warm start.
    """
    if not type(e_el) is type(eps) is type(dt) is float:  # floats skip the number rule
        e_el, eps = _number(e_el, "e_el", None), _number(eps, "eps", None)
        dt = _number(dt, "dt", None)
    if not (dt > 0):
        raise InvalidInputError("dt must be > 0")
    if not (math.isfinite(e_el) and math.isfinite(eps)):
        raise InvalidInputError(f"e_el and eps must be finite, got {e_el}, {eps}")
    return (model if type(model) is _Run else _Run(model)).step(e_el, eps, dt)


def simulate(
    model: MaxwellModel,
    drive: DriveProgram,
    dt: float,
    t_end: float,
    e_el0: float = 0.0,
) -> TimeSeries:
    """Integrate from ``t = 0`` to ``t_end``; one recorded row per step.

    Row k is at ``k * dt``, a product that no sum drifts from, and the last row at ``t_end``
    exactly: after ``n`` steps of ``dt`` comes a short last step of ``t_end - n * dt`` if that
    is over ``1e-12 * dt``, else the last of the ``n`` steps ends there.  The drive is sampled
    at each row's time (implicit in time, like the stress solve).  Each step but the first
    starts from the last point the one before read (:func:`step`).  Non-finite times, and
    more steps than a list can index, are input errors.
    """
    if not (0 < dt < math.inf and math.isfinite(t_end)):
        raise InvalidInputError(f"dt must be finite and > 0 and t_end finite, got {dt}, {t_end}")
    if not (t_end >= dt):
        raise InvalidInputError("t_end must be at least dt")
    n = t_end / dt + 1e-12
    if n > sys.maxsize:
        raise InvalidInputError(f"t_end / dt = {n:.6g} steps, more than a list can index")
    n_full = math.floor(n)
    rem = t_end - n_full * dt
    segs, j = (*drive.segments, (math.inf, 0.0)), 0  # a cursor: the times only grow
    run, e, steps = _Run(model), float(e_el0), n_full + (rem > 1e-12 * dt)
    t, eps_col, e_col, fdt = [0.0], [segs[0][1]], [e], float(dt)
    for k in range(1, steps + 1):
        now = k * fdt if k < steps else float(t_end)
        h = dt if k <= n_full else rem
        while now > segs[j][0]:
            j += 1
        rate = segs[j][1]
        e = step(run, e, rate, h)
        t.append(now)
        eps_col.append(rate)
        e_col.append(e)
    return TimeSeries(t=t, eps=eps_col, e_el=e_col, sigma=[model.E * x for x in e_col])
