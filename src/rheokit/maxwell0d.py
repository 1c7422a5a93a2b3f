"""Spatially homogeneous generalized Maxwell rheology.

One elastic element (stored energy ``0.5 * E * e_el**2``, stress
``sigma = E * e_el``) in series with a set of viscoplastic elements.
The elastic strain evolves by the prescribed total rate minus the sum
of the elements' conjugate flow rates at the common stress:

    d(e_el)/dt = eps(t) - sum_i flow_i(E * e_el)

Time stepping is backward Euler: each step solves the strictly
monotone residual for the new elastic strain by bisection.  Elements
whose conjugate has bounded support (a plastic constraint
``|sigma| <= sigma_a``) are handled by the radial return map: the step
is solved with the quadratic (unconstrained) extension of the flow and
the stress is then clamped onto the admissible ball, which is the exact
resolution of the differential inclusion for this scalar model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convex_core import SampledFunction
from .errors import InvalidInputError, NonConvergenceError
from .potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    Potential,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    conjugate_analytic,
)

__all__ = [
    "MaxwellModel",
    "DriveProgram",
    "TimeSeries",
    "step",
    "step_explicit",
    "simulate",
]

_STEP_RTOL = 1e-15
_MAX_STEP_BISECT = 200


@dataclass(frozen=True)
class MaxwellModel:
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
            if not isinstance(
                p, (Dashpot, PerfectPlastic, PowerLaw, Huber, QuadPlusBall, Sampled)
            ):
                raise InvalidInputError(f"not a Potential: {p!r}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "elements", elements)


@dataclass(frozen=True)
class DriveProgram:
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


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Recorded rows ``(t, eps, e_el, sigma)`` with ``sigma = E * e_el``."""

    t: np.ndarray
    eps: np.ndarray
    e_el: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("t", "eps", "e_el", "sigma"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n = self.t.size
        if any(getattr(self, k).size != n for k in ("eps", "e_el", "sigma")):
            raise InvalidInputError("TimeSeries columns must have equal length")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise InvalidInputError("TimeSeries times must be strictly increasing")

    def __len__(self):
        return self.t.size


def _element_flow(p: Potential):
    """Unconstrained flow rate (stress magnitude -> rate) and stress cap.

    The flow is the conjugate derivative with any plastic constraint
    removed (quadratic branch extended); the cap carries the constraint
    for the return map.
    """
    if isinstance(p, Dashpot):
        d = p.D
        return (lambda s: s / d), None
    if isinstance(p, PowerLaw):
        d, n = p.D, p.n
        return (lambda s: (s / d) ** n), None
    if isinstance(p, Huber):
        d = p.D
        return (lambda s: s / d), p.sigma_a
    if isinstance(p, PerfectPlastic):
        return (lambda s: 0.0), p.sigma_a
    if isinstance(p, QuadPlusBall):
        q, a = p.Dinv_quad, p.sigma_a
        if q == 0.0:
            return (lambda s: a if s > 0 else 0.0), None
        return (lambda s: min(s / q, a)), None
    # Sampled: piecewise-linear conjugate derivative, last slope extended.
    conj = conjugate_analytic(p)
    g: SampledFunction = conj.f
    m = g.finite_sup
    gr = g.grid[:m]
    if m < 2:
        return (lambda s: 0.0), None
    sl = (np.diff(g.values[:m]) / np.diff(gr)).tolist()
    bounds = gr[1:].tolist()
    cap = g.grid[m - 1] if m < g.grid.size else None

    def flow(s, bounds=bounds, sl=sl):
        for b, r in zip(bounds, sl):
            if s <= b:
                return r
        return sl[-1]

    return flow, cap


@lru_cache(maxsize=32)
def _flows_and_cap(model: MaxwellModel):
    flows = []
    caps = []
    for p in model.elements:
        f, c = _element_flow(p)
        flows.append(f)
        if c is not None:
            caps.append(c)
    cap = min(caps) if caps else None
    return tuple(flows), cap


def step(model: MaxwellModel, e_el: float, eps: float, dt: float) -> float:
    """One backward-Euler step of the elastic strain.

    Solves ``x = e_el + dt * (eps - sum_i flow_i(E x))`` by bisection of
    the strictly monotone residual, then clamps ``|E x|`` onto the
    tightest plastic cap.
    """
    if not (dt > 0):
        raise InvalidInputError("dt must be > 0")
    e_el = float(e_el)
    eps = float(eps)
    if not (math.isfinite(e_el) and math.isfinite(eps)):
        raise InvalidInputError(f"e_el and eps must be finite, got {e_el}, {eps}")
    flows, cap = _flows_and_cap(model)
    E = model.E

    def total_flow(sig: float) -> float:
        if sig == 0.0:
            return 0.0
        s = abs(sig)
        r = 0.0
        for f in flows:
            r += f(s)
        return r if sig > 0 else -r

    trial = e_el + dt * eps
    if trial == 0.0:
        x = 0.0
    else:
        a, b = (0.0, trial) if trial > 0 else (trial, 0.0)
        tol = _STEP_RTOL * max(1.0, abs(trial))
        converged = False
        for _ in range(_MAX_STEP_BISECT):
            if b - a <= tol:
                converged = True
                break
            mid = 0.5 * (a + b)
            if mid - trial + dt * total_flow(E * mid) < 0.0:
                a = mid
            else:
                b = mid
        if not converged and b - a > tol:
            raise NonConvergenceError("backward-Euler step did not converge")
        x = 0.5 * (a + b)
    if cap is not None:
        bound = cap / E
        x = min(max(x, -bound), bound)
    return x


def step_explicit(model: MaxwellModel, e_el: float, eps: float, dt: float) -> float:
    """Forward-Euler step, for cross-checks at small dt only.

    Conditionally stable; the implicit :func:`step` is the reference.
    The same return-map clamp keeps the stress admissible.
    """
    if not (dt > 0):
        raise InvalidInputError("dt must be > 0")
    flows, cap = _flows_and_cap(model)
    sig = model.E * float(e_el)
    s = abs(sig)
    rate = sum(f(s) for f in flows)
    flow = rate if sig > 0 else (-rate if sig < 0 else 0.0)
    x = float(e_el) + dt * (float(eps) - flow)
    if cap is not None:
        bound = cap / model.E
        x = min(max(x, -bound), bound)
    return x


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

    n = len(steps)
    t = np.empty(n + 1)
    eps_col = np.empty(n + 1)
    e_col = np.empty(n + 1)
    t[0] = 0.0
    eps_col[0] = drive.rate_at(0.0)
    e_col[0] = float(e_el0)
    e = float(e_el0)
    now = 0.0
    for k, h in enumerate(steps, start=1):
        now += h
        rate = drive.rate_at(now)
        e = step(model, e, rate, h)
        t[k] = now
        eps_col[k] = rate
        e_col[k] = e
    return TimeSeries(t=t, eps=eps_col, e_el=e_col, sigma=model.E * e_col)
