import contextlib
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rheokit.cli as cli
from rheokit.errors import InvalidInputError
from rheokit.maxwell0d import (
    DriveProgram,
    MaxwellModel,
    TimeSeries,
    simulate,
    step,
)
from rheokit.potentials import Dashpot, Huber, PerfectPlastic, PowerLaw
from rheokit.rheology import Leaf, Serial, _root_scalar, stress_curve, stress_of_strain_rate
from rheokit.schema import parse_simulation


def test_model_and_drive_validation():
    with pytest.raises(InvalidInputError):
        MaxwellModel(0.0, [Dashpot(1.0)])
    with pytest.raises(InvalidInputError):
        MaxwellModel(1.0, [])
    with pytest.raises(InvalidInputError):
        DriveProgram([(1.0, 0.5), (0.5, 0.2)])
    d = DriveProgram([(1.0, 0.5), (2.0, -0.2)])
    assert d.rate_at(0.0) == 0.5
    assert d.rate_at(1.5) == -0.2
    assert d.rate_at(5.0) == 0.0


def test_step_rejects_nonfinite_state():
    m = MaxwellModel(1.0, [Dashpot(1.0)])
    for e_el, eps in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf)):
        with pytest.raises(InvalidInputError):
            step(m, e_el, eps, 0.01)


def test_step_tolerance_is_relative_to_the_trial_strain():
    # geoscale: a step moves the strain by 1e-15, far below any absolute tolerance
    m = MaxwellModel(1e9, [Dashpot(1e21)])
    assert step(m, 0.0, 1e-15, 1.0) == pytest.approx(1e-15 / (1.0 + 1e-12), rel=1e-14, abs=0)
    assert step(m, 0.0, -1e-15, 1.0) == pytest.approx(-1e-15 / (1.0 + 1e-12), rel=1e-14, abs=0)
    # past the cap the stress stops exactly at the cap
    capped = MaxwellModel(3e10, [Dashpot(1e21), PerfectPlastic(2e7)])
    assert step(capped, 0.0, 1e-12, 1e9) == 2e7 / 3e10
    assert step(capped, 0.0, -1e-12, 1e9) == -2e7 / 3e10
    # subnormal trial strains end on adjacent floats, with no error
    for e_el in (5e-324, 1e-320, -3e-310):
        for elements in ([Dashpot(1.0)], [PowerLaw(1.0, 0.5), Dashpot(2.0)]):
            x = step(MaxwellModel(0.5, elements), e_el, 0.0, 1.0)
            assert 0.0 <= x / e_el <= 1.0


def _residual(m, x, t, dt):
    """Backward-Euler residual ``x - t + dt * flow(E x)`` at the strain magnitude ``x``."""
    with np.errstate(over="ignore"):
        return x - t + dt * sum(float(p.flow(np.float64(m.E * x))[1]) for p in m.elements)


def _straddles(m, x, t, dt):
    return _residual(m, (1 - 1e-14) * x, t, dt) < 0 < _residual(m, (1 + 1e-14) * x, t, dt)


@contextlib.contextmanager
def _flow_evaluations(m):
    """Count the flow evaluations of one step: one is a call of each float kernel the
    step sums (one per part of ``m._parts``, where the polyline elements are merged
    into one).  The kernels are counted on their kinds and bound into ``m`` as a
    model binds them; a step evaluates its flow at least once."""
    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        for kind in {type(c.p) for c in m._parts}:
            def counted(self, bind=kind._float_flow):
                kernel = bind(self)

                def flow(s):
                    calls[0] += 1
                    return kernel(s)

                return flow

            mp.setattr(kind, "_float_flow", counted)
        mp.setitem(vars(m), "_float_flow", MaxwellModel(m.E, m.elements)._float_flow)
        yield lambda: calls[0] / len(m._parts)
    assert calls[0] >= len(m._parts), "the step's flow evaluations went uncounted"


def test_step_tolerance_is_relative_to_the_answer():
    """A step that relaxes most of its trial strain is exact to 1e-14 of itself."""
    for m, dt in ((MaxwellModel(1.0, [PowerLaw(1.0, 3.0)]), 1e9),
                  (MaxwellModel(1.0, [Dashpot(1.0)]), 1e6)):
        for e_el, eps in ((0.0, 1.0), (0.5, -1.0), (1.0, 0.0)):
            t = abs(e_el + dt * eps)
            assert _straddles(m, abs(step(m, e_el, eps, dt)), t, dt)
    # steep laws relaxing or loading a step over hundreds of decades, in a
    # few flow evaluations each: a log-log Newton step is exact on a power
    # law, and a bisection of the floats' bits halves the exponent
    counts = []
    for n in (1.2, 1.5, 2.0, 3.0, 4.5, 8.0, 12.0, 20.0, 40.0):
        m = MaxwellModel(1.0, [PowerLaw(1.0, n)])
        for k in range(-300, 301, 10):
            dt = 10.0**k
            for e_el, eps in ((1.0, 0.0), (0.0, 1.0)):
                with _flow_evaluations(m) as evaluations:
                    x = step(m, e_el, eps, dt)
                counts.append(evaluations())
                assert _straddles(m, x, e_el + dt * eps, dt), (n, k, eps)
    assert max(counts) <= 24 and sum(counts) <= 7 * len(counts)
    # the roots of x + 1e60 x^3 = 1 and = 1e60
    w = MaxwellModel(1.0, [PowerLaw(1.0, 3.0)])
    assert step(w, 1.0, 0.0, 1e60) == pytest.approx(1e-20, rel=1e-14, abs=0)
    assert step(w, 0.0, 1.0, 1e60) == pytest.approx(1.0, rel=1e-14, abs=0)


def test_a_step_past_the_cap_costs_one_flow_evaluation():
    # geoscale: crustal E, a dashpot, a power law and a plastic cap, where
    # E * nextafter(cap / E, 0) rounds back onto the cap
    E, cap = 4.84e10, 4.94e6
    m = MaxwellModel(E, [Dashpot(9.42e20), PowerLaw(1.98e16, 1.5), PerfectPlastic(cap)])
    for e_el, eps in ((cap / E, 2.3e-14), (0.0, 1e-11), (-cap / E, -2.3e-14), (0.5 * cap / E, 1e-11)):
        with _flow_evaluations(m) as evaluations:
            x = step(m, e_el, eps, 1.67e7)
        assert abs(x) == cap / E
        assert evaluations() <= 2


@st.composite
def _steps(draw):
    """A model, a state and a step, log-uniform over hundreds of decades.

    E and D span 1e+-50 and dt 1e+-200, so E dt / D spans 1e+-300; the
    elastic strain and the rate span 1e+-50 and take either sign or 0.
    """
    def lg(lo, hi):
        return 10.0 ** draw(st.floats(lo, hi))

    E = lg(-50, 50)
    elements = [PowerLaw(lg(-50, 50), draw(st.floats(1.2, 40.0)))]
    if draw(st.booleans()):
        elements.append(Dashpot(lg(-50, 50)))
    e_el = draw(st.sampled_from((-1.0, 0.0, 1.0))) * lg(-50, 50)
    eps = draw(st.sampled_from((-1.0, 0.0, 1.0))) * lg(-50, 50)
    dt = lg(-200, 200)
    trial = e_el + dt * eps
    assume(trial != 0.0)
    if draw(st.booleans()):
        # a yield stress within twenty decades below the trial stress
        elements.append(PerfectPlastic(E * abs(trial) * lg(-20, 1)))
    return MaxwellModel(E, elements), e_el, eps, dt


@settings(max_examples=300, deadline=None)
@given(_steps())
def test_step_is_exact_over_hundreds_of_decades(args):
    m, e_el, eps, dt = args
    trial = e_el + dt * eps
    t = abs(trial)
    with _flow_evaluations(m) as evaluations:
        x = step(m, e_el, eps, dt)
    assert evaluations() <= 100
    assert x == 0.0 or (x > 0) == (trial > 0)
    x = abs(x)
    cap = m._sup / m.E
    assert x <= min(t, cap)
    # a root below the normal floats, in strain or stress, only has to be bounded
    tiny = np.finfo(float).tiny * max(1.0, 1.0 / m.E)
    assert x == cap or _straddles(m, x, t, dt) or (x <= tiny <= t and _residual(m, tiny, t, dt) >= 0)


def test_step_linear_closed_form():
    m = MaxwellModel(1.0, [Dashpot(1.0)])
    # backward Euler on relaxation: e+ = e / (1 + dt E / D)
    assert step(m, 1.0, 0.0, 0.01) == pytest.approx(1.0 / 1.01, rel=1e-12)
    assert step(m, 0.0, 0.0, 0.01) == 0.0
    with pytest.raises(InvalidInputError):
        step(m, 1.0, 0.0, 0.0)


def test_step_signed_state():
    m = MaxwellModel(2.0, [Dashpot(0.5)])
    down = step(m, -1.0, 0.0, 0.01)
    up = step(m, 1.0, 0.0, 0.01)
    assert down == pytest.approx(-up, rel=1e-12)


def test_relaxation_matches_exponential():
    m = MaxwellModel(1.0, [Dashpot(1.0)])
    ts = simulate(m, DriveProgram.constant(0.0), 1e-4, 1.0, e_el0=1.0)
    assert ts.sigma[-1] == pytest.approx(math.exp(-1.0), abs=1e-3)
    assert np.all(ts.sigma == ts.e_el * m.E)


def test_first_order_convergence():
    m = MaxwellModel(1.0, [Dashpot(1.0)])
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        ts = simulate(m, DriveProgram.constant(0.0), dt, 1.0, e_el0=1.0)
        errs.append(abs(float(ts.sigma[-1]) - math.exp(-1.0)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(1.0, abs=0.1)


def test_yield_capped_stress():
    m = MaxwellModel(1.0, [Huber(1.0, 1.0)])
    ts = simulate(m, DriveProgram.constant(1.0), 1e-3, 20.0)
    assert np.max(ts.sigma) <= 1.0 + 1e-12
    assert ts.sigma[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(ts.sigma) >= -1e-15)


def test_plastic_element_caps_immediately():
    m = MaxwellModel(2.0, [PerfectPlastic(0.5)])
    ts = simulate(m, DriveProgram.constant(1.0), 1e-2, 5.0)
    assert np.max(np.abs(ts.sigma)) <= 0.5 + 1e-12
    assert ts.sigma[-1] == pytest.approx(0.5)


def test_zero_drive_zero_state():
    m = MaxwellModel(1.0, [Dashpot(1.0), PowerLaw(1.0, 3.0)])
    ts = simulate(m, DriveProgram.constant(0.0), 1e-2, 1.0)
    assert np.all(ts.sigma == 0.0)
    assert np.all(ts.e_el == 0.0)
    assert np.all(ts.eps == 0.0)


def test_dissipation_inequality_per_step():
    rng = np.random.default_rng(3)
    m = MaxwellModel(1.3, [Dashpot(0.8), Huber(0.9, 2.0), PowerLaw(1.1, 2.0)])
    for _ in range(200):
        e = float(rng.normal(0.0, 1.5))
        eps = float(rng.normal(0.0, 2.0))
        dt = float(rng.uniform(1e-4, 0.1))
        e_new = step(m, e, eps, dt)
        sigma_new = m.E * e_new
        # the flow term only removes stored energy
        assert sigma_new * (e_new - e) / dt <= sigma_new * eps + 1e-10


def test_steady_state_matches_serial_expression():
    elements = [Dashpot(1.5), PowerLaw(1.0, 3.0)]
    m = MaxwellModel(2.0, elements)
    eps = 0.7
    e = 0.0
    dt = 0.01
    for _ in range(100_000):
        e_new = step(m, e, eps, dt)
        if abs(e_new - e) / dt < 1e-10:
            e = e_new
            break
        e = e_new
    sigma_ss = m.E * e
    expr = Serial([Leaf(p) for p in elements])
    sigma_rig = stress_of_strain_rate(expr, eps).midpoint
    assert sigma_ss == pytest.approx(sigma_rig, rel=1e-6)


def test_piecewise_drive_and_partial_final_step():
    m = MaxwellModel(1.0, [Dashpot(1.0)])
    drive = DriveProgram([(0.5, 1.0), (1.0, 0.0)])
    ts = simulate(m, drive, 0.04, 0.9)
    assert ts.t[-1] == pytest.approx(0.9)
    assert ts.eps[0] == 1.0
    assert ts.eps[-1] == 0.0
    # loading then relaxing
    k = int(np.argmax(ts.sigma))
    assert 0 < k < len(ts) - 1


def step_explicit(model, e_el, eps, dt):
    """Forward-Euler step, a cross-check of :func:`step` at small dt only.

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


def test_explicit_euler_cross_check():
    # both schemes converge to the same trajectory as dt -> 0
    m = MaxwellModel(1.0, [Dashpot(1.0), Huber(0.8, 2.0)])
    dt = 1e-5
    e_imp = e_exp = 0.3
    for _ in range(1000):
        e_imp = step(m, e_imp, 0.4, dt)
        e_exp = step_explicit(m, e_exp, 0.4, dt)
    assert e_imp == pytest.approx(e_exp, abs=5e-5)
    # the explicit clamp keeps stresses admissible too
    my = MaxwellModel(1.0, [Huber(1.0, 1.0)])
    e = 0.0
    for _ in range(3000):
        e = step_explicit(my, e, 1.0, 1e-3)
        assert abs(my.E * e) <= 1.0 + 1e-12


def test_timeseries_validation():
    with pytest.raises(InvalidInputError):
        TimeSeries(
            t=np.array([0.0, 0.0]),
            eps=np.zeros(2),
            e_el=np.zeros(2),
            sigma=np.zeros(2),
        )
    with pytest.raises(InvalidInputError):
        TimeSeries(t=np.array([0.0, 1.0]), eps=np.zeros(3), e_el=np.zeros(2), sigma=np.zeros(2))


def test_timeseries_columns_are_read_only_arrays_built_on_demand():
    m = MaxwellModel(3.0, [Dashpot(1.0), PowerLaw(1.0, 3.0), PerfectPlastic(0.5)])
    ts = simulate(m, DriveProgram([(0.5, 1.0), (1.0, -1.0)]), 0.03, 1.0)
    assert len(ts) == 35 and all(type(c) is list and len(c) == 35 for c in ts.columns)
    for name, col in zip(("t", "eps", "e_el", "sigma"), ts.columns):
        a = getattr(ts, name)
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.tolist() == col
        assert getattr(ts, name) is a
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert np.array_equal(ts.sigma.view(np.int64), (m.E * ts.e_el).view(np.int64))
    # from lists or arrays, the same two errors; a caller's array is copied, not frozen
    for wrap in (list, np.array):
        with pytest.raises(InvalidInputError, match="equal length"):
            TimeSeries(wrap([0.0, 1.0]), wrap([0.0] * 3), wrap([0.0] * 2), wrap([0.0] * 2))
        for t in ([0.0, 0.0], [1.0, 0.5], [0.0, math.nan]):
            with pytest.raises(InvalidInputError, match="strictly increasing"):
                TimeSeries(wrap(t), wrap([0.0] * 2), wrap([0.0] * 2), wrap([0.0] * 2))
    e_el = np.array([0.5, 0.25])
    ts = TimeSeries(t=np.array([0.0, 1.0]), eps=[0, 0], e_el=e_el, sigma=2.0 * e_el)
    assert ts.e_el.tolist() == [0.5, 0.25] and ts.e_el is not e_el and e_el.flags.writeable
    assert ts.eps.dtype == np.float64 and len(ts) == 2


@pytest.mark.parametrize("sig_scale, rate_scale", [(1.0, 1.0), (1e6, 1e-5), (1e8, 1e-15)])
def test_step_is_the_tree_stress_of_a_spring_turned_dashpot(sig_scale, rate_scale):
    """Backward Euler turns the spring into a dashpot of viscosity E dt.

    So ``E * step`` is the stress of ``Serial[Dashpot(E dt), elements]`` at
    the rate ``|trial| / dt``, signed like the trial: the scalar and the
    array form of the tree solves' root finder must agree, to 1e-13
    relative plus a margin of 1e-15 |trial| in strain (the step's own stop
    is a bracket 1e-15 of its answer wide).
    """
    S, R = sig_scale, rate_scale
    mixes = [
        [Dashpot(S / R)],
        [PowerLaw(S / R ** (1 / 3), 3.0)],
        [Dashpot(2 * S / R), PowerLaw(S / R**0.5, 2.0)],
        [Huber(0.8 * S, S / R)],
        [PerfectPlastic(0.8 * S)],
        [Dashpot(S / R), PerfectPlastic(1.2 * S)],
        [Dashpot(3 * S / R), PowerLaw(S / R ** (1 / 3), 3.0), Huber(0.9 * S, 2 * S / R)],
    ]
    rng = np.random.default_rng(7)
    for elements in mixes:
        E = 30.0 * S
        m = MaxwellModel(E, elements)
        for _ in range(40):
            e_el = rng.uniform(-3.0, 3.0) * S / E
            eps = rng.uniform(-3.0, 3.0) * R
            dt = 10.0 ** rng.uniform(-3.0, 1.0) / R
            trial = e_el + dt * eps
            tree = Serial([Leaf(Dashpot(E * dt))] + [Leaf(p) for p in elements])
            sig = math.copysign(stress_of_strain_rate(tree, abs(trial) / dt).hi, trial)
            tol = 1e-13 * abs(sig) + 1e-15 * E * abs(trial)
            assert abs(E * step(m, e_el, eps, dt) - sig) <= tol


def _reference_step(m, e_el, eps, dt):
    """The backward-Euler step on the per-element flows, summed element by element."""
    trial = e_el + dt * eps
    t, E = abs(trial), m.E

    def residual(s):
        sig, f, d = np.float64(s), 0.0, 0.0
        for p in m.elements:
            _, hi, slope = p.flow(sig)
            f, d = f + float(hi), d + float(slope)
        return s / E - t + dt * f, 1.0 / E + dt * d

    cap = min(p.stress_sup() for p in m.elements)
    with np.errstate(all="ignore"):
        x = min(_root_scalar(residual, t, min(E * t, cap), 1e-15) / E, t)
    return x if trial >= 0 else -x


def test_step_on_merged_polyline_elements():
    """Dashpot, plastic and Huber elements step as one merged graph."""
    rng = np.random.default_rng(83)
    for elements in ([Dashpot(2.0), Huber(0.6, 1.5), PowerLaw(1.3, 3.5)],
                     [Dashpot(0.7), PowerLaw(0.9, 1.5), PerfectPlastic(0.5)]):
        m = MaxwellModel(10.0, elements)
        assert len(m._parts) == 2 and m._sup == min(p.stress_sup() for p in elements)
        for _ in range(300):
            e_el, eps = rng.uniform(-0.1, 0.1), rng.uniform(-3.0, 3.0)
            dt = 10.0 ** rng.uniform(-3.0, 1.0)
            x, ref = step(m, e_el, eps, dt), _reference_step(m, e_el, eps, dt)
            assert abs(x - ref) <= 1e-14 * abs(ref)
        # past the cap the stress stops exactly there, after at most two evaluations
        for eps in (100.0, -100.0):
            with _flow_evaluations(m) as evaluations:
                assert step(m, 0.0, eps, 0.1) == math.copysign(m._sup / m.E, eps)
            assert evaluations() <= 2


def test_model_flow_is_a_serial_nodes_flow():
    """A model's flow is the Serial node of its elements, bit for bit, and has its stress
    supremum: at stresses over 1e+-300, at the merged graph's vertices and past the cap.
    Plastic elements alone make no Serial node, but a model whose step stops at the cap."""
    rng = np.random.default_rng(89)
    wide = (10.0 ** rng.uniform(-300, 300, 200)).tolist()
    for elements in ([Dashpot(2.0), Huber(0.6, 1.5), PowerLaw(1.3, 3.5), PowerLaw(0.4, 1.5)],
                     [Dashpot(0.7), PowerLaw(0.9, 1.5), PerfectPlastic(0.5)],
                     [PowerLaw(1e-30, 40.0)], [Dashpot(9.42e20), PerfectPlastic(4.94e6)],
                     [Huber(4.94e6, 1.1e21), PowerLaw(2.5e16, 0.3), Huber(1e-100, 1e150)]):
        m, node = MaxwellModel(1.0, elements), Serial([Leaf(p) for p in elements])
        assert m._sup == node._sup
        sup = m._sup
        vertices = [x for c in m._parts if c.p._graph for x, *_ in c.p._graph.T.pieces]
        past = [math.nextafter(sup, math.inf), 2.0 * sup, 1.7976931348623157e308]
        for s in [0.0, *vertices, *wide, *(past if sup < math.inf else [])]:
            got, want = m._float_flow(s), node._float_flow(s)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (elements, s)
    plastic = [PerfectPlastic(0.5), PerfectPlastic(2.0)]
    with pytest.raises(InvalidInputError):
        Serial([Leaf(p) for p in plastic])
    m = MaxwellModel(3.0, plastic)
    for eps in (100.0, -100.0):
        assert step(m, 0.0, eps, 0.1) == math.copysign(0.5 / 3.0, eps)


def test_step_and_simulate_raise_nothing_under_any_error_state():
    """The float kernels give +inf on overflow: a law of exponent 40 at dt = 1e300
    and at geoscale steps with every floating-point error raising."""
    steep = MaxwellModel(1.0, [PowerLaw(1.0, 40.0), Dashpot(1.0)])
    E, cap = 4.84e10, 4.94e6
    geo = MaxwellModel(E, [Dashpot(9.42e20), PowerLaw(1.98e16, 40.0), PerfectPlastic(cap)])
    states = ((1.0, 0.0), (0.0, 1.0), (-1e300, 0.0), (1e-300, -1.0))
    with np.errstate(all="raise"):
        xs = [step(steep, e_el, eps, 1e300) for e_el, eps in states]
        xg = [step(geo, cap / E * e_el, 1e-11 * eps, 1e300) for e_el, eps in states]
        ts = simulate(steep, DriveProgram([(3e300, 1.0), (6e300, -1.0)]), 1e300, 6e300)
        tg = simulate(geo, DriveProgram([(3e13, 1e-14), (6e13, -1e-14)]), 1.2e11, 6e13)
    for x, (e_el, eps) in zip(xs, states):
        assert _straddles(steep, abs(x), abs(e_el + 1e300 * eps), 1e300)
    assert all(abs(x) <= cap / E for x in xg)
    assert len(ts) == 7 and len(tg) == 501
    assert np.all(np.isfinite(ts.sigma)) and np.max(np.abs(tg.sigma)) <= cap


# SHA-256 of the ``rheokit simulate`` CSV of the four element mixes of the
# maxwell-long benchmark at unit and geo scale, 500 steps each.  The CSV
# prints 17 significant digits, so any change of a step's answer shows.
# Re-pinned when each step of ``simulate`` began to continue from the last
# point the step before read: 117 to 467 of the 501 rows moved, every row
# checked to straddle its own backward-Euler root from the row before, by at
# most 3.6e-15 (n = 2.5), 3.1e-15 (3.5), 2.7e-15 (4.5) and 1.7e-15 (1.5) of
# max |sigma|, over both scales.  The unit-scale pins were re-pinned when row k
# came to be at ``k * dt`` and the last row at ``t_end`` exactly, not a running
# sum past it: 484 of the 501 times moved, by at most 6.6e-15 relative, and the
# last row now reads the drive's last rate (-1.2, not 0) and steps on it.
_MIXES = ((2.5, ("dashpot", "powerlaw", "huber")), (3.5, ("powerlaw", "huber", "dashpot")),
          (4.5, ("dashpot", "powerlaw", "huber")), (1.5, ("dashpot", "powerlaw", "plastic")))
_SCALES = {"unit": (1.0, 1.0, 1.0), "geo": (1e7, 1e-14, 3e-4)}  # stress, rate, strain
_GOLDEN = {
    (2.5, "unit"): "d76879f66e7ba015cc397ca55fb45f5fc52741f290d0e8de9424d4f7dbd25455",
    (2.5, "geo"): "b23b81af8f469cdac96d5012cfcf36ad9c4231e706fd6d65740e0dc9ea07bb53",
    (3.5, "unit"): "c202bca2f1bf38f281165285f4f3fea59770057e65849543aee18bebd478bacf",
    (3.5, "geo"): "c58e65f43857515e2e8012b453d76d91e2a3730e84b3f925f49624aca50f9d12",
    (4.5, "unit"): "6f25dcde5e38ce0824cb54cd91f28b0e5c31cf551540bc02a1c9d619ecb7a64a",
    (4.5, "geo"): "4b89fe7d127205946905c5d1d1f1d3b2fd48fe134cbd6049984509f91541c5e7",
    (1.5, "unit"): "f4088ae1946cf807fac661f7a71d9bcee125acaeb38d73f1ffb90e0df59d06de",
    (1.5, "geo"): "6d14c6155d21678df23f2ba84c8d700eeb83c39286a2b75e7eebb1868ab5a8b0",
}


def _simulate_argv(tmp_path, n, kinds, scale):
    """The ``simulate`` arguments of one mix, its model written to ``tmp_path``.

    Load, hold and reverse: E = S / X, elements of order one in the scales."""
    S, R, X = _SCALES[scale]
    laws = {"dashpot": {"kind": "dashpot", "D": 1.3 * S / R},
            "powerlaw": {"kind": "powerlaw", "D": 0.7 * S / R ** (1.0 / n), "n": n},
            "huber": {"kind": "huber", "sigma_a": 0.6 * S, "D": 1.6 * S / R},
            "plastic": {"kind": "plastic", "sigma_a": 0.45 * S}}
    tau, rate = X / R, 1.2 * R
    doc = {"E": S / X, "elements": [laws[k] for k in kinds],
           "drive": [{"t_end": 1.5 * tau, "eps": rate}, {"t_end": 2.3 * tau, "eps": 0.0},
                     {"t_end": 3.7 * tau, "eps": -rate}], "e_el0": 0.0}
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    t_end = 3.7 * tau
    argv = ["simulate", "--model", str(model), "--dt", repr(t_end / 500), "--t-end", repr(t_end)]
    return argv + ["--out", str(out)]


def _simulate_csv(tmp_path, n, kinds, scale):
    argv = _simulate_argv(tmp_path, n, kinds, scale)
    assert cli.main(argv) == 0
    return (tmp_path / "out.csv").read_bytes()


@pytest.mark.parametrize("scale", sorted(_SCALES))
@pytest.mark.parametrize("n, kinds", _MIXES)
def test_simulate_csv_is_pinned(tmp_path, n, kinds, scale):
    csv = _simulate_csv(tmp_path, n, kinds, scale)
    assert csv.count(b"\n") == 502
    assert hashlib.sha256(csv).hexdigest() == _GOLDEN[n, scale]


# Run in a fresh interpreter, where numpy is not loaded yet: calls
# ``rheokit.cli.main`` on each argv list and prints, for each, how many scalar root
# brackets it bisected and which of the named modules (by default numpy, dataclasses
# and the inspect it loads) are loaded after it.
_NO_NUMPY_SCRIPT = """
import json, sys
import rheokit
def loaded():
    return [name for name in json.loads(sys.argv[2]) if name in sys.modules]
assert not loaded(), loaded()
import rheokit.cli, rheokit.rheology as rheology
mid, calls = rheology._mid_scalar, [0]
def counted(lo, hi):
    calls[0] += 1
    return mid(lo, hi)
rheology._mid_scalar = counted
runs = []
for argv in json.loads(sys.argv[1]):
    calls[0] = 0
    assert rheokit.cli.main(argv) == 0, argv
    runs.append([calls[0], loaded()])
print(json.dumps(runs))
"""


def _fresh_runs(cases, names=("numpy", "dataclasses", "inspect")):
    """``[bisections, modules of names loaded]`` after each CLI case, in one fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(cases),
                           json.dumps(list(names))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_D, _P, _W = ({"node": "leaf", "potential": p} for p in (
    {"kind": "dashpot", "D": 1.0}, {"kind": "plastic", "sigma_a": 1.0},
    {"kind": "powerlaw", "D": 1.0, "n": 3.0}))


def _curve_argv(tmp_path, name, doc, samples):
    model, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    return ["curve", "--model", str(model), "--eps-min", "0", "--eps-max", "3e-14",
            "--samples", str(samples), "--out", str(out)]


def _depth2(S):
    """``Serial[Parallel[W, P], D]`` with stresses scaled by S: two nested solves."""
    return {"node": "serial", "children": [
        {"node": "parallel", "children": [
            {"node": "leaf", "potential": {"kind": "powerlaw", "D": 1.5 * S * 1e14 ** 0.4,
                                           "n": 2.5}},
            {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 0.8 * S}}]},
        {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.1 * S * 1e14}}]}


def test_simulate_and_dump_model_never_load_numpy(tmp_path):
    """``import rheokit``, ``simulate``, ``--dump-model`` and a short ``curve`` start
    and finish without numpy, which is imported on first numeric use, and without
    ``dataclasses`` and ``inspect``.  The cases: the
    maxwell-long mixes at unit and geo scale; a steep law (n = 40, dt = 1e300)
    whose steps bisect; ``curve`` and ``simulate`` with ``--dump-model``; and a
    geoscale ``curve`` of 64 rates on a tree whose solves nest two deep."""
    cases = []
    for n, kinds in _MIXES:
        for scale in _SCALES:
            (tmp_path / f"{n}-{scale}").mkdir()
            cases.append(_simulate_argv(tmp_path / f"{n}-{scale}", n, kinds, scale))
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({
        "E": 1.0, "elements": [{"kind": "powerlaw", "D": 1.0, "n": 40.0},
                               {"kind": "dashpot", "D": 1.0}],
        "drive": [{"t_end": 3e300, "eps": 1.0}, {"t_end": 6e300, "eps": -1.0}],
        "e_el0": 0.0}), encoding="utf-8")
    out, steep_case = str(tmp_path / "steep.csv"), len(cases)
    cases.append(["simulate", "--model", str(steep), "--dt", "1e300", "--t-end", "6e300",
                  "--out", out])
    leaf = tmp_path / "leaf.json"
    leaf.write_text(json.dumps({"node": "leaf", "potential": {"kind": "dashpot", "D": 2.0}}),
                    encoding="utf-8")
    cases.append(["curve", "--model", str(leaf), "--dump-model", "--out", out])
    cases.append(["simulate", "--model", str(steep), "--dump-model", "--out", out])
    cases.append(_curve_argv(tmp_path, "short", _depth2(1e7), 64))

    runs = _fresh_runs(cases)
    assert len(runs) == len(cases) == 12
    assert [loaded for _, loaded in runs] == [[]] * 12
    assert runs[steep_case][0] > 0  # the steep law's steps bisect, with no numpy scalar
    assert len((tmp_path / "short.csv").read_text().splitlines()) == 65


def test_longer_or_deeper_curves_load_numpy(tmp_path):
    """A ``curve`` of ``FLOAT_RATES`` + 1 rates on a tree whose solves nest two, three or
    four deep is evaluated as arrays, and so loads numpy; each runs in its own interpreter.
    At ``FLOAT_RATES`` rates the trees of solve depth three and four walk on floats and
    never load it."""
    depth3 = {"node": "serial", "children": [
        {"node": "parallel", "children": [
            {"node": "serial", "children": [
                {"node": "parallel", "children": [_D, _P]}, _W]}, _P, _D]}, _W]}
    depth4 = _W  # Parallel[., PowerLaw(1.5, 2), plastic(0.5)], then Serial[., PowerLaw(0.7, 4)]
    for _ in range(2):
        depth4 = {"node": "serial", "children": [
            {"node": "parallel", "children": [
                depth4, {"node": "leaf", "potential": {"kind": "powerlaw", "D": 1.5, "n": 2.0}},
                {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 0.5}}]},
            {"node": "leaf", "potential": {"kind": "powerlaw", "D": 0.7, "n": 4.0}}]}
    rates = cli.FLOAT_RATES
    walked = _fresh_runs([_curve_argv(tmp_path, f"{name}-walk", doc, rates)
                          for name, doc in (("deep", depth3), ("deeper", depth4))])
    assert [loaded for _, loaded in walked] == [[]] * 2
    for name in ("deep", "deeper"):
        assert len((tmp_path / f"{name}-walk.csv").read_text().splitlines()) == rates + 1
    for name, doc in (("long", _depth2(1e7)), ("deep", depth3), ("deeper", depth4)):
        (_, loaded), = _fresh_runs([_curve_argv(tmp_path, name, doc, rates + 1)])
        assert "numpy" in loaded, name
        assert len((tmp_path / f"{name}.csv").read_text().splitlines()) == rates + 2


def test_wide_shallow_curves_never_load_numpy(tmp_path, monkeypatch):
    """``curve`` at 10,000 rates walks a tree of solve depth 1 on floats, with a Serial
    root or a Parallel one, in a fresh interpreter that never loads numpy.  A tree of
    solve depth 2 at 10,000 rates, or of depth 1 past ``WALK_RATES``, still takes
    ``stress_curve``."""
    serial = {"node": "serial", "children": [
        _W, {"node": "parallel", "children": [_P, _D]}, _D]}
    parallel = {"node": "parallel", "children": [
        {"node": "serial", "children": [_P, _W]}, {"node": "serial", "children": [_D, _W]}, _D]}
    cases = [_curve_argv(tmp_path, name, doc, 10_000)
             for name, doc in (("serial", serial), ("parallel", parallel))]
    assert [loaded for _, loaded in _fresh_runs(cases)] == [[]] * 2
    for name in ("serial", "parallel"):
        assert len((tmp_path / f"{name}.csv").read_text().splitlines()) == 10_001
    for name, doc, samples, array in (("deep", _depth2(1e7), 10_000, True),
                                      ("walk", serial, cli.WALK_RATES, False),
                                      ("past", serial, cli.WALK_RATES + 1, True)):
        arrays = []
        monkeypatch.setattr(cli, "stress_curve", lambda *a: arrays.append(1) or stress_curve(*a))
        assert cli.main(_curve_argv(tmp_path, name, doc, samples)) == 0
        assert arrays == [1] * array, name


def test_cli_commands_load_only_the_code_they_run(tmp_path):
    """No CLI command compiles ``convex_core``'s transforms, and ``compare`` never loads
    numpy, whatever its size: the fig6 preset, a 7,000-row geoscale comparison whose
    n = 3.5 column is a tree walk, the same exponents and the fig6 ones at 16,385 rows (past
    ``WALK_RATES``), ``curve --dump-model``, a short ``curve`` and a ``simulate``, in one fresh
    interpreter."""
    geo, wide, out = tmp_path / "geo.csv", tmp_path / "wide.csv", str(tmp_path / "out.csv")
    leaf = tmp_path / "leaf.json"
    leaf.write_text(json.dumps(_D), encoding="utf-8")
    (tmp_path / "sim").mkdir()
    cases = [["compare", "--preset", "fig6", "--out", out],
             ["compare", "--d-dif", "1e21", "--d-dsl", "1e9", "--n-list", "2,3,3.5,inf",
              "--eps-min", "1e-18", "--eps-max", "1e-10", "--samples", "7000", "--out", str(geo)],
             ["compare", "--n-list", "2,3,3.5,inf", "--samples", "16385", "--out", str(wide)],
             ["compare", "--preset", "fig6", "--samples", "16385", "--out", out],
             ["curve", "--model", str(leaf), "--dump-model", "--out", out],
             _curve_argv(tmp_path, "short", _depth2(1e7), 64),
             _simulate_argv(tmp_path / "sim", *_MIXES[0], "geo")]
    runs = _fresh_runs(cases, ("numpy", "rheokit.convex_core"))
    assert [loaded for _, loaded in runs] == [[]] * len(cases)
    lines = geo.read_text().splitlines()
    assert len(lines) == 7001 and lines[0].count("n3.5") == 4
    assert len(wide.read_text().splitlines()) == 16386


@pytest.mark.parametrize("args", [(0.0, 1.0, 10**400), (0.0, "1", 0.1), (0.0, 1.0, "0.1"),
                                  (True, 1.0, 0.1), (0.0, 1.0, np.float64(np.inf))])
def test_step_takes_numbers_by_the_number_rule(args):
    """A ``step`` argument that is not a float passes the number rule: an integer past the
    float range, a str, a bool or a non-finite numpy float is an input error."""
    m = MaxwellModel(1.0, [Dashpot(1.0), PowerLaw(1.0, 3.0)])
    with pytest.raises(InvalidInputError):
        step(m, *args)
    assert step(m, 0, 1, 1) == step(m, 0.0, 1.0, 1.0)  # ints are numbers


@st.composite
def _runs(draw):
    """A model, drive and step count of a load/hold/reverse run at a unit scale of
    1e+-150 in stress and in rate: a power law of exponent 1.2 to 40 in series with
    polyline elements (a dashpot, a Huber element, a plastic cap), each of order one in
    the scales, with and without a cap."""
    def lg(lo, hi):
        return 10.0 ** draw(st.floats(lo, hi))

    S, R, X = lg(-150, 150), lg(-150, 150), lg(-4, 0)  # stress, rate, strain
    n = draw(st.floats(1.2, 40.0))
    elements = [PowerLaw(lg(-1, 1) * S / R ** (1.0 / n), n)]
    for kind in draw(st.lists(st.sampled_from(("dashpot", "huber", "plastic")), max_size=3,
                              unique=True)):
        elements.append({"dashpot": lambda: Dashpot(lg(-1, 1) * S / R),
                         "huber": lambda: Huber(lg(-1, 0) * S, lg(-1, 1) * S / R),
                         "plastic": lambda: PerfectPlastic(lg(-1, 0) * S)}[kind]())
    tau, rate = X / R, lg(-1, 1) * R
    ends = [tau * k for k in (lg(-1, 0.5), lg(-1, 0.5), lg(-1, 0.5))]
    drive = DriveProgram([(ends[0], rate), (ends[0] + ends[1], 0.0),
                          (ends[0] + ends[1] + ends[2], -rate)])
    return MaxwellModel(S / X, draw(st.permutations(elements))), drive, draw(st.integers(20, 120))


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_simulate_rows_straddle_their_own_roots(args):
    """Each step of ``simulate`` starts from the last point the step before read; every
    row is still its own backward-Euler root from the row before, to 1e-14, or the cap."""
    m, drive, steps = args
    t_end = drive.segments[-1][0]
    dt = t_end / steps
    t, eps, x, _ = simulate(m, drive, dt, t_end).columns
    n_full = math.floor(t_end / dt + 1e-12)  # then a short last step, if any
    cap = m._sup / m.E
    for k in range(1, len(t)):
        h = dt if k <= n_full else t_end - n_full * dt
        trial = x[k - 1] + h * eps[k]
        assert abs(x[k]) <= min(abs(trial), cap)
        assert x[k] == 0.0 or (x[k] > 0) == (trial > 0)
        # a root below the normal floats, in strain or stress, only has to be bounded
        tiny = np.finfo(float).tiny * max(1.0, 1.0 / m.E)
        assert (abs(x[k]) == cap or _straddles(m, abs(x[k]), abs(trial), h) or trial == 0.0
                or abs(x[k]) <= tiny <= abs(trial) and _residual(m, tiny, abs(trial), h) >= 0), k


def test_simulate_steps_cost_at_most_3_2_flow_evaluations():
    """The maxwell-long mixes at 500 steps take at most 3.2 flow evaluations per step on
    average at either scale (4.2 when every step started at the cap)."""
    for scale in _SCALES:
        counts = []
        for n, kinds in _MIXES:
            S, R, X = _SCALES[scale]
            m = MaxwellModel(S / X, [{"dashpot": Dashpot(1.3 * S / R),
                                      "powerlaw": PowerLaw(0.7 * S / R ** (1.0 / n), n),
                                      "huber": Huber(0.6 * S, 1.6 * S / R),
                                      "plastic": PerfectPlastic(0.45 * S)}[k] for k in kinds])
            tau, rate = X / R, 1.2 * R
            drive = DriveProgram([(1.5 * tau, rate), (2.3 * tau, 0.0), (3.7 * tau, -rate)])
            with _flow_evaluations(m) as evaluations:
                assert len(simulate(m, drive, 3.7 * tau / 500, 3.7 * tau)) == 501
            counts.append(evaluations() / 500)
        assert sum(counts) / len(counts) <= 3.2, (scale, counts)


def test_step_keeps_no_history():
    """``step`` on a model starts at the cap each time: the same arguments give the same
    bits before and after a ``simulate`` of the same model."""
    m = MaxwellModel(2.0, [Dashpot(1.0), PowerLaw(1.0, 3.0), Huber(0.8, 1.5)])
    args = [(0.0, 1.0, 0.03), (0.3, -1.0, 0.01), (-0.2, 0.0, 0.5), (0.1, 2.0, 1e-6)]
    before = [step(m, *a) for a in args]
    simulate(m, DriveProgram([(0.5, 1.0), (0.8, 0.0), (1.3, -1.0)]), 0.01, 1.3)
    assert [step(m, *a) for a in args] == before
    assert [step(MaxwellModel(2.0, m.elements), *a) for a in args] == before


def test_simulate_reads_the_drive_at_each_step_end():
    """The rate column is ``DriveProgram.rate_at`` at each row's time, a time exactly on
    a segment end included, and 0 past the last segment."""
    drive = DriveProgram([(0.5, 1.0), (0.75, 0.0), (1.0, -2.0)])
    m = MaxwellModel(2.0, [Dashpot(1.0)])
    for dt, t_end in ((0.25, 1.5), (0.125, 1.0), (0.1, 1.23), (0.3, 0.6)):
        ts = simulate(m, drive, dt, t_end)
        t, eps = ts.columns[:2]
        assert eps == [drive.rate_at(x) for x in t]
    assert simulate(m, drive, 0.25, 1.5).columns[1] == [1.0, 1.0, 1.0, 0.0, -2.0, 0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(1, 400), st.sampled_from((1.0, 1.0, 0.97, 1.013)))
def test_simulate_rows_are_at_k_dt_and_the_last_at_t_end(t_end, steps, stretch):
    """Row k is at ``k * dt`` and the last row at ``t_end`` exactly, where a running sum of
    the steps overshoots about half the time; so the last row reads the rate of a drive
    that ends at ``t_end``, not the 0 past it.  Step lengths are ``dt`` and a short last
    step, as before."""
    drive = DriveProgram([(0.4 * t_end, 1.2), (0.6 * t_end, 0.0), (t_end, -1.2)])
    dt = t_end / steps * stretch
    assume(dt <= t_end)
    t, eps, _, _ = simulate(MaxwellModel(1.0, [Dashpot(1.3), PowerLaw(0.7, 2.5)]),
                            drive, dt, t_end).columns
    assert t[:-1] == [k * dt for k in range(len(t) - 1)]
    assert t[-1] == t_end and eps[-1] == drive.rate_at(t_end) == -1.2
    assert stretch != 1.0 or len(t) == steps + 1


def test_simulate_rows_are_python_floats_for_any_number_type():
    """Integer and numpy ``dt`` and ``t_end`` give rows of Python floats, as floats do."""
    m = MaxwellModel(1.0, [Dashpot(1.0)])
    for dt, t_end in ((1, 5), (np.float64(0.5), 2), (0.5, np.float64(2.0))):
        ts = simulate(m, DriveProgram([(5, 1)]), dt, t_end)
        assert {type(x) for column in ts.columns for x in column} == {float}
        assert ts.columns[0] == [k * float(dt) for k in range(len(ts))]


@pytest.mark.parametrize("segments, dt, t_end, e_el0", [
    ([(0.3, 1.0), (0.5, -0.0), (0.7, 0.0), (1.0, -2.0)], 0.05, 1.0, 0.0),  # -0 next to 0
    ([(0.5, 1.0), (0.75, 0.0), (1.0, -2.0)], 0.125, 1.0, 0.0),  # rows on segment ends
    ([(0.5, 1.0), (1.2, -0.5)], 0.1, 1.23, 0.0),  # a short last step past the drive
    ([(0.3, -0.0), (0.6, 2.0)], 0.0074, 1.5, 0.2),  # past the last segment, e_el0 != 0
    ([(10.0, 0.7)], 0.01, 0.5, -0.1),  # one segment, longer than the run
])
def test_simulate_csv_is_the_generic_writers_bytes(tmp_path, segments, dt, t_end, e_el0):
    """``rheokit simulate`` writes its rate column as one run per drive segment; its bytes
    are ``_csv`` of the ``simulate`` columns, the sign of a -0 rate included."""
    doc = {"E": 2.0, "elements": [{"kind": "dashpot", "D": 1.0},
                                  {"kind": "powerlaw", "D": 1.0, "n": 3.0},
                                  {"kind": "plastic", "sigma_a": 0.6}],
           "drive": [{"t_end": a, "eps": b} for a, b in segments], "e_el0": e_el0}
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["simulate", "--model", str(model), "--dt", repr(dt), "--t-end", repr(t_end)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    m, drive, x0 = parse_simulation(doc)
    ts = simulate(m, drive, dt, t_end, x0)
    text = out.read_text(encoding="utf-8")
    assert text == cli._csv(["t", "eps", "e_el", "sigma"], ts.columns)
    rates = [row.split(",")[1] for row in text.splitlines()[1:]]
    assert rates == ["%.17g" % e for e in ts.columns[1]]
    assert {"%.17g" % b for _, b in segments if b == 0} <= set(rates)  # "-0" and "0" alike


def test_a_simulate_leaves_no_reference_cycle_and_step_keeps_its_bits():
    """A run's step closes over cells, not over the run, so ``simulate`` leaves nothing for
    the cycle collector; ``step`` on a model, which runs on a fresh run each call, gives
    the bits it gave when it evaluated on the model itself."""
    m = MaxwellModel(2.0, [Dashpot(1.0), PowerLaw(1.0, 3.0), Huber(0.8, 1.5)])
    drive = DriveProgram([(0.5, 1.0), (0.8, 0.0), (1.3, -1.0)])
    gc.collect()
    gc.disable()
    try:
        simulate(m, drive, 0.01, 1.3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    args = [(0.0, 1.0, 0.03), (0.3, -1.0, 0.01), (-0.2, 0.0, 0.5), (0.1, 2.0, 1e-6)]
    assert [step(m, *a).hex() for a in args] == [
        "0x1.bec38defb1b79p-6", "0x1.1da8da90f499cp-2", "-0x1.30abe5f919134p-4",
        "0x1.999b56d7e5eafp-4"]
