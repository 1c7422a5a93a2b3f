import math

import numpy as np
import pytest

from rheokit.errors import InvalidInputError
from rheokit.maxwell0d import (
    DriveProgram,
    MaxwellModel,
    TimeSeries,
    simulate,
    step,
    step_explicit,
)
from rheokit.potentials import Dashpot, Huber, PerfectPlastic, PowerLaw
from rheokit.rheology import Leaf, Serial, stress_of_strain_rate


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


@pytest.mark.parametrize("sig_scale, rate_scale", [(1.0, 1.0), (1e6, 1e-5), (1e8, 1e-15)])
def test_step_is_the_tree_stress_of_a_spring_turned_dashpot(sig_scale, rate_scale):
    """Backward Euler turns the spring into a dashpot of viscosity E dt.

    So ``E * step`` is the stress of ``Serial[Dashpot(E dt), elements]`` at
    the rate ``|trial| / dt``, signed like the trial: the scalar step solver
    and the array tree solver must agree, to 1e-13 relative plus the step's
    own stopping width of 1e-15 |trial| in strain.
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
