import math

import numpy as np
import pytest

import rheokit.convex_core as cc
from rheokit.errors import InvalidInputError
from rheokit.potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    casson_stress,
    conjugate_analytic,
    dvalue,
    overstress_flow,
    papanastasiou_stress,
    sample_potential,
    value,
)

CATALOG = [
    Dashpot(1.7),
    PerfectPlastic(1.3),
    PowerLaw(1.2, 3.0),
    PowerLaw(0.8, 0.5),
    Huber(1.5, 2.0),
    QuadPlusBall(0.9, 1.1),
]


def test_moduli_validation():
    with pytest.raises(InvalidInputError):
        Dashpot(0.0)
    with pytest.raises(InvalidInputError):
        PowerLaw(1.0, -2.0)
    with pytest.raises(InvalidInputError):
        QuadPlusBall(-0.1, 1.0)
    QuadPlusBall(0.0, 1.0)  # indicator variant is allowed


def test_values_closed_forms():
    assert value(Huber(1.0, 1.0), 0.5) == pytest.approx(0.125)
    assert value(Huber(1.0, 1.0), 2.0) == pytest.approx(1.5)
    assert value(PowerLaw(1.0, 3.0), 1.0) == pytest.approx(0.75)
    assert value(Dashpot(2.0), 3.0) == pytest.approx(9.0)
    assert value(PerfectPlastic(2.5), 2.0) == pytest.approx(5.0)
    for p in CATALOG:
        assert value(p, 0.0) == 0.0
    assert math.isinf(value(QuadPlusBall(1.0, 1.0), 1.5))
    assert value(QuadPlusBall(1.0, 1.0), 1.0) == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        value(Dashpot(1.0), -0.5)


def test_dvalue_intervals():
    assert dvalue(Dashpot(2.0), 3.0).lo == pytest.approx(6.0)
    iv = dvalue(PerfectPlastic(1.0), 0.0)
    assert (iv.lo, iv.hi) == (0.0, 1.0)
    assert dvalue(Huber(1.0, 1.0), 2.0).hi == pytest.approx(1.0)
    assert dvalue(PowerLaw(2.0, 2.0), 4.0).lo == pytest.approx(4.0)
    boundary = dvalue(QuadPlusBall(1.0, 1.0), 1.0)
    assert boundary.lo == pytest.approx(1.0)
    assert math.isinf(boundary.hi)
    assert math.isinf(dvalue(QuadPlusBall(1.0, 1.0), 2.0).lo)


def test_dvalue_monotone_in_rate():
    rs = np.linspace(0.0, 3.0, 301)
    for p in CATALOG:
        prev = -math.inf
        for r in rs:
            iv = dvalue(p, float(r))
            assert iv.lo >= prev - 1e-12
            prev = min(iv.hi, 1e300) if math.isinf(iv.hi) else iv.hi
            if math.isinf(iv.lo):
                break


def test_conjugate_analytic_mappings():
    c = conjugate_analytic(PowerLaw(2.0, 1.0))
    assert isinstance(c, PowerLaw)
    # quadratic with coefficient 1/(2*2)
    assert value(c, 2.0) == pytest.approx(4.0 / 4.0)
    assert conjugate_analytic(Huber(1.0, 1.0)) == QuadPlusBall(1.0, 1.0)
    ind = conjugate_analytic(PerfectPlastic(1.0))
    assert value(ind, 1.0) == 0.0
    assert math.isinf(value(ind, 1.0 + 1e-9))
    assert conjugate_analytic(Dashpot(4.0)) == Dashpot(0.25)


def test_closed_form_biconjugation():
    rs = np.linspace(0.0, 3.0, 61)
    for p in CATALOG:
        pss = conjugate_analytic(conjugate_analytic(p))
        a = value(p, rs)
        b = value(pss, rs)
        fin = np.isfinite(a)
        assert np.array_equal(fin, np.isfinite(b))
        scale = max(1.0, float(np.max(np.abs(a[fin]))))
        assert np.max(np.abs(a[fin] - b[fin])) <= 1e-10 * scale


def test_conjugate_matches_numeric_transform():
    # analytic conjugates agree with the sampled transform at its dual
    # points up to grid error (the transform conjugates the restriction,
    # which sits at most curvature * h^2 / 8 below the true conjugate)
    grid = np.linspace(0.0, 4.0, 801)
    h = grid[1] - grid[0]
    for p in CATALOG:
        f = sample_potential(p, grid)
        fstar = cc.legendre_transform(f)
        conj = conjugate_analytic(p)
        m = fstar.finite_sup
        pts = fstar.grid[:m]
        expect = value(conj, pts)
        fin = np.isfinite(expect)
        # h^(4/3) covers the power-law catalog entries, whose curvature
        # is unbounded at the origin; smooth entries sit at O(h^2)
        assert np.max(np.abs(fstar.values[:m][fin] - expect[fin])) <= h ** (4.0 / 3.0)


def test_huber_is_serial_combination(grid401):
    f = sample_potential(PerfectPlastic(1.0), grid401)
    g = sample_potential(Dashpot(1.0), grid401)
    conv = cc.inf_convolve_direct(f, g)
    h = grid401[1] - grid401[0]
    expect = value(Huber(1.0, 1.0), grid401)
    assert np.max(np.abs(conv.values - expect)) <= h**2


def test_powerlaw_inversion_round_trip():
    for n in (0.5, 1.0, 2.0, 3.0, 3.5):
        p = PowerLaw(1.7, n)
        for r in (0.3, 0.7, 1.9):
            sigma = dvalue(p, r).lo
            back = (sigma / p.D) ** p.n
            assert back == pytest.approx(r, rel=1e-12)


def test_overstress_flow():
    assert overstress_flow(1.0, 1.0, 1.0, 3.0) == pytest.approx(2.0)
    assert overstress_flow(2.0, 3.0, 1.0, 1.0) == 0.0
    assert overstress_flow(1.0, 2.0, 1.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        overstress_flow(1.0, 1.0, -1.0, 2.0)


def test_regularized_stress_laws():
    assert papanastasiou_stress(1.0, 1.0, 1.0, 3.0) == pytest.approx(4.0)
    assert casson_stress(1.0, 3.0, 1.0) == pytest.approx(2.0)
    assert papanastasiou_stress(2.0, 0.0, 2.0, 5.0) == pytest.approx(2.0)
    assert casson_stress(2.0, 0.0, 5.0) == pytest.approx(2.0)
    # continuous limit at rest
    assert papanastasiou_stress(1.5, 2.0, 3.0, 0.0) == 1.5
    assert casson_stress(1.5, 2.0, 0.0) == 1.5


def test_sampled_potential_normalized():
    grid = np.linspace(0.0, 2.0, 21)
    raw = cc.SampledFunction.from_samples(grid, grid**2 + 0.7)
    s = Sampled(raw)
    assert s.f.values[0] == 0.0
    assert value(s, 1.0) == pytest.approx(1.0)
    conj = conjugate_analytic(s)
    assert isinstance(conj, Sampled)
    assert conj.f.values[0] == 0.0


def test_flow_is_the_stress_law_of_the_conjugate():
    """Each element's flow law agrees with its conjugate's stress law at s > 0."""
    grid = cc.uniform_grid()
    sampled = Sampled(cc.SampledFunction.from_samples(grid, 0.3 * grid**2 + 0.1 * grid**3))
    for p in CATALOG + [QuadPlusBall(0.0, 1.1), sampled]:
        sup = p.stress_sup()
        s = np.geomspace(1e-3, 4.0, 400)
        s = np.sort(np.append(s, [sup] if math.isfinite(sup) else []))
        with np.errstate(divide="ignore", over="ignore"):
            flow = p.flow(s)
            stress = p.conjugate().stress(s)
        for a, b in zip(flow, stress):
            a, b = np.broadcast_to(a, s.shape), np.broadcast_to(b, s.shape)
            assert np.array_equal(np.isinf(a), np.isinf(b)), p
            fin = np.isfinite(a)
            assert np.all(np.abs(a[fin] - b[fin]) <= 1e-14 * np.abs(a[fin])), p
