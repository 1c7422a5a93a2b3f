import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rheokit.convex_core as cc
from rheokit import _graph
from rheokit.errors import InvalidInputError
from rheokit.potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    _GRAPH,
    _Law,
    casson_stress,
    conjugate_analytic,
    dvalue,
    overstress_flow,
    papanastasiou_stress,
    sample_potential,
    value,
)
from rheokit.rheology import Leaf, Parallel, Serial, _merged, stress_of_strain_rate

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


def test_value_of_an_unknown_potential_is_an_input_error():
    with pytest.raises(InvalidInputError, match=r"^unknown potential <object object at .*>$"):
        value(object(), 1.0)


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


def test_values_past_the_square_overflow():
    """Past about 1.3e154 a square overflows: Huber's value is then the finite
    closed form where it is representable and +inf past it, and a plain ball is 0
    inside, not nan; wherever ``sigma_a**2`` is finite the bits do not move."""
    assert value(Huber(1e300, 1e-10), 1e200) == math.inf
    got = value(Huber(1e160, 1e100), 1e100)  # a**2 = 1e320, the offset 5e219
    assert got == pytest.approx(1e260 - 0.5 * 1e160 * 1e60, rel=1e-15) and got < math.inf
    assert value(Huber(1e160, 1e100), 1e300) == math.inf
    assert value(QuadPlusBall(0.0, 1e300), 1e200) == 0.0
    assert value(QuadPlusBall(0.0, 1e300), [0.0, 1e200, 1e300, 2e300]).tolist() == \
        [0.0, 0.0, 0.0, math.inf]
    rng = np.random.default_rng(3)
    for a, d in (10.0 ** rng.uniform(-150, 150, size=(200, 2))).tolist():
        r = np.array([0.5, 1.0, 2.0]) * (a / d)
        with np.errstate(all="ignore"):
            want = np.where(r <= a / d, 0.5 * d * r**2, a * r - 0.5 * a**2 / d)
        assert np.array_equal(_bits(value(Huber(a, d), r)), _bits(want)), (a, d)


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


def test_dvalue_is_the_leaf_stress_bit_for_bit():
    """``dvalue`` is a one-leaf ``stress_of_strain_rate``, bit for bit, for every
    kind: moduli over 1e+-150, power-law exponents 0.1 to 40, rates over 1e+-300."""
    rng = np.random.default_rng(20261018)
    grid = np.linspace(0.0, 2.0, 101)
    sampled = Sampled(cc.SampledFunction.from_samples(grid, 0.3 * grid**2 + 0.1 * grid**3))
    for i in range(2000):
        d, a = 10.0 ** rng.uniform(-150, 150, 2)
        r = 10.0 ** rng.uniform(-300, 300)
        n = rng.uniform(0.1, 40.0)
        cases = [(PowerLaw(d, n), r)]
        if i % 10 == 0:
            cases += [(p, r) for p in (Dashpot(d), PerfectPlastic(a), Huber(a, d),
                                       QuadPlusBall(d, a), QuadPlusBall(0.0, a))]
        if i % 100 == 0:
            cases.append((sampled, rng.uniform(0.0, 2.0)))
        for p, x in cases:
            got, want = dvalue(p, x), stress_of_strain_rate(Leaf(p), x)
            assert _bits([got.lo, got.hi]).tolist() == _bits([want.lo, want.hi]).tolist(), \
                (p, x, got, want)


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


@pytest.mark.parametrize("p, message", [
    (PowerLaw(1e-110, 3), "the conjugate PowerLaw has D = 10**330,"),
    (PowerLaw(1e21, 40), "the conjugate PowerLaw has D = 10**-840,"),
    (Dashpot(1e-310), "the conjugate Dashpot has D = 10**310,"),
    (Huber(1.0, 1e-310), "the conjugate QuadPlusBall has Dinv_quad = 10**310,"),
    (QuadPlusBall(1e-310, 1.0), "the conjugate Huber has D = 10**310,"),
])
def test_unrepresentable_conjugate_moduli_are_typed_errors(p, message):
    """A valid element whose conjugate's modulus over- or underflows float64
    raises an input error naming that conjugate, not one that blames the input
    and not a bare ``OverflowError``."""
    with pytest.raises(InvalidInputError) as exc:
        p.conjugate()
    assert str(exc.value) == message + " which float64 cannot represent"


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


@pytest.mark.parametrize("law, args, expected", [
    (overstress_flow, (1.0, 3.0, 0.0, 1e200), math.inf),
    (overstress_flow, (1e300, 2.0, 0.0, 1e200), 1e100),
    (papanastasiou_stress, (1.0, 1.0, 3.0, 1e200), 1e200),
    (papanastasiou_stress, (1.0, 0.0, 3.0, 1e200), 1.0),
    (papanastasiou_stress, (1.0, 1e300, 3.0, 1e10), 1e110),
    (papanastasiou_stress, (1e-300, 1e200, 0.5, 1.0), 1e100),
    (papanastasiou_stress, (1e300, 1e300, 0.5, 1e300), math.inf),
    (casson_stress, (1e300, 1e300, 1e300), math.inf),
    (casson_stress, (1e-10, 1e300, 1e300), 1e290)])
def test_empirical_laws_past_the_float_range(law, args, expected):
    """Where a power or product of the law passes the float range, the law returns its
    value, +inf only where that value passes the float range too; in logs where it must,
    to about 1e-13 relative."""
    assert law(*args) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("args, expected", [
    ((1e-300, 3.0, 0.0, 1e-200), 1e-300), ((1e-250, 2.0, 0.0, 1e-170), 1e-90),
    ((1e200, 2.0, 0.0, 1e-200), 0.0), ((1.0, 3.0, 0.0, 1e-200), 0.0),
    ((1e-300, 3.0, 0.0, 1e-106), 1e-18)])
def test_overstress_flow_under_the_float_range(args, expected):
    """Where the power of the overstress falls under the normal floats (to 0, or to a
    subnormal with a few digits), the rate divides first, so it is 0 only where the rate
    is under the floats too."""
    assert overstress_flow(*args) == pytest.approx(expected, rel=1e-12, abs=0)


def test_power_law_past_the_float_range():
    """``PowerLaw(1e-300, 0.5)`` at rate 1e200: ``eps**2`` passes the float range and
    the stress 1e100 does not.  The float laws, ``dvalue`` and the numpy kernel on
    scalars and arrays give it, the numpy one with no warning; +inf only where the
    stress passes the float range too; the float and numpy kernels agree bit for bit
    across the hand-over."""
    p = PowerLaw(1e-300, 0.5)
    assert stress_of_strain_rate(Leaf(p), 1e200).hi == pytest.approx(1e100, rel=1e-15)
    assert dvalue(p, 1e200).lo == pytest.approx(1e100, rel=1e-15)
    with np.errstate(all="raise"):
        lo, hi, d = p.stress(np.array([1e200, 1e300, 1e-300, 0.0, np.inf]))
    assert lo.tolist() == hi.tolist()
    assert hi == pytest.approx([1e100, 1e300, 0.0, 0.0, np.inf], rel=1e-15)
    assert p._float_stress()(1e304)[0] == pytest.approx(1e308, rel=1e-15)
    assert p._float_stress()(1e305)[0] == PowerLaw(1e10, 0.5)._float_stress()(1e200)[0] == math.inf
    around = np.geomspace(1e150, 1e308, 64)
    for law in (p, PowerLaw(1e-30, 0.3), PowerLaw(2.5e16, 0.7)):
        _float_kernel_is_the_flow(law, around)


@pytest.mark.parametrize("law, side, v", [
    (PowerLaw(1e-300, 0.25), "stress", 1e110), (PowerLaw(1e-300, 0.25), "stress", 1e150),
    (PowerLaw(1e-20, 40.0), "stress", 5e-324), (PowerLaw(1e20, 0.025), "flow", 1e-300)])
def test_power_law_slope_past_the_float_range(law, side, v):
    """Where ``u**(p - 1)`` passes the float range and the slope ``c * u**(p - 1)`` does
    not, both kernels give the slope as ``p * x / v`` (x the value at v), finite and
    bit for bit alike, on a float, a 0-d array and a 1-d array."""
    p = 1.0 / law.n if side == "stress" else law.n
    x, _, slope = getattr(law, f"_float_{side}")()(v)
    assert math.isfinite(slope) and slope == pytest.approx(p * x / v, rel=1e-14, abs=0)
    on_arrays = getattr(law, side)  # on numpy's floats
    with np.errstate(all="raise"):
        for arg in (np.array(v), np.array([v, 0.0, 1.0])):
            assert _bits(on_arrays(arg)[2]).ravel()[0] == _bits(slope)


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


def test_bounded_rate_sampled_flow_reads_the_rate_bound():
    """0.5 r**2 on [0, 1], +inf beyond: past its conjugate's grid the flow is 1."""
    grid = np.linspace(0.0, 2.0, 201)
    p = Sampled(cc.SampledFunction.from_samples(
        grid, np.where(grid <= 1.0, 0.5 * grid**2, np.inf)))
    lo, hi, slope = p.flow(np.array([5.0, 1e300]))
    assert np.all(lo == 1.0) and np.all(hi == 1.0) and np.all(slope == 0.0)
    assert p.flow(np.float64(5.0))[1] == 1.0


# The closed-form kernels the four polyline kinds had before they read
# their laws from one graph; the graph kernels must reproduce them bit
# for bit.  ``sel`` keeps a scalar condition scalar, as the kernels did.
def _sel(c, x, y):
    return np.where(c, x, y) if isinstance(c, np.ndarray) else (x if c else y)


def _const(x, v):
    return np.full_like(x, v) if isinstance(x, np.ndarray) else v


def _closed_stress(p, eps):
    if isinstance(p, Dashpot):
        x = p.D * eps
        return x, x, _const(eps, p.D)
    if isinstance(p, PerfectPlastic):
        a = p.sigma_a
        return _sel(eps > 0, a, 0.0), _const(eps, a), _sel(eps > 0, 0.0, math.inf)
    if isinstance(p, Huber):
        de = p.D * eps
        x = np.minimum(de, p.sigma_a)
        return x, x, _sel(de < p.sigma_a, p.D, 0.0)
    a, q = p.sigma_a, p.Dinv_quad
    return (_sel(eps <= a, q * eps, math.inf), _sel(eps < a, q * eps, math.inf),
            _sel(eps < a, q, math.inf))


def _closed_flow(p, sig):
    if isinstance(p, Dashpot):
        x = sig / p.D
        return x, x, _const(sig, 1.0 / p.D)
    if isinstance(p, PerfectPlastic):
        a = p.sigma_a
        hi = _sel(sig < a, 0.0, math.inf)
        return _sel(sig <= a, 0.0, math.inf), hi, hi
    if isinstance(p, Huber):
        a, x = p.sigma_a, sig / p.D
        return (_sel(sig <= a, x, math.inf), _sel(sig < a, x, math.inf),
                _sel(sig < a, 1.0 / p.D, math.inf))
    a, q = p.sigma_a, p.Dinv_quad
    if q == 0.0:
        x = _sel(sig > 0, a, 0.0)
        return x, x, _sel(sig > 0, 0.0, math.inf)
    u = sig / q
    x = np.minimum(u, a)
    return x, x, _sel(u < a, 1.0 / q, 0.0)


def _around(vertices):
    """0, each vertex, three floats either side of it, and points further off."""
    pts = [0.0]
    for v in vertices:
        for k in (-1, 1):
            x = v
            for _ in range(3):
                x = np.nextafter(x, k * np.inf)
                pts.append(x)
        pts += [v, v * (1 - 1e-9), v * (1 + 1e-9), 0.5 * v, 2.0 * v]
    return np.array([x for x in pts if x >= 0.0])


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_graph_kernels_are_the_closed_forms_bit_for_bit():
    rng = np.random.default_rng(20261018)
    cases = [Dashpot(3.0), PerfectPlastic(1.0), Huber(1.0, 49.0), Huber(1.0, 3.0),
             QuadPlusBall(0.0, 1.0), QuadPlusBall(49.0, 1.0)]
    for a, d in 10.0 ** rng.uniform(-8, 8, size=(300, 2)):
        cases += [Dashpot(d), PerfectPlastic(a), Huber(a, d), QuadPlusBall(d, a),
                  QuadPlusBall(0.0, a)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for p in cases:
            a = getattr(p, "sigma_a", 1.0)
            x = _around([a, a / p.D] if isinstance(p, Huber) else
                        [a, a * p.Dinv_quad] if isinstance(p, QuadPlusBall) else [a])
            for kernel, closed in ((p.stress, _closed_stress), (p.flow, _closed_flow)):
                got, want = kernel(x), closed(p, x)
                for g, w in zip(got, want):
                    assert np.array_equal(_bits(g), _bits(w)), (p, kernel.__name__)
                for xi in x:
                    got, want = kernel(np.float64(xi)), closed(p, np.float64(xi))
                    assert [int(_bits(g)) for g in got] == [int(_bits(w)) for w in want], \
                        (p, kernel.__name__, xi)


def test_rest_point_conventions():
    assert PerfectPlastic(2.0).stress(np.float64(0.0)) == (0.0, 2.0, math.inf)
    assert QuadPlusBall(0.0, 2.0).flow(np.float64(0.0)) == (0.0, 0.0, math.inf)
    lo, hi, slope = PerfectPlastic(2.0).stress(np.zeros(2))
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [2.0, 2.0]
    assert slope.tolist() == [math.inf, math.inf]
    lo, hi, slope = QuadPlusBall(0.0, 2.0).flow(np.array([0.0, 1.0]))
    assert lo.tolist() == [0.0, 2.0] and hi.tolist() == [0.0, 2.0]
    assert slope.tolist() == [math.inf, 0.0]


def test_polyline_kinds_read_their_laws_from_the_graph():
    for kind in (Dashpot, PerfectPlastic, Huber, QuadPlusBall, Sampled):
        own = {"stress", "flow", "_feat", "stress_sup", "_dual"} & set(vars(kind))
        assert own <= ({"_feat"} if kind is Sampled else set()), (kind.__name__, own)
    feats = {Dashpot(1.0): (True, True, True, True), PerfectPlastic(1.0): (False, False, True, False),
             Huber(1.0, 2.0): (True, False, True, False), QuadPlusBall(2.0, 1.0): (False, True, False, True),
             QuadPlusBall(0.0, 1.0): (False, False, False, True)}
    for p, feat in feats.items():
        assert tuple(p._feat()) == feat, p
    assert [p.stress_sup() for p in feats] == [math.inf, 1.0, 1.0, math.inf, math.inf]


def _shape(g):
    """Vertices and slopes of a graph: the polyline whatever the length of its directions."""
    return [(x, y, dy / dx if dx else math.inf) for x, y, dx, dy in g.pieces]


def test_conjugate_graph_is_the_transpose():
    # exact wherever the conjugate's own parameters are: a reciprocal 1/D
    # rounds, which moves a vertex a/D of the conjugate by up to one ulp
    for a, d in ((1.0, 4.0), (0.375, 0.5), (3.0, 1024.0), (1.7, 3.1), (2e-7, 6e12)):
        exact = math.frexp(d)[0] == 0.5
        for p in (Dashpot(d), PerfectPlastic(a), Huber(a, d), QuadPlusBall(d, a),
                  QuadPlusBall(0.0, a)):
            got, want = _shape(p.conjugate()._graph), _shape(p._graph.T)
            if exact or isinstance(p, (Dashpot, PerfectPlastic)) or p == QuadPlusBall(0.0, a):
                assert got == want, p
            else:
                assert [s for *_, s in got] == [s for *_, s in want], p
                assert np.allclose(got, want, rtol=2.3e-16, atol=0), p


def _float_kernel_is_the_flow(p, points):
    """At each point the float kernels return Python floats, bit for bit the numpy
    kernels' on the 0-d array, ``p.flow(np.array(s))`` and ``p.stress(np.array(s))``,
    and raise nothing under any error state."""
    for kernel, law in ((p._float_flow(), p.flow), (p._float_stress(), p.stress)):
        for s in points:
            with np.errstate(all="ignore"):
                want = law(np.array(s))
            with np.errstate(all="raise"):
                got = kernel(float(s))
            assert all(type(g) is float for g in got), (p, law, s, got)
            assert [int(_bits(g)) for g in got] == [int(_bits(w)) for w in want], \
                (p, law, s, got, want)


def _kernel_cases():
    """``(kind, points)``: the merged graphs around their vertices, power laws of exponent 0.3
    to 40, and sampled potentials with and without a +inf tail, each also log-uniform over
    1e+-300."""
    rng = np.random.default_rng(20261020)
    wide = np.concatenate((10.0 ** rng.uniform(-300, 300, 300), [5e-324, 1.7976931348623157e308]))
    polylines = [Dashpot(3.0), PerfectPlastic(1.0), Huber(1.0, 49.0), QuadPlusBall(0.0, 1.0),
                 QuadPlusBall(49.0, 1.0), Dashpot(9.42e20), Huber(4.94e6, 1.1e21)]
    laws = [Dashpot(2.0), Huber(0.6, 1.5), PerfectPlastic(0.9)]
    for serial in (True, False):  # a merged graph, in series and in parallel
        (merged,) = _merged(tuple(Leaf(p) for p in laws), serial=serial)
        polylines.append(merged.p)
    cases = []
    for p in polylines:
        vertices = [x for x, *_ in p._graph.T.pieces] + [x for x, *_ in p._graph.pieces]
        cases.append((p, np.concatenate((_around(vertices), wide))))
    exponents = np.geomspace(0.3, 40.0, 13).tolist() + [1.0, 2.0, 3.0]
    powers = [PowerLaw(2, 3)] + [PowerLaw(d, n) for n in exponents for d in (1e-30, 1.0, 2.5e16)]
    cases += [(p, np.concatenate((_around([p.D, 1.0]), wide))) for p in powers]
    grid = np.linspace(0.0, 2.0, 101)
    for values in (0.3 * grid**2 + 0.1 * grid**3, np.where(grid <= 1.0, 0.5 * grid**2, np.inf)):
        p = Sampled(cc.SampledFunction.from_samples(grid, values))
        grids = np.concatenate((p.conjugate().f.grid, grid))
        cases.append((p, np.concatenate((_around(grids), wide))))
    return cases


def test_float_kernels_are_the_numpy_kernels_bit_for_bit():
    """Every kind at 0, at each vertex of its flow and of its stress law and three
    floats either side, and log-uniform over 1e+-300, on 0-d arrays."""
    for p, points in _kernel_cases():
        _float_kernel_is_the_flow(p, points)


def test_float_kernels_against_the_numpy_kernels_on_1d_arrays():
    """On one 1-d array of the same points, every kind but the power law gives the float
    kernels' bits, and a power law is within 4 ulps of them: numpy's ``**`` on a 1-d array
    may round otherwise than C ``pow``, which the float kernels and 0-d arrays call (up to 2
    ulps at about 5 % of points on x86-64 with AVX-512 and numpy 2.4)."""
    for p, points in _kernel_cases():
        ulps = 4 if isinstance(p, PowerLaw) else 0
        for kernel, law in ((p._float_flow(), p.flow), (p._float_stress(), p.stress)):
            with np.errstate(all="ignore"):
                want = law(points)
            got = np.array([kernel(float(s)) for s in points]).T
            for g, w in zip(got, want):
                assert np.all(np.abs(_bits(g) - _bits(w)) <= ulps), (p, law)


def test_stress_and_flow_at_a_number_are_the_array_call():
    """``stress`` and ``flow``, one dispatch for every kind: at a number that is not an array,
    a Python float or int, a bool or a numpy scalar, they return Python floats, bit for bit the
    same call on a 0-d array, at 0, around each kind's vertices and far off.  The graph
    kinds, a merged graph, a power law and sampled potentials with and without a +inf tail."""
    (merged,) = _merged((Leaf(Dashpot(2.0)), Leaf(Huber(0.6, 1.5)), Leaf(PerfectPlastic(0.9))),
                        serial=True)
    grid = np.linspace(0.0, 2.0, 33)
    kinds = [Dashpot(1.3), PerfectPlastic(0.9), PowerLaw(0.8, 3.5), Huber(0.6, 1.5),
             QuadPlusBall(2.0, 1.0), QuadPlusBall(0.0, 1.0), merged.p] + [
        Sampled(cc.SampledFunction.from_samples(grid, v))
        for v in (0.5 * grid**2, np.where(grid <= 1.0, 0.5 * grid**2, np.inf))]
    xs = np.concatenate((_around([0.4, 0.6, 0.9, 1.0, 2.0]), [1e-300, 1e300]))
    for p in kinds:
        for law in (p.stress, p.flow):
            for x in xs:
                with np.errstate(all="ignore"):
                    want = law(np.array(x))
                got = law(float(x))
                assert all(type(g) is float for g in got), (p, law, x, got)
                assert [g.hex() for g in got] == [float(w).hex() for w in want], (p, law, x)
            for x in (0, 3, True, np.int64(2), np.float32(0.75), np.float64(0.4)):
                got, want = law(x), law(np.array(float(x)))
                assert all(type(g) is float for g in got), (p, law, x, got)
                assert [g.hex() for g in got] == [float(w).hex() for w in want], (p, law, x)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.3, 40.0), st.floats(-50.0, 50.0), st.floats(-300.0, 300.0))
def test_power_law_float_kernel_over_hundreds_of_decades(n, log_d, log_s):
    _float_kernel_is_the_flow(PowerLaw(10.0**log_d, n), [10.0**log_s])


def _staircases():
    """Sampled potentials: 0.3 r**2 + 0.1 r**3 at 17, 101 and 2,048 samples on [0, 10], with
    and without a +inf tail past 6; point supports, +inf past 0 and on a one-point grid; data
    flat at rest, then with equal slopes."""
    out = []
    for n in (17, 101, 2048):
        grid = np.linspace(0.0, 10.0, n)
        values = 0.3 * grid**2 + 0.1 * grid**3
        out += [Sampled(cc.SampledFunction.from_samples(grid, v))
                for v in (values, np.where(grid <= 6.0, values, np.inf))]
    grid = np.linspace(0.0, 4.0, 9)
    out.append(Sampled(cc.SampledFunction.from_samples(grid, np.where(grid > 0, np.inf, 0.0))))
    out.append(Sampled(cc.SampledFunction.from_samples([0.0], [0.0])))
    flat = np.concatenate(([0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 5.0, 7.0, 9.0]))
    out.append(Sampled(cc.SampledFunction.from_samples(grid, np.cumsum(flat))))
    return out


def _suite_graphs():
    """The graphs the suite builds: each graph kind, the staircases, each staircase below 2,048
    samples merged with each polyline kind in series and in parallel, seeded random merges of two
    to five such elements, and the transposes of them all."""
    rng = np.random.default_rng(31)
    polylines = [Dashpot(3.0), PerfectPlastic(1.0), Huber(1.0, 49.0), QuadPlusBall(0.0, 1.0),
                 QuadPlusBall(49.0, 1.0), Dashpot(9.42e20), Huber(4.94e6, 1.1e21)]
    stairs = _staircases()
    kinds = polylines + stairs[:4] + stairs[6:]
    groups = [(s, p) for s in kinds[len(polylines):] for p in polylines[:5]]
    groups += [tuple(kinds[i] for i in rng.choice(len(kinds), rng.integers(2, 6)))
               for _ in range(40)]
    graphs = [p._graph for p in polylines + stairs]
    for serial in (True, False):
        for group in groups:
            (merged,) = _merged(tuple(Leaf(p) for p in group), serial=serial)
            graphs.append(merged.p._graph)
    return graphs + [g.T for g in graphs]


def test_a_graph_on_arrays_is_its_float_kernel_bit_for_bit():
    """Every graph the suite builds, on a 1-d array and on a 0-d array, against its float kernel
    (``potentials._GRAPH``): the same bits at 0, at each vertex, three floats either side of it,
    log-uniform over 1e+-300 and at +inf, at rest or not; at -0.0 the same values, as the sign of
    a zero may differ there."""
    rng = np.random.default_rng(20261031)
    wide = np.concatenate((10.0 ** rng.uniform(-300, 300, 300), [5e-324, 1.7976931348623157e308]))
    graphs = _suite_graphs()
    assert max(len(g._rows[0]) for g in graphs) > 2000 and min(len(g._rows[0]) for g in graphs) == 1
    for g in graphs:
        x = np.concatenate((_around([v for v, *_ in g.pieces]), wide, [np.inf, -0.0]))
        for rest in (False, True):
            kernel = _Law(inline=(_GRAPH, (*g._rows, rest)))
            want = np.array([kernel(v) for v in x.tolist()]).T
            with np.errstate(all="ignore"):
                got, at0 = np.array(g(x, rest)), g(x[:1].reshape(()), rest)
            assert np.array_equal(_bits(got[:, :-1]), _bits(want[:, :-1])), (g, rest)
            assert np.array_equal(got[:, -1], want[:, -1]), (g, rest)
            assert _bits(at0).tolist() == _bits(want[:, 0]).tolist(), (g, rest)


def test_sampled_stress_is_its_staircase():
    """The stress law of each staircase at its grid points and between them: the slopes either
    side of a grid point, with a slope of +inf where they differ; the last finite sample ends a
    +inf tail in a vertical ray; window-limited data keeps its last slope past the window."""
    for p in _staircases()[:6]:
        f = p.f
        m, s = f.finite_sup, f._slopes
        g = f.grid[:m]
        mid = 0.5 * (g[:-1] + g[1:])
        lo, hi, d = p.stress(mid)
        assert _bits(lo).tolist() == _bits(s).tolist() == _bits(hi).tolist() and not d.any()
        lo, hi, d = p.stress(g)
        assert lo[0] == 0.0 and _bits(lo[1:]).tolist() == _bits(s).tolist()
        assert _bits(hi[:-1]).tolist() == _bits(s).tolist() and np.all(d[:-1] == np.inf)
        past = p.stress(np.array([2.0 * g[-1], 1e300]))
        if m < f.grid.size:  # +inf past the tail, a slope of +inf on it
            assert (lo[-1], hi[-1], d[-1]) == (s[-1], np.inf, np.inf)
            assert [v.tolist() for v in past] == [[np.inf] * 2] * 3
        else:  # the last slope, the supremum, flat
            assert (lo[-1], hi[-1], d[-1]) == (s[-1], s[-1], 0.0) and s[-1] == p.stress_sup()
            assert [v.tolist() for v in past] == [[s[-1]] * 2, [s[-1]] * 2, [0.0] * 2]
        assert p.conjugate().conjugate()._graph.pieces == p._graph.pieces


def test_sampled_conjugate_stress_is_its_flow_bit_for_bit():
    """A Sampled conjugate's stress law is the transposed staircase: the flow bit for bit past
    rest, and twice conjugated the staircase again."""
    for p in _staircases():
        dual = p.conjugate()
        assert isinstance(dual._graph, _graph._Graph) and dual._graph == p._graph.T
        assert dual.conjugate()._graph.pieces == p._graph.pieces
        s = np.concatenate((_around([v for v, *_ in dual._graph.pieces]), [1e300]))
        s = s[s > 0]
        with np.errstate(all="ignore"):
            for a, b in zip(p.flow(s), dual.stress(s)):
                assert np.array_equal(_bits(a), _bits(b)), p


def _loop_staircase(f):
    """The reference staircase builder: one pass over the segment slopes, a jump and a flat
    where the slope rises past the level so far."""
    m, pieces, y = f.finite_sup, [], 0.0
    for x, s in zip(f.grid.tolist(), f._slopes.tolist()):
        if s > y:  # equal slopes, or a dip within the convexity slack, stay on the flat
            pieces += [(x, y, 0.0, 1.0), (x, s, 1.0, 0.0)]
            y = s
        elif not pieces:
            pieces.append((x, y, 1.0, 0.0))
    end = [(float(f.grid[m - 1]), y, 0.0, 1.0)] if m < f.grid.size or m == 1 else []
    return (*pieces, *end)


def _within_slack():
    """Samples of r**2 on 5 points with a dip of 1e-14 below the minimum, within its slack."""
    grid = np.linspace(0.0, 1.0, 5)
    values = grid**2
    values[1] = -1e-14
    return cc.SampledFunction.from_samples(grid, values)


def test_sampled_pieces_are_the_loop_builders():
    """``Sampled._pieces`` is ``SampledFunction._staircase``, built once from the levels, and
    tuple-equal, bit for bit, to the loop builder on every staircase of the suite and on 100
    seeded random convex samples with flats and equal slopes, with and without a +inf tail."""
    rng = np.random.default_rng(32)
    fs = [p.f for p in _staircases()] + [_within_slack()]
    for _ in range(100):
        n = int(rng.integers(2, 300))
        grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))))
        slopes = np.sort(np.round(np.maximum(rng.uniform(-0.5, 2.0, n - 1), 0.0), 1))
        values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(grid))))
        if rng.random() < 0.5:
            values[int(rng.integers(1, n)):] = np.inf
        fs.append(cc.SampledFunction.from_samples(grid, values))
    for f in fs:
        p = Sampled(f)
        want = _loop_staircase(p.f)
        assert p._pieces() is p.f._staircase is p.f._staircase and p._pieces() == want
        assert [_bits(v).tolist() for v in p._pieces()] == [_bits(v).tolist() for v in want]
        assert p.f._levels is p.f._levels


def test_subdifferential_is_the_staircase():
    """``convex_core.subdifferential`` is the stress of ``Sampled(f)``: at each grid point past
    0, three floats either side of it (snapped to it) and mid-segment; ``[-h, h]`` at 0, with
    ``h`` the upper end there.  Also on samples with a dip within the convexity slack."""
    for f in [p.f for p in _staircases()] + [_within_slack()]:
        p = Sampled(f)
        g = f.grid
        with np.errstate(all="ignore"):
            _, h, _ = p.stress(0.0)
        assert _iv(cc.subdifferential(f, 0.0)) == (-h, h)
        mid = 0.5 * (g[:-1] + g[1:])
        for x, near in [(x, _ulps(x)) for x in g[1:]] + [(x, [x]) for x in mid]:
            with np.errstate(all="ignore"):
                lo, hi, _ = p.stress(float(x))
            for y in near:
                assert _iv(cc.subdifferential(f, min(y, f.r_max))) == (lo, hi), (f, x, y)


def _ulps(x):
    """``x`` and the three floats either side of it."""
    return [float(x + k * np.spacing(x)) for k in range(-3, 4)]


def _iv(iv):
    return iv.lo, iv.hi
