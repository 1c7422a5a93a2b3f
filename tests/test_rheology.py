import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rheokit.rheology as rheology
from rheokit.errors import InvalidInputError, NonConvergenceError, UnsupportedModeError
from rheokit.convex_core import SampledFunction
from rheokit.maxwell0d import DriveProgram, MaxwellModel
from rheokit.potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    dvalue,
    value,
)
from rheokit.rheology import (
    Formula,
    Leaf,
    Parallel,
    Serial,
    ThreeElementParams,
    harmonic_mean_linear,
    map_serial_parallel_params,
    mu_eff_curve,
    mu_eff_formula,
    mu_eff_rigorous,
    serial_dif_dsl_stress,
    strain_rate_of_stress,
    stress_curve,
    stress_of_strain_rate,
    three_element_parallel_serial,
    three_element_serial_parallel,
    three_element_stress,
)

L = Leaf


def bisect_scalar(fn, target, hi=1.0):
    """Independent monotone root solve used as the test oracle."""
    while fn(hi) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Tree construction and validation
# ---------------------------------------------------------------------------


def test_serial_needs_an_unbounded_strict_child():
    Serial([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
    Serial([L(PowerLaw(1.0, 3.0)), L(PerfectPlastic(1.0))])
    # a dashpot leaf keeps a serial node well posed next to any siblings
    Serial([Parallel([L(PerfectPlastic(1.0)), L(Dashpot(1.0))]), L(Dashpot(2.0))])
    # a parallel pair of dashpots has a strict unbounded response too
    Serial([Parallel([L(Dashpot(1.0)), L(Dashpot(2.0))]), L(PerfectPlastic(1.0))])
    with pytest.raises(InvalidInputError):
        Serial([L(PerfectPlastic(1.0))])
    with pytest.raises(InvalidInputError):
        Serial([L(PerfectPlastic(1.0)), L(Huber(1.0, 1.0))])
    with pytest.raises(InvalidInputError):
        # a Bingham child does not qualify: its rate response is flat
        # below yield, so the composite inverse is not strictly increasing
        Serial([Parallel([L(PerfectPlastic(1.0)), L(Dashpot(1.0))]), L(PerfectPlastic(2.0))])
    with pytest.raises(InvalidInputError):
        Parallel([])
    # nested Serial nodes: a strict child anywhere in a Serial child qualifies it
    w, d, p = L(PowerLaw(1.0, 3.0)), L(Dashpot(1.0)), L(PerfectPlastic(1.0))
    Serial([Serial([w, d]), p])
    Serial([Parallel([Serial([w, p]), d]), L(PerfectPlastic(2.0))])
    with pytest.raises(InvalidInputError):
        # a dashpot in series with a plastic is capped at its yield stress: it does not qualify
        Serial([Serial([d, p]), L(PerfectPlastic(2.0))])


def test_input_checks():
    with pytest.raises(InvalidInputError):
        Serial([])
    for bad in (Dashpot(1.0), "leaf", None):
        with pytest.raises(InvalidInputError, match="expected a RheoExpr node"):
            Parallel([L(Dashpot(1.0)), bad])
    tree = Serial([L(Dashpot(1.0)), L(PowerLaw(1.0, 3.0))])
    for rates in ([1.0, -1.0], [1.0, math.inf], [math.nan]):
        with pytest.raises(InvalidInputError, match="strain rates"):
            stress_curve(tree, rates)
    for rates in ([1.0, 0.0], [-2.0]):
        with pytest.raises(InvalidInputError, match="strictly positive"):
            mu_eff_curve(tree, rates)
    with pytest.raises(InvalidInputError):
        strain_rate_of_stress(tree, -1.0)
    with pytest.raises(InvalidInputError):
        three_element_stress(ThreeElementParams(1.0, 1.0, 1.0), [0.5, -1.0])


_CREEP = Serial([L(Dashpot(1.0)), L(PowerLaw(1.0, 3.0))])
_NOT_NUMBERS = ("1.5", True, 10**400)
# an entry point at one argument, the arguments it refuses, and for a constructor the
# field that must hold a float after an int argument
_ONE_RULE = {
    "stress_curve": (lambda x: stress_curve(_CREEP, [1.0, x]), (math.nan, math.inf), None),
    "mu_eff_curve": (lambda x: mu_eff_curve(_CREEP, [1.0, x]), (math.nan, math.inf), None),
    "three_element_stress": (lambda x: three_element_stress(ThreeElementParams(1.0, 1.0, 1.0), x),
                             (math.nan, math.inf), None),
    "serial_dif_dsl_closed": (lambda x: serial_dif_dsl_stress(1.0, 1.0, 2.0, x),
                              (math.nan, math.inf), None),
    "serial_dif_dsl_numeric": (lambda x: serial_dif_dsl_stress(1.0, 1.0, 2.5, x, mode="numeric"),
                               (math.nan, math.inf), None),
    "mu_eff_formula": (lambda x: mu_eff_formula("vp_min", (1.0, 1.0), x), (math.nan, math.inf), None),
    "value": (lambda x: value(Dashpot(1.0), x), (math.nan, math.inf), None),
    "dvalue": (lambda x: dvalue(Dashpot(1.0), x), (math.nan, math.inf), None),
    "stress_of_strain_rate": (lambda x: stress_of_strain_rate(_CREEP, x), (math.nan, math.inf), None),
    "Dashpot": (Dashpot, _NOT_NUMBERS, "D"),
    "PerfectPlastic": (PerfectPlastic, _NOT_NUMBERS, "sigma_a"),
    "PowerLaw.D": (lambda x: PowerLaw(x, 3.0), _NOT_NUMBERS, "D"),
    "PowerLaw.n": (lambda x: PowerLaw(1.0, x), _NOT_NUMBERS, "n"),
    "Huber.sigma_a": (lambda x: Huber(x, 1.0), _NOT_NUMBERS, "sigma_a"),
    "Huber.D": (lambda x: Huber(1.0, x), _NOT_NUMBERS, "D"),
    "QuadPlusBall.Dinv_quad": (lambda x: QuadPlusBall(x, 1.0), _NOT_NUMBERS, "Dinv_quad"),
    "QuadPlusBall.sigma_a": (lambda x: QuadPlusBall(0.0, x), _NOT_NUMBERS, "sigma_a"),
    "ThreeElementParams": (lambda x: ThreeElementParams(1.0, x, 1.0), _NOT_NUMBERS, "D2"),
    "MaxwellModel": (lambda x: MaxwellModel(x, [Dashpot(1.0)]), _NOT_NUMBERS, "E"),
    "DriveProgram.t_end": (lambda x: DriveProgram([(x, 1.0)]), _NOT_NUMBERS, "segments"),
    "DriveProgram.eps": (lambda x: DriveProgram([(1.0, x)]), _NOT_NUMBERS, "segments"),
}


@pytest.mark.parametrize("name", _ONE_RULE)
def test_one_rule_for_rates_and_moduli(name):
    """NaN and inf rates, and moduli that are strings, bools or integers past the float
    range, are input errors at every entry point; the error never echoes hundreds of
    digits, and a constructor stores the float of an int argument."""
    call, refused, field = _ONE_RULE[name]
    for x in refused:
        with pytest.raises(InvalidInputError) as err:
            call(x)
        assert "0" * 20 not in str(err.value)
    if field is not None:
        got = getattr(call(2), field)
        floats = [v for seg in got for v in seg] if field == "segments" else [got]
        assert all(type(v) is float for v in floats) and 2.0 in floats


# ---------------------------------------------------------------------------
# Rate and stress responses
# ---------------------------------------------------------------------------


def test_strain_rate_examples():
    e = Serial([L(Dashpot(1.0)), L(Dashpot(1.0))])
    assert strain_rate_of_stress(e, 1.0).midpoint == pytest.approx(2.0)
    e2 = Serial([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
    assert strain_rate_of_stress(e2, 0.5).midpoint == pytest.approx(0.5)
    for expr in (e, e2, Parallel([L(Dashpot(2.0)), L(PerfectPlastic(1.0))])):
        iv = strain_rate_of_stress(expr, 0.0)
        assert iv.lo == iv.hi == 0.0
    # beyond the yield cap of the serial model: saturation marker
    sat = strain_rate_of_stress(e2, 2.0)
    assert math.isinf(sat.lo) and math.isinf(sat.hi)
    # at the cap: normal cone
    cone = strain_rate_of_stress(e2, 1.0)
    assert cone.lo == pytest.approx(1.0)
    assert math.isinf(cone.hi)


def test_stress_examples():
    e = Serial([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
    assert stress_of_strain_rate(e, 2.0).midpoint == pytest.approx(1.0, rel=1e-10)
    assert stress_of_strain_rate(e, 0.5).midpoint == pytest.approx(0.5, rel=1e-10)
    b = Parallel([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
    assert stress_of_strain_rate(b, 2.0).midpoint == pytest.approx(3.0)
    pl = Serial([L(Dashpot(1.0)), L(PowerLaw(1.0, 3.0))])
    # oracle: root of s^3 + s = 2, verified by substitution
    s = stress_of_strain_rate(pl, 2.0).midpoint
    assert s**3 + s == pytest.approx(2.0, abs=1e-10)
    assert s == pytest.approx(1.0, rel=1e-10)


def test_mu_eff_rigorous_examples():
    e = Serial([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
    assert mu_eff_rigorous(e, 2.0) == pytest.approx(0.5, rel=1e-10)
    b = Parallel([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
    assert mu_eff_rigorous(b, 1.0) == pytest.approx(2.0, rel=1e-10)
    two = Serial([L(Dashpot(3.0)), L(Dashpot(3.0))])
    for eps in (0.1, 1.0, 7.3):
        assert mu_eff_rigorous(two, eps) == pytest.approx(1.5, rel=1e-10)
    with pytest.raises(InvalidInputError):
        mu_eff_rigorous(e, 0.0)
    assert mu_eff_rigorous(e, 0.0, limit=True) == pytest.approx(1.0, rel=1e-6)
    assert math.isinf(mu_eff_rigorous(b, 0.0, limit=True))


def test_duality_round_trip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(25):
        expr = random_plastic_tree(rng, rich=True)
        eps = float(rng.uniform(0.05, 5.0))
        sigma = stress_of_strain_rate(expr, eps).midpoint
        iv = strain_rate_of_stress(expr, sigma)
        if math.isinf(iv.hi):
            continue  # at a yield cap; inverse is set-valued there
        back = stress_of_strain_rate(expr, iv.midpoint).midpoint
        assert back == pytest.approx(sigma, rel=1e-10, abs=1e-12)


def random_plastic_tree(rng, depth=2, rich=False):
    if depth == 0 or rng.random() < 0.35:
        kinds = 4 if rich else 2
        k = int(rng.integers(0, kinds))
        mod = float(rng.uniform(0.1, 10.0))
        if k == 0:
            return L(Dashpot(mod))
        if k == 1:
            return L(PerfectPlastic(mod))
        if k == 2:
            return L(PowerLaw(mod, float(rng.uniform(0.5, 4.0))))
        return L(Huber(mod, float(rng.uniform(0.1, 10.0))))
    kids = [
        random_plastic_tree(rng, depth - 1, rich) for _ in range(int(rng.integers(2, 4)))
    ]
    if rng.random() < 0.5:
        return Parallel(kids)
    kids.append(L(Dashpot(float(rng.uniform(0.1, 10.0)))))
    return Serial(kids)


def test_parallel_fast_path_matches_generic_solve():
    node = Parallel([L(PerfectPlastic(1.2)), L(Dashpot(0.7)), L(Dashpot(1.3))])
    sig = np.linspace(0.0, 6.0, 97)
    # the generic root solve of the node's summed stress, against the exact float path
    lo_g, hi_g = rheology._array_inverse(node._stress, math.inf, node._sup)(sig)[:2]
    lo_f = np.array([strain_rate_of_stress(node, s).lo for s in sig])
    assert np.max(np.abs(lo_g - lo_f)) <= 1e-10 * max(1.0, np.max(lo_f))


def test_parallel_flow_below_yield_is_exactly_zero():
    node = Parallel([L(PowerLaw(1.0, 2.5)), L(PerfectPlastic(1.0))])
    iv = strain_rate_of_stress(node, 0.5)
    assert iv.lo == iv.hi == 0.0
    lo, hi = node._flow(np.array([0.0, 0.5, 1.0]))[:2]
    assert np.all(lo == 0.0) and np.all(hi == 0.0)
    # above yield the overstress drives the power law: (sig - 1)**2.5
    assert strain_rate_of_stress(node, 3.0).hi == pytest.approx(2.0**2.5, rel=1e-14)


def _rescaled(e, S, R):
    """The same tree with stresses scaled by S and strain rates by R."""
    if isinstance(e, Parallel):
        return Parallel([_rescaled(c, S, R) for c in e.children])
    if isinstance(e, Serial):
        return Serial([_rescaled(c, S, R) for c in e.children])
    p = e.p
    if isinstance(p, Dashpot):
        return L(Dashpot(p.D * S / R))
    if isinstance(p, PowerLaw):
        return L(PowerLaw(p.D * S / R ** (1.0 / p.n), p.n))
    if isinstance(p, PerfectPlastic):
        return L(PerfectPlastic(p.sigma_a * S))
    return L(Huber(p.sigma_a * S, p.D * S / R))


_D, _P, _W = L(Dashpot(1.0)), L(PerfectPlastic(1.0)), L(PowerLaw(1.0, 3.0))
_SCALE_TREES = (
    Serial([
        Parallel([L(PowerLaw(0.8, 2.5)), L(PerfectPlastic(0.6))]),
        L(Dashpot(1.3)),
        L(Huber(2.0, 0.7)),
    ]),
    Serial([Parallel([Serial([Parallel([_D, _P]), _W]), _P, _D]), _W]),
    Parallel([Serial([Parallel([L(PowerLaw(1.2, 3.5)), _P]), _D]), L(Dashpot(0.1))]),
)


@settings(max_examples=50, deadline=None)
@given(
    which=st.integers(0, len(_SCALE_TREES) - 1),
    ks=st.integers(-150, 150),
    kr=st.integers(-150, 150),
    eps=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=8),
)
def test_stress_is_unit_scale_invariant(which, ks, kr, eps):
    tree = _SCALE_TREES[which]
    S, R = 10.0**ks, 10.0**kr
    eps = np.array(eps)
    unit = stress_curve(tree, eps)
    scaled = stress_curve(_rescaled(tree, S, R), eps * R) / S
    assert np.all(np.abs(scaled - unit) <= 1e-12 * unit)


def test_nested_tree_work_budget(monkeypatch):
    """Three nested solves at 200 rates stay within a fixed leaf-call budget, at unit
    scale and with stresses and rates scaled 300 decades apart."""
    calls = [0]
    for name in ("_leaf_flow", "_leaf_stress"):
        kernel = getattr(rheology, name)

        def counted(*args, kernel=kernel):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(rheology, name, counted)
    for S, R in ((1.0, 1.0), (1e150, 1e-150), (1e-150, 1e150)):
        calls[0] = 0
        tree = _rescaled(_SCALE_TREES[1], S, R)
        eps = np.linspace(0.01, 10.0, 200) * R
        sig = stress_curve(tree, eps)
        assert calls[0] <= 20_000, (S, R, calls[0])
        for i in (0, 57, 199):
            assert strain_rate_of_stress(tree, sig[i]).hi == pytest.approx(eps[i], rel=1e-12)


def _counted_deep_trees():
    """The depth-3 tree of :data:`_SCALE_TREES` and a depth-4 chain (``Parallel[.,
    PowerLaw(1.5, 2), plastic(0.5)]`` then ``Serial[., PowerLaw(0.7, 4)]``, twice around W),
    built fresh from leaves whose float kernels count their calls before any parent binds."""
    calls = [0]

    def leaf(p):
        e = L(p)
        for name in ("_float_flow", "_float_stress"):
            def law(x, f=getattr(e, name)):
                calls[0] += 1
                return f(x)

            e.__dict__[name] = law
        return e

    D, P, W = leaf(Dashpot(1.0)), leaf(PerfectPlastic(1.0)), leaf(PowerLaw(1.0, 3.0))
    chain = leaf(PowerLaw(1.0, 3.0))
    for _ in range(2):
        chain = Serial([Parallel([chain, leaf(PowerLaw(1.5, 2.0)), leaf(PerfectPlastic(0.5))]),
                        leaf(PowerLaw(0.7, 4.0))])
    return calls, Serial([Parallel([Serial([Parallel([D, P]), W]), P, D]), W]), chain


def test_deep_float_solves_read_each_law_at_rest_once():
    """Each inverting node reads its summed law at rest once, at its first walk, and binds
    one float walk, whose one-target form is its scalar inverse.  So the leaf float-kernel
    calls of a 64-rate walk over [0, 10] and of a scalar stress solve stay within budget on
    trees whose solves nest three and four deep (8,882, 69,164 and 1,822 calls when every
    inverse read its rest point on each call); a repeated solve reads no rest point."""
    grid = np.linspace(0.0, 10.0, 64).tolist()
    calls, tree, _ = _counted_deep_trees()
    assert rheology._depth(tree) == 3 and calls[0] == 0  # building evaluates nothing
    tree._walk(grid)
    assert calls[0] <= 6_890, calls[0]
    calls, _, chain = _counted_deep_trees()
    assert rheology._depth(chain) == 4 and calls[0] == 0
    chain._walk(grid)
    assert calls[0] <= 46_096, calls[0]
    calls, _, chain = _counted_deep_trees()
    for budget in (1_217, 1_210):  # the first solve reads every node's rest point: 7 calls
        calls[0] = 0
        stress_of_strain_rate(chain, 0.7)
        assert calls[0] <= budget, calls[0]


def test_deep_array_solves_read_each_law_at_rest_once(monkeypatch):
    """Each node's array inverse reads its summed law at rest once, at its first call, and
    hands it to ``_root``, which evaluates its law only at its probes.  So building a tree
    makes no array leaf call, the array leaf calls of a ``stress_curve`` over [0, 10] stay
    within budget on trees whose solves nest three and four deep (1,956 and 7,366 calls at
    64 rates, 3,854 and 10,394 at 1,024, when ``_root`` read its rest point on each call),
    and a repeated curve reads no rest point at all."""
    calls, rest = [0], [0]  # array leaf calls, and those at a one-entry rest point
    for name in ("_leaf_flow", "_leaf_stress"):
        kernel = getattr(rheology, name)

        def counted(p, x, kernel=kernel):
            calls[0] += 1
            rest[0] += x.shape == (1,) and x[0] == 0.0
            return kernel(p, x)

        monkeypatch.setattr(rheology, name, counted)
    root, at_zero = rheology._root, [0]

    def probed(fn, *args):  # ``_root``, counting its law's evaluations at rest
        def law(x):
            at_zero[0] += not x.any()
            return fn(x)

        return root(law, *args)

    monkeypatch.setattr(rheology, "_root", probed)
    for n, budgets in ((64, (1_606, 4_465)), (1_024, (3_184, 6_188))):
        calls[0] = 0
        _, *trees = _counted_deep_trees()
        assert calls[0] == 0  # building evaluates nothing
        for tree, budget in zip(trees, budgets):
            calls[0] = 0
            stress_curve(tree, np.linspace(0.0, 10.0, n))
            assert calls[0] <= budget, (n, calls[0])
            rest[0] = 0
            stress_curve(tree, np.linspace(0.0, 10.0, n))
            assert rest[0] == 0, (n, rest[0])
    assert at_zero[0] == 0


def test_float_solves_without_a_cap_never_probe_the_largest_float(monkeypatch):
    """With no cap the scalar finder starts at 1, not at ``nextafter(inf, 0)``, where
    a Serial node's stress would run a whole inner solve.  Only a root past the float
    range (a probe of 1 far above the stress scale can have one) is bracketed there."""
    solves = []  # the probes of each solve with no cap
    root = rheology._root_scalar

    def recorded(fn, target, sup, rtol, *start):
        xs = []
        if sup == math.inf:
            solves.append(xs)
        return root(lambda x: xs.append(x) or fn(x), target, sup, rtol, *start)

    monkeypatch.setattr(rheology, "_root_scalar", recorded)
    for S, R in ((1.0, 1.0), (1e150, 1e-150), (1e-150, 1e150)):
        solves.clear()
        for tree in _SCALE_TREES:
            tree = _rescaled(tree, S, R)
            for e in (0.01, 0.7, 9.0):
                strain_rate_of_stress(tree, stress_of_strain_rate(tree, e * R).hi)
        assert solves and all(xs[0] == 1.0 for xs in solves)
        if S == 1.0:
            assert max(max(xs) for xs in solves) < 1e300


def test_a_solve_out_of_steps_raises_a_typed_error(monkeypatch):
    tree = _SCALE_TREES[1]
    monkeypatch.setattr(rheology, "_MAX_ITER", 2)
    with pytest.raises(NonConvergenceError, match="unresolved after 2 steps"):
        stress_curve(tree, np.linspace(0.01, 10.0, 20))
    with pytest.raises(NonConvergenceError, match="unresolved after 2 steps"):
        stress_of_strain_rate(tree, 0.7)


def test_mu_eff_limit_is_the_tangent_at_rest():
    assert math.isinf(mu_eff_rigorous(L(PowerLaw(1.0, 3.0)), 0.0, limit=True))
    assert mu_eff_rigorous(L(Dashpot(2.5)), 0.0, limit=True) == 2.5
    assert mu_eff_rigorous(L(PowerLaw(4.0, 0.5)), 0.0, limit=True) == 0.0
    serial = Serial([L(Dashpot(2.0)), L(Dashpot(3.0)), L(PowerLaw(1.0, 3.0))])
    assert mu_eff_rigorous(serial, 0.0, limit=True) == pytest.approx(1.2, rel=1e-15)
    par = Parallel([L(Dashpot(2.0)), L(Huber(1.0, 3.0)), L(PowerLaw(1.0, 0.5))])
    assert mu_eff_rigorous(par, 0.0, limit=True) == 5.0
    # a rigid (Bingham) child carries no rate at small stress
    rigid = Serial([Parallel([L(Dashpot(1.0)), L(PerfectPlastic(1.0))]), L(Dashpot(4.0))])
    assert mu_eff_rigorous(rigid, 0.0, limit=True) == 4.0
    assert math.isinf(mu_eff_rigorous(Serial([_W, L(PowerLaw(2.0, 2.0))]), 0.0, limit=True))


def test_midpoints_stay_finite_up_to_the_largest_float():
    """A midpoint is finite wherever both ends are, up to the largest float: the scalar
    API's, ``mu_eff_rigorous``'s and ``stress_curve``'s (with no overflow warning).  It is
    ``lo`` at a point, subnormals included, and ``0.5 * (lo + hi)`` wherever that is a
    normal float."""
    big = L(Dashpot(1e300))
    assert stress_of_strain_rate(big, 1.5e8).midpoint == 1e300 * 1.5e8 == 1.5e308
    assert mu_eff_rigorous(big, 1.5e8) == pytest.approx(1e300, rel=1e-15)
    assert stress_curve(big, [0.0, 1e8, 1.5e8]).tolist() == [0.0, 1e300 * 1e8, 1e300 * 1.5e8]
    assert mu_eff_curve(big, [1e8, 1.5e8]) == pytest.approx([1e300, 1e300], rel=1e-15)
    interval = rheology.SubdiffInterval
    assert interval(1.7e308, math.inf).midpoint == math.inf
    assert interval(1.5e308, 1.7976931348623157e308).midpoint == pytest.approx(1.64884656743e308)
    for x in (5e-324, 1e-310, 1.7976931348623157e308):
        assert interval(x, x).midpoint == x
    rng = np.random.default_rng(26)
    for lo, hi in np.sort(10.0 ** rng.uniform(-300.0, 300.0, (2_000, 2)), axis=1).tolist():
        assert interval(lo, hi).midpoint == 0.5 * (lo + hi)


def test_bounded_rate_sampled_element_in_series():
    """A +inf-tailed sampled potential caps its rate at the last finite sample."""
    grid = np.linspace(0.0, 2.0, 201)
    p = Sampled(SampledFunction.from_samples(grid, np.where(grid <= 1.0, 0.5 * grid**2, np.inf)))
    tree = Serial([L(p), L(Dashpot(1.0))])
    rate = strain_rate_of_stress(tree, 5.0)
    assert (rate.lo, rate.hi) == pytest.approx((6.0, 6.0), rel=1e-15)
    sig = stress_of_strain_rate(tree, 6.0)
    assert (sig.lo, sig.hi) == pytest.approx((5.0, 5.0), rel=1e-14)


def test_parallel_saturation():
    node = Parallel([L(PerfectPlastic(1.0)), L(PerfectPlastic(0.5))])
    iv = strain_rate_of_stress(node, 2.0)
    assert math.isinf(iv.lo) and math.isinf(iv.hi)
    at = strain_rate_of_stress(node, 1.5)
    assert at.lo == 0.0 and math.isinf(at.hi)
    below = strain_rate_of_stress(node, 1.0)
    assert below.lo == below.hi == 0.0


# ---------------------------------------------------------------------------
# Three-element models
# ---------------------------------------------------------------------------


def test_three_element_stress_closed_form():
    p = ThreeElementParams(1.0, 1.0, 1.0)
    assert three_element_stress(p, 0.5) == pytest.approx(1.0)
    assert three_element_stress(p, 2.0) == pytest.approx(3.0)
    assert three_element_stress(p, 0.0) == 0.0
    # continuity at the switch rate sigma_a / D2
    sw = p.sigma_a / p.D2
    lo = three_element_stress(p, sw * (1 - 1e-12))
    hi = three_element_stress(p, sw * (1 + 1e-12))
    assert lo == pytest.approx(hi, rel=1e-9)


def test_parameter_map_values():
    t = map_serial_parallel_params(1.0, 1.0, 1.0)
    assert (t.sigma_a, t.D2, t.D3) == (2.0, 2.0, 2.0)
    t2 = map_serial_parallel_params(2.0, 4.0, 1.0)
    assert (t2.sigma_a, t2.D2, t2.D3) == (2.5, 5.0, 1.25)
    t3 = map_serial_parallel_params(1.0, 1.0, 1e-12)
    assert t3.sigma_a == pytest.approx(1.0, rel=1e-11)
    assert t3.D2 == pytest.approx(1.0, rel=1e-11)
    assert t3.D3 == pytest.approx(1e-12, rel=1e-11)


@settings(max_examples=60, deadline=None)
@given(
    sa=st.floats(0.1, 10.0),
    d2=st.floats(0.1, 10.0),
    d3=st.floats(0.1, 10.0),
    eps=st.floats(0.001, 20.0),
)
def test_three_element_equivalence_property(sa, d2, d3, eps):
    base = ThreeElementParams(sa, d2, d3)
    tilde = map_serial_parallel_params(sa, d2, d3)
    s1 = stress_of_strain_rate(three_element_parallel_serial(base), eps).midpoint
    s2 = stress_of_strain_rate(three_element_serial_parallel(tilde), eps).midpoint
    closed = three_element_stress(base, eps)
    scale = sa + d2 + d3
    assert abs(s1 - closed) <= 1e-10 * scale
    assert abs(s2 - closed) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Effective-viscosity formulas
# ---------------------------------------------------------------------------


def test_formula_values():
    assert mu_eff_formula(Formula.THREE_ELEMENT, (1.0, 1.0, 1.0), 2.0) == pytest.approx(1.5)
    assert mu_eff_formula(Formula.EMP_DIF_DSL, (1.0, 1.0, math.inf), 1.0) == pytest.approx(0.5)
    assert mu_eff_formula(Formula.EMP_VAR1, (1.0, 1.0, 1.0), 1.0) == pytest.approx(1.5)
    assert mu_eff_formula(Formula.HB_MIN, (1.0, 1.0, 3.0), 8.0) == pytest.approx(0.125)
    assert mu_eff_formula(Formula.VP_MIN, (1.0, 1.0), 2.0) == pytest.approx(0.5)
    assert mu_eff_formula(Formula.BINGHAM_SUM, (1.0, 1.0), 1.0) == pytest.approx(2.0)
    assert mu_eff_formula("vp_min", (1.0, 1.0), 2.0) == pytest.approx(0.5)
    # harmonic combination of two explicit viscosity functions
    mus = [lambda e: 1.0 + 0.0 * e, lambda e: 1.0 + 0.0 * e]
    assert mu_eff_formula(Formula.EMP_HARMONIC_GENERAL, (mus,), 3.0) == pytest.approx(0.5)


def test_formula_arity_and_validation():
    with pytest.raises(InvalidInputError):
        mu_eff_formula(Formula.VP_MIN, (1.0,), 1.0)
    with pytest.raises(InvalidInputError):
        mu_eff_formula("does_not_exist", (1.0, 1.0), 1.0)
    with pytest.raises(InvalidInputError):
        mu_eff_formula(Formula.VP_MIN, (1.0, 1.0), 0.0)
    with pytest.raises(InvalidInputError):
        mu_eff_formula(Formula.MULTI_ELEMENT, ([], [], 1.0), 1.0)


def test_formula_rejects_nonpositive_or_nonfinite_parameters():
    for bad in ((1.0, -1.0), (0.0, 1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidInputError):
            mu_eff_formula("vp_min", bad, 1.0)
    with pytest.raises(InvalidInputError):
        mu_eff_formula(Formula.MULTI_ELEMENT, ([1.0, -2.0], [1.0, 1.0], 1.0), 1.0)
    with pytest.raises(InvalidInputError):
        mu_eff_formula(Formula.EMP_DIF_DSL, (1.0, 1.0, 0.0), 1.0)
    # only a creep exponent may be infinite
    assert mu_eff_formula(Formula.HB_MIN, (1.0, 1.0, math.inf), 2.0) == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        mu_eff_formula(Formula.HB_MIN, (math.inf, 1.0, 3.0), 2.0)


@pytest.mark.parametrize("formula, params", [
    ("vp_min", ("1", 1.0)), ("vp_min", (10**400, 1.0)), ("emp_dif_dsl", (1.0, 1.0, "inf")),
    ("multi_element", (["1"], [1.0], 1.0)), ("multi_element", (1.0, 1.0, 1.0))])
def test_formula_parameters_pass_the_number_rule(formula, params):
    """A string, an integer past the float range, or a number where a list belongs is
    an input error, not a bare TypeError, OverflowError or IndexError."""
    with pytest.raises(InvalidInputError):
        mu_eff_formula(formula, params, 1.0)


def test_multi_element_reduces_to_three_element():
    eps = np.linspace(0.01, 5.0, 50)
    a = mu_eff_formula(Formula.MULTI_ELEMENT, ([1.3], [0.7], 0.4), eps)
    b = mu_eff_formula(Formula.THREE_ELEMENT, (1.3, 0.7, 0.4), eps)
    assert np.array_equal(a, b)
    scalar = mu_eff_formula(Formula.MULTI_ELEMENT, ([1.0, 2.0], [1.0, 3.0], 0.5), 2.0)
    assert scalar == pytest.approx(min(0.5, 1.0) + min(1.0, 3.0) + 0.5)


def test_empirical_variants_differ_under_rigorous_map():
    tilde = map_serial_parallel_params(1.0, 1.0, 1.0)
    v1 = mu_eff_formula(Formula.EMP_VAR1, (1.0, 1.0, 1.0), 1.0)
    v2 = mu_eff_formula(Formula.EMP_VAR2, (tilde.sigma_a, tilde.D2, tilde.D3), 1.0)
    assert abs(v1 - v2) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_rigorous_vs_empirical_gap():
    expr = Serial([L(Dashpot(1.0)), L(PowerLaw(1.0, 3.0))])
    rig = mu_eff_rigorous(expr, 2.0)
    emp = mu_eff_formula(Formula.EMP_DIF_DSL, (1.0, 1.0, 3.0), 2.0)
    assert rig == pytest.approx(0.5, rel=1e-10)
    assert emp == pytest.approx(1.0 / (1.0 + 2.0 ** (2.0 / 3.0)), rel=1e-12)
    assert rig - emp > 0.1


# ---------------------------------------------------------------------------
# Serial diffusion + dislocation creep
# ---------------------------------------------------------------------------


def test_dif_dsl_closed_form_values():
    assert serial_dif_dsl_stress(1.0, 1.0, 2, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert serial_dif_dsl_stress(1.0, 1.0, 3, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert serial_dif_dsl_stress(1.0, 1.0, 2, 6.0) == pytest.approx(2.0, rel=1e-12)
    assert serial_dif_dsl_stress(1.0, 1.0, 3, 0.0) == 0.0
    assert serial_dif_dsl_stress(2.0, 3.0, 1, 1.0) == pytest.approx(
        harmonic_mean_linear([2.0, 3.0])
    )


def test_dif_dsl_solves_the_algebraic_equation():
    for n in (2, 3):
        for eps in (0.3, 2.0, 9.7):
            s = serial_dif_dsl_stress(1.5, 0.8, n, eps)
            assert (s / 0.8) ** n + s / 1.5 == pytest.approx(eps, rel=1e-12)


def test_dif_dsl_modes_and_errors():
    with pytest.raises(UnsupportedModeError):
        serial_dif_dsl_stress(1.0, 1.0, 4, 1.0, mode="closed")
    with pytest.raises(InvalidInputError):
        serial_dif_dsl_stress(1.0, 1.0, 3, 1.0, mode="fancy")
    with pytest.raises(InvalidInputError):
        serial_dif_dsl_stress(-1.0, 1.0, 3, 1.0)
    # numeric mode covers arbitrary exponents
    s = serial_dif_dsl_stress(1.0, 1.0, 4.5, 2.0, mode="numeric")
    assert s**4.5 + s == pytest.approx(2.0, rel=1e-10)


def test_dif_dsl_numeric_mode_is_scale_free():
    big = serial_dif_dsl_stress(1.0, 1.0, 3, 1e200, mode="numeric")
    assert big**3 + big == pytest.approx(1e200, rel=1e-13)
    tiny = serial_dif_dsl_stress(1e-200, 1.0, 0.5, 1e-100, mode="numeric")
    assert math.sqrt(tiny) + tiny / 1e-200 == pytest.approx(1e-100, rel=1e-14)
    assert serial_dif_dsl_stress(1.0, 1.0, 4.5, 0.0, mode="numeric") == 0.0


def test_dif_dsl_closed_form_is_scale_free():
    """The n = 2, 3 closed forms agree with numeric mode far from unit scale."""
    cases = ((1.0, 1.0, 1e200), (1e150, 1e150, 1e-150), (1e-150, 1e-150, 1e150),
             (1e21, 1e9, 1e-15))
    with np.errstate(over="raise", invalid="raise"):
        for n in (2, 3):
            for d_dif, d_dsl, eps in cases:
                closed = serial_dif_dsl_stress(d_dif, d_dsl, n, eps)
                numeric = serial_dif_dsl_stress(d_dif, d_dsl, n, eps, mode="numeric")
                assert closed == pytest.approx(numeric, rel=1e-12, abs=0), (n, eps)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1.0, 2.0, 3.0]), kd=st.floats(-150, 150), ks=st.floats(-150, 150),
       kr=st.lists(st.floats(-20, 20), min_size=1, max_size=40))
def test_dif_dsl_float_kernel_is_the_closed_form(n, kd, ks, kr):
    """The float kernel of the closed form, which ``compare`` maps over its rows, is the
    array closed form to 1e-15 relative (numpy's vector ``pow`` and ``log`` may round
    otherwise than libm by an ulp), over moduli of 1e±150 and rates of 1e±20."""
    d_dif, d_dsl, eps = 10.0**kd, 10.0**ks, [10.0**k for k in kr]
    kernel = rheology._dif_dsl_closed(d_dif, d_dsl, n)
    closed = serial_dif_dsl_stress(d_dif, d_dsl, n, np.array(eps))
    floats = np.array([kernel(e) for e in eps])
    assert np.all(np.abs(floats - closed) <= 1e-15 * closed), (floats, closed)


def test_dif_dsl_closed_form_over_the_whole_float_range():
    """Closed mode is right to 1e-12 wherever the stress is a normal float.

    Moduli and rates span 600 decades.  The stress lies within a factor 2
    of the smaller single-element stress, so the cases kept have a normal
    answer.  The residual at (1 -/+ 1e-12) times the closed answer must
    bracket eps, and numeric mode must agree on the first 500 cases.
    """
    rng = np.random.default_rng(20261018)
    d_dif, d_dsl, eps = 10.0 ** rng.uniform(-300, 300, size=(3, 3000))
    for n in (2, 3):
        lg = np.log10(eps) + np.minimum(np.log10(d_dif),
                                        np.log10(d_dsl) - np.log10(eps) * (1 - 1 / n))
        keep = np.abs(lg) < 300
        a, b, e = d_dif[keep], d_dsl[keep], eps[keep]
        closed = np.array([serial_dif_dsl_stress(x, y, n, z) for x, y, z in zip(a, b, e)])
        with np.errstate(under="ignore"):
            for k, sign in ((1 - 1e-12, -1), (1 + 1e-12, 1)):
                residual = (k * closed / b) ** n + k * closed / a - e
                assert np.all(np.sign(residual) == sign)
        for x, y, z, c in list(zip(a, b, e, closed))[:500]:
            numeric = serial_dif_dsl_stress(x, y, n, z, mode="numeric")
            assert c == pytest.approx(numeric, rel=1e-12, abs=0), (x, y, n, z)
    assert serial_dif_dsl_stress(1e200, 1e-100, 2, 1.0) == pytest.approx(1e-100, rel=1e-15)


def test_dif_dsl_closed_matches_bisection_oracle():
    eps = np.linspace(0.0, 10.0, 41)
    worst = 0.0
    for d_dif in (0.1, 1.0, 10.0):
        for d_dsl in (0.1, 1.0, 10.0):
            for n in (2, 3):
                closed = serial_dif_dsl_stress(d_dif, d_dsl, n, eps)
                for e, c in zip(eps, closed):
                    if e == 0.0:
                        assert c == 0.0
                        continue
                    ref = bisect_scalar(
                        lambda s: (s / d_dsl) ** n + s / d_dif, e
                    )
                    worst = max(worst, abs(c - ref) / ref)
    assert worst <= 1e-9


def test_harmonic_mean_linear():
    assert harmonic_mean_linear([2.0, 2.0]) == pytest.approx(1.0)
    assert harmonic_mean_linear([3.7]) == pytest.approx(3.7)
    assert harmonic_mean_linear([1.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InvalidInputError):
        harmonic_mean_linear([])
    with pytest.raises(InvalidInputError):
        harmonic_mean_linear([1.0, -2.0])


def test_closed_forms_past_the_float_range_keep_their_value_and_do_not_warn():
    """Closed forms whose terms overflow where their value is right give it with no numpy
    warning (an error under the test settings): a term past the float range is inf, and
    the min, sum or reciprocal that takes it is right.  ``harmonic_mean_linear`` keeps a
    subnormal modulus whose reciprocal overflows, and in the normal range it has the bits
    of ``1 / sum(1 / D_i)``."""
    cases = [
        (mu_eff_formula("vp_min", (1e300, 1e-300), 1e-300), 1e-300),
        (mu_eff_formula("bingham_sum", (1e300, 1e-300), 1e-300), math.inf),
        (mu_eff_formula("three_element", (1e300, 1e-300, 1e-300), 1e-300), 2e-300),
        (mu_eff_formula("multi_element", ([1e300], [1e-300], 1e-300), 1e-300), 2e-300),
        (mu_eff_formula("emp_var1", (1e-300, 1e-300, 1e-300), 1e300), 1e-300),
        (mu_eff_formula("emp_var2", (1e300, 1e-300, 1e-300), 1e-300), 1e-300),
        (mu_eff_formula("hb_min", (1e300, 1e-300, 2.0), 1e-300), 1e-150),
        (mu_eff_formula("emp_dif_dsl", (1e300, 1e-300, 2.0), 1e300), 0.0),
        (serial_dif_dsl_stress(1e150, 1e150, 1, 1e300), math.inf),
        (three_element_stress(ThreeElementParams(1, 1e-300, 1e300), 1e300), math.inf),
        (harmonic_mean_linear([5e-324, 1.0]), 5e-324),
        (harmonic_mean_linear([1e-310, 1e-310]), 5e-311),
        (harmonic_mean_linear([1.7976931348623157e308]), 1.7976931348623157e308),
    ]
    for i, (got, want) in enumerate(cases):
        assert got == want or abs(got - want) <= 1e-12 * want, (i, got, want)
    rng = np.random.default_rng(27)
    for _ in range(2_000):
        ds = (10.0 ** rng.uniform(-150.0, 150.0, int(rng.integers(1, 6)))).tolist()
        assert harmonic_mean_linear(ds) == 1.0 / sum(1.0 / d for d in ds), ds


def test_emp_harmonic_general_keeps_a_subnormal_viscosity():
    """``EMP_HARMONIC_GENERAL`` scales the viscosities at each rate as ``harmonic_mean_linear``
    scales its moduli: a subnormal viscosity next to 1.0 gives the subnormal, with no numpy
    warning, and where every ``1 / mu_i`` is a normal float (viscosities over 1e+-150) the
    bits are those of ``1 / sum(1 / mu_i)``."""
    mus = [lambda e: 5e-324 + 0 * e, lambda e: 1.0 + 0 * e]
    assert mu_eff_formula("emp_harmonic_general", (mus,), 1.0) == 5e-324
    got = mu_eff_formula("emp_harmonic_general", ([lambda e: 1e-310 / e, lambda e: 3.0],),
                         [1.0, 2.0, 4.0])
    assert got.tolist() == [1e-310, 5e-311, 2.5e-311]
    rng = np.random.default_rng(28)
    eps = np.linspace(0.5, 4.0, 8)
    for _ in range(500):
        table = 10.0 ** rng.uniform(-150.0, 150.0, (int(rng.integers(1, 6)), eps.size))
        mus = [lambda e, row=row: row * e for row in table]
        want = 1.0 / sum((1.0 / (row * eps) for row in table), np.zeros_like(eps))
        got = mu_eff_formula(Formula.EMP_HARMONIC_GENERAL, (mus,), eps)
        assert got.tobytes() == want.tobytes(), table


def test_shear_thinning_of_plastic_dashpot_models():
    rng = np.random.default_rng(11)
    eps = np.linspace(0.02, 10.0, 200)
    for _ in range(10):
        expr = random_plastic_tree(rng)
        mu = mu_eff_curve(expr, eps)
        tol = 1e-12 * np.maximum(1.0, mu[:-1])
        assert np.all(np.diff(mu) <= tol)


# ---------------------------------------------------------------------------
# Polyline merging
# ---------------------------------------------------------------------------


def _root_calls(monkeypatch):
    calls = [0]
    root = rheology._root

    def counted(*args, **kwargs):
        calls[0] += 1
        return root(*args, **kwargs)

    monkeypatch.setattr(rheology, "_root", counted)
    return calls


def _from_children(e, eps):
    """Stress of a node from its children's laws: their sum, or its inverse by bisection."""
    if isinstance(e, Parallel):
        return sum(stress_of_strain_rate(c, eps).hi for c in e.children)
    return bisect_scalar(lambda s: sum(strain_rate_of_stress(c, s).hi for c in e.children), eps)


def _nodes(e):
    if not isinstance(e, Leaf):
        yield e
        for c in e.children:
            yield from _nodes(c)


_FOUR_LEVEL = Serial([
    Parallel([Serial([Parallel([L(Dashpot(1.2)), L(PerfectPlastic(0.8))]),
                      L(Huber(1.5, 2.0)), L(Dashpot(0.5))]),
              L(PerfectPlastic(0.6)), L(Dashpot(0.3))]),
    L(Dashpot(2.0)),
])


def test_all_graph_trees_take_no_root_solve(monkeypatch):
    calls = _root_calls(monkeypatch)
    p = ThreeElementParams(1.3, 0.7, 0.4)
    eps = np.array([0.05, 0.9, 1.6, 4.0])
    three = (three_element_parallel_serial(p),
             three_element_serial_parallel(map_serial_parallel_params(1.3, 0.7, 0.4)))
    for tree in three:
        sig = stress_curve(tree, eps)
        assert np.max(np.abs(sig - three_element_stress(p, eps)) / sig) <= 1e-13
    stress_curve(_FOUR_LEVEL, np.linspace(0.0, 10.0, 101))
    # two yield elements in parallel saturate at the sum of their caps
    node = Parallel([L(PerfectPlastic(1.0)), L(PerfectPlastic(0.5))])
    ivs = [strain_rate_of_stress(node, s) for s in (1.0, 1.5, 2.0)]
    assert [(iv.lo, iv.hi) for iv in ivs] == [(0.0, 0.0), (0.0, math.inf), (math.inf, math.inf)]
    assert calls[0] == 0
    # every node's merged graph against bisection over its children's laws
    for node in [n for tree in three + (_FOUR_LEVEL,) for n in _nodes(tree)]:
        for e in (0.05, 0.9, 1.6, 4.0):
            s = stress_of_strain_rate(node, e).hi
            assert abs(s - _from_children(node, e)) <= 1e-13 * s, (node, e)


def test_a_mixed_tree_solves_only_where_a_power_law_sits(monkeypatch):
    calls = _root_calls(monkeypatch)
    tree = Serial([Parallel([L(Huber(1.1, 0.9)), L(PerfectPlastic(0.7))]), L(PowerLaw(1.3, 1.5))])
    eps = np.array([0.01, 0.4, 2.0, 7.5])
    sig = stress_curve(tree, eps)
    assert calls[0] == 1
    for e, s in zip(eps, sig):
        assert abs(s - _from_children(tree, e)) <= 1e-13 * s


def test_huber_is_the_serial_merge_of_plastic_and_dashpot():
    rng = np.random.default_rng(5)
    for a, d in 10.0 ** rng.uniform(-30, 30, size=(200, 2)):
        merged = Serial([L(PerfectPlastic(a)), L(Dashpot(d))])._parts
        assert len(merged) == 1
        assert merged[0].p._graph == Huber(a, d)._graph


def test_merging_keeps_the_tree_as_written():
    kids = [L(Dashpot(1.0)), L(PowerLaw(1.0, 3.0)), L(PerfectPlastic(2.0)), L(Huber(1.0, 2.0))]
    tree = Serial(kids)
    assert tree.children == tuple(kids) and tree == Serial(kids)
    assert len(tree._parts) == 2 and tree._parts[1] == kids[1]
    lone = Parallel([L(PowerLaw(1.0, 2.0)), L(Dashpot(1.0))])
    assert lone._parts == lone.children


@st.composite
def _graph_trees(draw, depth=4):
    if depth == 0 or draw(st.booleans()):
        mod = lambda: 10.0 ** draw(st.floats(-1.0, 1.0))  # noqa: E731
        kind = draw(st.sampled_from("DPH"))
        return L(Dashpot(mod()) if kind == "D" else PerfectPlastic(mod()) if kind == "P"
                 else Huber(mod(), mod()))
    kids = [draw(_graph_trees(depth=depth - 1)) for _ in range(draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        return Parallel(kids)
    return Serial(kids + [L(Dashpot(10.0 ** draw(st.floats(-1.0, 1.0))))])


@settings(max_examples=60, deadline=None)
@given(tree=_graph_trees(), ks=st.integers(-150, 150), kr=st.integers(-150, 150),
       eps=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=6))
def test_all_graph_trees_are_one_exact_polyline(tree, ks, kr, eps):
    calls = [0]
    root = rheology._root

    def counted(*args, **kwargs):
        calls[0] += 1
        return root(*args, **kwargs)

    S, R = 10.0**ks, 10.0**kr
    eps = np.array(eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rheology, "_root", counted)
        unit = stress_curve(tree, eps)
        scaled = stress_curve(_rescaled(tree, S, R), eps * R) / S
        for e, s in zip(eps, unit):
            # the rates at the stress map back onto it (rate from stress
            # alone is as ill-conditioned as a yield offset is large)
            iv = strain_rate_of_stress(tree, s)
            assert iv.lo <= e <= iv.hi or abs(stress_of_strain_rate(tree, iv.lo).hi - s) <= 1e-13 * s
    assert calls[0] == 0
    assert np.all(np.abs(scaled - unit) <= 1e-13 * unit)
    if not isinstance(tree, Leaf):
        for e, s in zip(eps[:2], unit):
            assert abs(s - _from_children(tree, e)) <= 1e-13 * s


def test_scalar_midpoint_is_the_array_midpoint_bit_for_bit():
    """``_mid_scalar``, the bisection of the Maxwell step, halves the bits of
    Python floats as ``_mid`` halves those of float64 arrays."""
    rng = np.random.default_rng(11)
    special = [0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
               1.0, 1e300, 1.7976931348623157e308, math.inf]
    bits = rng.integers(0, np.float64(math.inf).view(np.int64), 20_000, endpoint=True)
    logs = 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
    a = np.concatenate((np.repeat(special, 10), bits.view(np.float64)[:10_000], logs[:10_000]))
    b = np.concatenate((np.tile(special, 10), bits.view(np.float64)[10_000:], logs[10_000:]))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    want = rheology._mid(lo, hi)
    got = np.array([rheology._mid_scalar(x, y) for x, y in zip(lo.tolist(), hi.tolist())])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert all(type(rheology._mid_scalar(x, y)) is float for x, y in zip(special, special[1:]))


# ---------------------------------------------------------------------------
# Scalar evaluation on Python floats
# ---------------------------------------------------------------------------


@st.composite
def _mixed_trees(draw, depth=3, top=True):
    """Dashpot, plastic, power-law and Huber leaves of unit order under a node, up to
    ``depth`` levels.  A Serial node gets a power law or a dashpot, so it is well posed;
    with a plastic child its stress is capped, and a Parallel node above caps saturates."""
    mod = lambda: 10.0 ** draw(st.floats(-1.0, 1.0))  # noqa: E731
    law = lambda: L(PowerLaw(mod(), draw(st.floats(1.5, 4.0))))  # noqa: E731
    if depth == 0 or not top and draw(st.booleans()):
        kind = draw(st.sampled_from("DPWH"))
        return (L(Dashpot(mod())) if kind == "D" else L(PerfectPlastic(mod())) if kind == "P"
                else law() if kind == "W" else L(Huber(mod(), mod())))
    kids = [draw(_mixed_trees(depth - 1, False)) for _ in range(draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        return Parallel(kids)
    return Serial(kids + [law() if draw(st.booleans()) else L(Dashpot(mod()))])


def _agree(got, want, rtol=1e-13):
    """Each pair equal, or finite and within ``rtol`` of each other relative."""
    return all(g == w or abs(g - w) <= rtol * max(abs(g), abs(w)) < math.inf
               for g, w in zip(got, want))


@settings(max_examples=30, deadline=None)
@example(tree=Parallel([Serial([_P, _W]), _P]), ks=0, kr=0, rates=[1.0], stresses=[1.0])  # saturates
@given(tree=_mixed_trees(), ks=st.integers(-150, 150), kr=st.integers(-150, 150),
       rates=st.lists(st.floats(0.001, 100.0), min_size=1, max_size=3),
       stresses=st.lists(st.floats(0.001, 100.0), min_size=1, max_size=3))
def test_scalar_path_is_the_array_path(tree, ks, kr, rates, stresses):
    """A node's float laws on Python floats give the array walk's ``(lo, hi)``
    to 1e-13, at rest, at caps, past saturation and at scales of 1e+-150.  A slope is
    the tangent at a finder's last probe, which lies within 1e-14 of the root but is not
    the same probe on both walks; so slopes are compared to 1e-9, where the array
    walk's slope is smooth: the same to 1e-9 a relative 1e-12 either side."""
    S, R = 10.0**ks, 10.0**kr
    tree = _rescaled(tree, S, R)
    sup = tree._sup
    eps = [0.0] + [e * R for e in rates]
    sig = [0.0] + [s * S for s in stresses] + ([0.5 * sup, sup, 2.0 * sup] if sup < math.inf else [])
    for scalar, array, xs in ((tree._float_stress, tree._stress, eps),
                              (tree._float_flow, tree._flow, sig)):
        with np.errstate(all="ignore"):  # at each x, and a relative 1e-12 below and above it
            out = np.transpose(array(np.outer([1.0, 1.0 - 1e-12, 1.0 + 1e-12], xs).ravel()))
        for x, w, below, above in zip(xs, *np.split(out, 3)):
            got = scalar(x)
            assert all(type(g) is float for g in got), (x, got)
            assert _agree(got[:2], w[:2]), (x, got, w)
            if _agree(below[2:], above[2:], 1e-9):
                assert _agree(got[2:], w[2:], 1e-9), (x, got, w)


@st.composite
def _shallow_trees(draw):
    """Trees whose solves nest at most one deep: a Serial root over leaves and Parallel
    nodes of polyline leaves (which merge into one), or a Parallel root over leaves and
    Serial nodes of leaves.  Leaves are of unit order: dashpots, plastic caps, Huber,
    and power laws with n in [1.2, 8]; each Serial node gets a dashpot or a power law."""
    mod = lambda: 10.0 ** draw(st.floats(-1.0, 1.0))  # noqa: E731

    def leaf(kinds):
        kind = draw(st.sampled_from(kinds))
        return (L(Dashpot(mod())) if kind == "D" else L(PerfectPlastic(mod())) if kind == "P"
                else L(Huber(mod(), mod())) if kind == "H"
                else L(PowerLaw(mod(), draw(st.floats(1.2, 8.0)))))

    def serial(kid):
        return Serial([kid() for _ in range(draw(st.integers(1, 3)))] + [leaf("DW")])

    def graphs():
        return Parallel([leaf("DPH") for _ in range(draw(st.integers(2, 3)))])

    if draw(st.booleans()):
        return serial(lambda: leaf("DPHW") if draw(st.booleans()) else graphs())
    return Parallel([leaf("DPHW") if draw(st.booleans()) else serial(lambda: leaf("DPHW"))
                     for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=150, deadline=None)
@given(tree=_shallow_trees(), ks=st.integers(-150, 150), kr=st.integers(-150, 150),
       rates=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
       samples=st.integers(2, 300))
def test_walk_is_the_scalar_solve_along_a_grid(tree, ks, kr, rates, samples):
    """A tree's walk along an ascending grid from 0 is ``stress_of_strain_rate``'s
    midpoint to 1e-13 relative and never decreases, at scales of 1e+-150.  The walk of
    a Serial root, or of each part of a Parallel one, is that node's float stress law
    bit for bit at rest and at the node's cap.  The grids: sorted random rates, a linspace, and
    clusters of rates 1e-14 apart, repeats included, around those rates and around
    the rates where the root and its parts reach their caps."""
    S, R = 10.0**ks, 10.0**kr
    tree = _rescaled(tree, S, R)
    assert rheology._depth(tree) <= 1
    rates = [r * R for r in rates]
    caps = [c._float_flow(c._sup)[0] for c in (tree, *tree._parts) if c._sup < math.inf]
    near = [x * (1.0 + k * 1e-14) for x in rates + caps if 0.0 < x < math.inf
            for k in (-2, -1, 0, 0, 1, 2)]
    for eps in ([0.0] + sorted(rates), np.linspace(0.0, max(rates), samples).tolist(),
                [0.0] + sorted(near)):
        got = [0.5 * (lo + hi) for lo, hi, _ in tree._walk(eps)]
        want = [stress_of_strain_rate(tree, e).midpoint for e in eps]
        assert _agree(got, want), (got, want)
        assert all(a <= b for a, b in zip(got, got[1:])), got
        for node in tree._parts if isinstance(tree, Parallel) else (tree,):  # the solving nodes
            for e, g, w in zip(eps, node._walk(eps), map(node._float_stress, eps)):
                if e == 0.0 or w[1] == node._sup:
                    assert [x.hex() for x in g[:2]] == [x.hex() for x in w[:2]], (e, g, w)


@settings(max_examples=25, deadline=None)
@given(tree=_mixed_trees(), ks=st.integers(-150, 150), kr=st.integers(-150, 150),
       first=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
       second=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_a_walk_carries_no_state_into_the_next(tree, ks, kr, first, second):
    """A node walked twice, on two different grids, and then solved on floats gives a
    freshly built copy's rows and values bit for bit: the rest point each inverting node
    reads at its first walk is the only thing kept, and it is the same at every walk."""
    S, R = 10.0**ks, 10.0**kr
    grids = [[0.0] + sorted(r * R for r in rates) for rates in (first, second)]
    tree = _rescaled(tree, S, R)
    bits = lambda rows: [[x.hex() for x in row] for row in rows]  # noqa: E731
    for eps in grids:
        assert bits(tree._walk(eps)) == bits(_rescaled(tree, 1.0, 1.0)._walk(eps))
    for law, xs in (("_float_stress", grids[1]), ("_float_flow", [r * S for r in first])):
        want = [getattr(_rescaled(tree, 1.0, 1.0), law)(x) for x in xs]
        assert bits(map(getattr(tree, law), xs)) == bits(want)


@settings(max_examples=25, deadline=None)
@given(tree=_mixed_trees(), ks=st.integers(-150, 150), kr=st.integers(-150, 150),
       first=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
       second=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_an_array_solve_carries_no_state_into_the_next(tree, ks, kr, first, second):
    """A node's array laws over two different grids give a freshly built copy's rows bit for
    bit: the rest point each array inverse reads at its first call is the only thing kept,
    and it is the same at every call."""
    S, R = 10.0**ks, 10.0**kr
    tree = _rescaled(tree, S, R)
    bits = lambda rows: [np.asarray(v, dtype=float).tobytes() for v in rows]  # noqa: E731
    with np.errstate(all="ignore"):
        for law, scale in (("_stress", R), ("_flow", S)):
            for xs in (first, second):
                x = np.array([0.0] + xs) * scale
                want = getattr(_rescaled(tree, 1.0, 1.0), law)(x)
                assert bits(getattr(tree, law)(x)) == bits(want), (law, x)


def test_depth_counts_how_deeply_the_solves_nest(monkeypatch):
    """``_depth``, which picks the ``curve`` path, is the deepest nesting of ``_root``
    that the array walks ``_stress`` and ``_flow`` run."""
    depth = [0, 0]  # open, deepest
    root = rheology._root

    def nested(*args, **kwargs):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return root(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rheology, "_root", nested)
    trees = _SCALE_TREES + (_FOUR_LEVEL, _W, Parallel([_W, _P]), Serial([_W, _P]))
    for tree in trees:
        for stress, walk in ((True, tree._stress), (False, tree._flow)):
            depth[1] = 0
            with np.errstate(all="ignore"):
                walk(np.array([0.7, 3.0]))
            assert depth[1] == rheology._depth(tree, stress), (tree, stress)
    assert [rheology._depth(t) for t in trees] == [2, 3, 2, 0, 0, 0, 1]


def test_scalar_parallel_flow_solves_the_overstress(monkeypatch):
    """Above a yield offset a Parallel node's flow is the power law of the overstress.
    The scalar solve is taken against the stress at rest, where that law is exact in
    one Newton step, so it evaluates the node at most five times at any unit scale."""
    calls = [0]
    root = rheology._root_scalar

    def counted(fn, *args):
        def f(x):
            calls[0] += 1
            return fn(x)

        return root(f, *args)

    monkeypatch.setattr(rheology, "_root_scalar", counted)
    for S in (1e-150, 1.0, 1e150):
        node = Parallel([L(PowerLaw(S, 2.5)), L(PerfectPlastic(S))])
        for sig in (1.5, 3.0, 50.0):
            calls[0] = 0
            rate = strain_rate_of_stress(node, sig * S).hi
            assert rate == pytest.approx((sig - 1.0) ** 2.5, rel=1e-14) and calls[0] <= 5, (S, sig)


# SHA-256 of the scalar API's outputs, each as ``float.hex`` (both ends of an interval):
# ``stress_of_strain_rate`` at three rates, ``strain_rate_of_stress`` at three stresses
# (the last past every finite supremum) and ``mu_eff_rigorous(..., limit=True)``, on
# ``_SCALE_TREES`` and ``_SATURATING`` at three unit scales.  Pinned before the scalar
# solve became a one-target walk, which kept every bit.  Like the CSV pins in
# ``test_schema_cli.py``, they read the platform's libm (``pow``, ``log1p``, ``expm1``).
_SCALAR_PINNED = {
    (1.0, 1.0): "547b465d00e8c2184a7fea9e8ea5e8731f0c860c2d6b790e2ac3661618b70732",
    (1e150, 1e-150): "f669c02c3d05e517276760b8dc775f6326ea4ea2f8049a6a73488508f6bd442f",
    (1e-150, 1e150): "f9b7d8a5284c356c80fd60ddd43e2046182165aee83fecba5524439622d78c8c",
}
_SATURATING = Parallel([Serial([_P, _W]), L(Huber(1.0, 1.0))])  # every part's stress capped


def _scalar_outputs(tree, S, R):
    out = [stress_of_strain_rate(tree, e * R) for e in (0.01, 0.7, 9.0)]
    out += [strain_rate_of_stress(tree, s * S) for s in (0.3, 2.0, 40.0)]
    return [x.hex() for iv in out for x in (iv.lo, iv.hi)] + [
        mu_eff_rigorous(tree, 0.0, limit=True).hex()]


@pytest.mark.parametrize("S, R", list(_SCALAR_PINNED))
def test_scalar_api_bits_are_pinned(S, R):
    """The scalar API's bits on three trees whose solves nest two and three deep and on a
    Parallel node with every part capped, whose flow is +inf past its supremum of 2S."""
    trees = [_rescaled(t, S, R) for t in _SCALE_TREES + (_SATURATING,)]
    assert trees[-1]._sup == 2.0 * S
    iv = strain_rate_of_stress(trees[-1], 40.0 * S)
    assert iv.lo == iv.hi == math.inf
    got = " ".join(x for t in trees for x in _scalar_outputs(t, S, R))
    assert hashlib.sha256(got.encode()).hexdigest() == _SCALAR_PINNED[S, R]


_SCALAR_SCRIPT = """
import json, sys
from rheokit import (Dashpot, Huber, Leaf as L, Parallel, PerfectPlastic, PowerLaw, Serial,
                     mu_eff_rigorous, strain_rate_of_stress, stress_of_strain_rate)
P, W = L(PerfectPlastic(1.0)), L(PowerLaw(1.0, 3.0))
depth2 = Serial([Parallel([L(PowerLaw(0.8, 2.5)), L(PerfectPlastic(0.6))]), L(Dashpot(1.3)),
                 L(Huber(2.0, 0.7))])
saturating = Parallel([Serial([P, W]), L(Huber(1.0, 1.0))])  # its flow nests two solves
for tree in (depth2, saturating):
    for x in (0.0, 0.7, 9.0):
        stress_of_strain_rate(tree, x), strain_rate_of_stress(tree, x)
    mu_eff_rigorous(tree, 0.0, limit=True), mu_eff_rigorous(tree, 0.7)
print(json.dumps([strain_rate_of_stress(saturating, 9.0).lo, "numpy" in sys.modules]))
"""


def test_scalar_api_never_loads_numpy():
    """The scalar API on a tree whose stress solves nest two deep, and on a Parallel node
    whose flow nests two solves and saturates, runs in a fresh interpreter without numpy."""
    src = str(Path(rheology.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _SCALAR_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [math.inf, False]
    assert rheology._depth(_SCALE_TREES[0]) == rheology._depth(_SATURATING, stress=False) == 2
