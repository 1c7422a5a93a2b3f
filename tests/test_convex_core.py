import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rheokit
from rheokit.convex_core import (
    SampledFunction,
    SubdiffInterval,
    _common_pair,
    _conjugate_values_scan,
    _conjugate_values_sweep,
    _dual_cap,
    _dual_grid,
    fenchel_young_residual,
    inf_convolve_direct,
    inf_convolve_via_conjugate,
    legendre_transform,
    subdifferential,
    uniform_grid,
    yosida,
)
from rheokit.errors import InvalidInputError, OutOfRangeError

from conftest import convex_from_slopes


def abs_grid(grid):
    return SampledFunction.from_samples(grid, grid.copy())


def half_square(grid, d=1.0):
    return SampledFunction.from_samples(grid, 0.5 * d * grid**2)


# ---------------------------------------------------------------------------
# SampledFunction invariants
# ---------------------------------------------------------------------------


def test_invalid_grids_rejected():
    with pytest.raises(InvalidInputError):
        SampledFunction.from_samples(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(InvalidInputError):
        SampledFunction.from_samples(np.array([0.5, 1.0]), np.zeros(2))
    with pytest.raises(InvalidInputError):
        SampledFunction.from_samples(np.array([]), np.array([]))
    # non-convex values
    with pytest.raises(InvalidInputError):
        SampledFunction.from_samples(np.linspace(0, 2, 5), np.array([0, 1, 1.2, 1.3, 5.0]) * -1)
    # minimum not at 0
    with pytest.raises(InvalidInputError):
        SampledFunction.from_samples(np.linspace(0, 1, 3), np.array([1.0, 0.0, 1.0]))


_POINT = SampledFunction.from_samples([0.0], [0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: SampledFunction.from_samples([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
     "grid must be finite"),
    (lambda: SampledFunction([0.0, 1.0, 2.0], [0.0, 1.0], 2),
     "grid and values must have the same length"),
    (lambda: SampledFunction([0.0, 1.0], [0.0, 1.0], 0), "finite_sup must be in [1, len(grid)]"),
    (lambda: SampledFunction([0.0, 1.0], [0.0, 1.0], 3), "finite_sup must be in [1, len(grid)]"),
    (lambda: SampledFunction([0.0, 1.0, 2.0], [0.0, np.nan, np.inf], 2),
     "values must be finite below finite_sup"),
    (lambda: SampledFunction([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 2),
     "values must be +inf from finite_sup on"),
    (lambda: SampledFunction([0.0, 1.0, 2.0], [0.0, 1.0, -np.inf], 2),
     "infinite values must be +inf, not -inf"),
    (lambda: SampledFunction.from_samples([0.0, 1.0, 2.0], [0.0, 1.0, 1.5]),
     "values are not convex on the finite range"),
    (lambda: legendre_transform(object()), "legendre_transform expects a SampledFunction"),
    (lambda: inf_convolve_direct(_POINT, _POINT),
     "infimal convolution: grid needs at least 2 points"),
], ids=["infinite grid", "lengths", "finite_sup 0", "finite_sup past", "nan below", "finite from",
        "-inf tail", "concave", "not sampled", "one point"])
def test_input_errors_name_their_rule(call, message):
    with pytest.raises(InvalidInputError) as exc:
        call()
    assert str(exc.value) == message


def test_uniform_grid_needs_a_finite_end_past_zero():
    assert np.array_equal(uniform_grid(2.0, 3), [0.0, 1.0, 2.0])
    for r_max, n in ((math.inf, 8), (math.nan, 8), (0.0, 8), (-1.0, 8), (1.0, 1)):
        with pytest.raises(InvalidInputError):
            uniform_grid(r_max, n)


def test_finite_sup_detection():
    f = SampledFunction.from_samples(
        np.linspace(0, 1, 5), np.array([0.0, 0.1, 0.3, np.inf, np.inf])
    )
    assert f.finite_sup == 3
    assert f(0.25) == pytest.approx(0.1)
    assert math.isinf(f(0.9))
    with pytest.raises(OutOfRangeError):
        f(1.5)


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------


def test_quadratic_self_conjugate(grid401):
    f = half_square(grid401)
    fs = legendre_transform(f, grid401)
    assert fs(1.0) == pytest.approx(0.5, abs=1e-12)


def test_abs_conjugate_is_indicator(grid401):
    f = abs_grid(grid401)
    fs = legendre_transform(f, np.linspace(0.0, 2.0, 201))
    assert fs(0.5) == 0.0
    assert fs(1.0) == 0.0
    assert math.isinf(fs(1.5))


def test_powerlaw_conjugate_against_bruteforce():
    # f(v) = (3/4) v^(4/3); independent oracle: exhaustive sup on 1e5 points
    v = np.linspace(0.0, 12.0, 100_001)
    oracle = np.max(2.0 * v - 0.75 * v ** (4.0 / 3.0))
    assert oracle == pytest.approx(4.0, abs=1e-8)
    f = SampledFunction.from_samples(
        np.linspace(0.0, 12.0, 2048), 0.75 * np.linspace(0.0, 12.0, 2048) ** (4.0 / 3.0)
    )
    fs = legendre_transform(f, np.linspace(0.0, 2.0, 401))
    assert fs(2.0) == pytest.approx(oracle, abs=1e-5)


def test_scan_and_sweep_agree(grid401):
    for f in (abs_grid(grid401), half_square(grid401, 2.3),
              convex_from_slopes(grid401, np.linspace(0.2, 3.0, 400))):
        dual = np.linspace(0.0, 2.0, 157)
        a = legendre_transform(f, dual, method="scan")
        b = legendre_transform(f, dual, method="sweep")
        scale = max(1.0, float(np.max(np.abs(a.values[np.isfinite(a.values)]))))
        assert np.array_equal(np.isinf(a.values), np.isinf(b.values))
        fin = np.isfinite(a.values)
        assert np.max(np.abs(a.values[fin] - b.values[fin])) <= 1e-12 * scale


def _sweep_walk(v, fv, s):
    """The reference sweep: the argmax walked one dual point at a time, in floats."""
    out = np.empty(s.size)
    vl, fl = v.tolist(), fv.tolist()
    j = 0
    for k, sk in enumerate(s.tolist()):
        while j + 1 < len(vl) and sk * vl[j + 1] - fl[j + 1] >= sk * vl[j] - fl[j]:
            j += 1
        out[k] = sk * vl[j] - fl[j]
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    uniform=st.booleans(),
    r_exp=st.integers(-100, 100),
    s_exp=st.integers(-100, 100),
    cut=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
    dual=st.sampled_from(["default", "linspace", "edge"]),
)
def test_sweep_is_the_walk_on_strictly_convex_samples_and_the_scan_on_linear_ones(
    seed, n, uniform, r_exp, s_exp, cut, dual
):
    """Strictly convex samples: the sweep is the walk, bit for bit.  Linear and
    piecewise-linear samples on nonuniform grids, whose slopes differ only by
    roundoff: it is the exhaustive scan on every finite entry, with the same
    finite support."""
    rng = np.random.default_rng(seed)
    r_max, s_max = 10.0**r_exp, 10.0**s_exp / 10.0**r_exp

    def duals(f, edge):
        if dual == "default":
            return _dual_grid(f._slopes, _dual_cap(f))
        if dual == "edge":
            return edge
        return np.linspace(0.0, 2.0 * s_max * rng.uniform(0.1, 1.0), int(rng.integers(1, 400)))

    # strictly convex: slopes a fixed fraction apart, on a uniform or sorted-random grid,
    # finite everywhere (a window with a cap) or with a +inf tail
    gaps = np.full(n - 1, 1.0) if uniform else rng.uniform(0.2, 1.0, n - 1)
    grid = np.concatenate(([0.0], np.cumsum(gaps))) * (r_max / max(1.0, gaps.sum()))
    slopes = s_max * np.cumsum(rng.uniform(0.1, 1.0, n - 1)) / n
    vals = np.concatenate(([0.0], np.cumsum(slopes * np.diff(grid))))
    if cut is not None:
        vals[max(1, int(cut * n)) :] = np.inf
    f = SampledFunction.from_samples(grid, vals)
    v, fv = f.grid[: f.finite_sup], f.values[: f.finite_sup]
    s = duals(f, np.array([0.0, 1e300, 1.7e308]))
    assert _conjugate_values_sweep(v, fv, s, f._slopes).tobytes() == _sweep_walk(v, fv, s).tobytes()

    # one to three affine pieces, evaluated at random points: near-equal slopes
    grid = np.concatenate(([0.0], np.sort(rng.uniform(0.0, r_max, n - 1))))
    a = s_max * np.sort(rng.uniform(0.5, 3.0, int(rng.integers(1, 4))))
    b = np.concatenate(([0.0], np.cumsum(np.diff(a) * np.sort(rng.uniform(0.0, r_max, a.size - 1)))))
    f = SampledFunction.from_samples(grid, np.max(a[:, None] * grid - b[:, None], axis=0))
    s = duals(f, np.concatenate(([0.0], a * (1.0 + 1e-12))))
    scan = _conjugate_values_scan(grid, f.values, s)
    sweep = _conjugate_values_sweep(grid, f.values, s, f._slopes)
    fin = np.isfinite(scan)
    assert np.array_equal(np.isfinite(sweep), fin)
    assert np.array_equal(sweep[fin], scan[fin])


def test_biconjugation_exact_on_interior(grid401):
    for f in (abs_grid(grid401), half_square(grid401, 0.7),
              convex_from_slopes(grid401, np.sqrt(np.linspace(0.0, 2.0, 400)))):
        fss = legendre_transform(legendre_transform(f), f.grid)
        m = min(f.finite_sup, fss.finite_sup)
        scale = max(1.0, float(np.max(np.abs(f.values[:m]))))
        err = np.max(np.abs(fss.values[: m - 1] - f.values[: m - 1]))
        assert err <= 1e-10 * scale


def test_monotone_duality():
    # f <= g pointwise implies f* >= g* pointwise
    grid = np.linspace(0.0, 4.0, 201)
    f = half_square(grid)
    g = SampledFunction.from_samples(grid, f.values + 0.3 * grid + 0.2 * grid**2)
    dual = np.linspace(0.0, 3.0, 101)
    fs = legendre_transform(f, dual)
    gs = legendre_transform(g, dual)
    assert np.all(fs.values >= gs.values - 1e-12)


def test_biconjugate_keeps_the_last_finite_sample_of_a_cut_support():
    """The conjugate of a +inf-tailed input carries its affine tail."""
    grid = np.linspace(0.0, 2.0, 201)
    f = SampledFunction.from_samples(grid, np.where(grid <= 1.0, 0.5 * grid**2, np.inf))
    assert f.finite_sup == 101
    fstar = legendre_transform(f)
    assert np.all(np.isfinite(fstar.values))
    bi = legendre_transform(fstar, f.grid)
    assert bi.finite_sup == 101
    assert np.max(np.abs(bi.values[:101] - f.values[:101])) <= 1e-15


def test_transform_rejects_bad_dual_grid(grid401):
    f = half_square(grid401)
    with pytest.raises(InvalidInputError):
        legendre_transform(f, np.array([0.5, 1.0]))
    with pytest.raises(InvalidInputError):
        legendre_transform(f, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        legendre_transform(f, method="nope")


@pytest.mark.parametrize("method", ["sweep", "scan"])
def test_transform_rejects_non_finite_dual_points(method):
    """A dual point past the float range is an input error for either method, on a
    window and on an input with a +inf tail, before any arithmetic runs."""
    grid = np.linspace(0.0, 2.0, 5)
    for vals in (grid**2, np.array([0.0, 0.5, 1.0, np.inf, np.inf])):
        f = SampledFunction.from_samples(grid, vals)
        for end in (np.inf, np.nan):
            with pytest.raises(InvalidInputError, match="finite"):
                legendre_transform(f, np.array([0.0, 1.0, end]), method=method)


@pytest.mark.parametrize("method", ["sweep", "scan"])
def test_transform_of_a_linear_sample_on_a_random_grid_is_convex(method):
    """f = 3e5 v on ``[0] + sorted(uniform(0, 100, 299))``, numpy seeds 0-199: the
    conjugate is 0 up to the slope, to roundoff of the terms ``s v`` (about 3e7), and
    its convexity check allows for that roundoff."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        grid = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 100.0, 299))))
        fs = legendre_transform(SampledFunction.from_samples(grid, 3e5 * grid), method=method)
        assert np.max(np.abs(fs.values[: fs.finite_sup])) <= 1e-11 * 3e7, seed


def test_transform_dual_grid_is_none_or_an_array(grid401):
    with pytest.raises(InvalidInputError):
        legendre_transform(half_square(grid401), 64)


# ---------------------------------------------------------------------------
# Infimal convolution
# ---------------------------------------------------------------------------


def test_inf_convolution_huber_values(grid401):
    f = abs_grid(grid401)
    g = half_square(grid401)
    # independent oracle: explicit min over splits, computed here
    def oracle(v):
        w = grid401[grid401 <= v + 1e-12]
        return float(np.min(w + 0.5 * (v - w) ** 2))

    conv = inf_convolve_direct(f, g)
    assert conv(0.5) == pytest.approx(oracle(0.5), abs=1e-14)
    assert conv(2.0) == pytest.approx(oracle(2.0), abs=1e-14)
    # closed form: 0.125 in the creep branch, sigma|v| - sigma^2/(2 D) above
    assert conv(0.5) == pytest.approx(0.125, abs=1e-12)
    assert conv(2.0) == pytest.approx(1.5, abs=1e-12)


def test_inf_convolution_identity_element(grid401):
    f = half_square(grid401, 1.3)
    ident = np.full(grid401.size, np.inf)
    ident[0] = 0.0
    g = SampledFunction.from_samples(grid401, ident)
    conv = inf_convolve_direct(f, g)
    assert np.allclose(conv.values, f.values, atol=0.0, rtol=0.0, equal_nan=True)


def test_inf_convolution_zero_function_flattens(grid401):
    f = convex_from_slopes(grid401, np.linspace(0.5, 2.0, 400), value0=0.0)
    g = SampledFunction.from_samples(grid401, np.zeros(grid401.size))
    conv = inf_convolve_direct(f, g)
    assert np.all(conv.values == f.values[0])
    via = inf_convolve_via_conjugate(f, g)
    assert np.max(np.abs(via.values - f.values[0])) <= 1e-12


def test_routes_agree_huber_and_harmonic(grid401):
    f = abs_grid(grid401)
    g = half_square(grid401)
    d = inf_convolve_direct(f, g)
    v = inf_convolve_via_conjugate(f, g)
    assert np.max(np.abs(d.values - v.values)) <= 1e-12

    q1 = half_square(grid401)
    d2 = inf_convolve_direct(q1, q1)
    v2 = inf_convolve_via_conjugate(q1, q1)
    fin = np.isfinite(d2.values)
    assert np.max(np.abs(d2.values[fin] - v2.values[fin])) <= 1e-12
    # harmonic mean of two unit dashpots: quarter square, up to grid error
    h = grid401[1] - grid401[0]
    assert np.max(np.abs(d2.values - 0.25 * grid401**2)) <= h**2 / 4 + 1e-12


def test_incompatible_grids_rejected():
    irregular = np.concatenate(([0.0, 0.1], np.linspace(0.5, 2.0, 7)))
    f = SampledFunction.from_samples(irregular, irregular**2)
    g = SampledFunction.from_samples(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 2.0, 9))
    with pytest.raises(InvalidInputError):
        inf_convolve_direct(f, g)


def test_resampling_onto_common_grid():
    f = half_square(np.linspace(0.0, 2.0, 101))
    g = abs_grid(np.linspace(0.0, 4.0, 101))
    conv = inf_convolve_direct(f, g)
    assert conv.r_max == 4.0
    # past f's window every split uses the +inf extension of f except
    # those within [0, 2]; value stays finite
    assert np.isfinite(conv(3.0))


# ---------------------------------------------------------------------------
# Yosida approximation
# ---------------------------------------------------------------------------


def test_yosida_of_abs_is_huber(grid401):
    y = yosida(abs_grid(grid401), 1.0)
    assert y(2.0) == pytest.approx(1.5, abs=1e-12)
    assert y(0.5) == pytest.approx(0.125, abs=1e-12)


def test_yosida_of_quadratic(grid401):
    eps = 0.5
    y = yosida(half_square(grid401), eps)
    h = grid401[1] - grid401[0]
    expect = 0.5 * grid401**2 / (1.0 + eps)
    assert np.max(np.abs(y.values - expect)) <= h**2 / eps


def test_yosida_constant_fixed_point(grid401):
    c = 0.37
    f = SampledFunction.from_samples(grid401, np.full(grid401.size, c))
    y = yosida(f, 0.1)
    assert np.max(np.abs(y.values - c)) == 0.0
    with pytest.raises(InvalidInputError):
        yosida(f, 0.0)


# ---------------------------------------------------------------------------
# Subdifferential and Fenchel-Young
# ---------------------------------------------------------------------------


def test_subdifferential_of_abs(grid401):
    f = abs_grid(grid401)
    assert subdifferential(f, 0.0) == SubdiffInterval(-1.0, 1.0)
    assert subdifferential(f, 2.0) == SubdiffInterval(1.0, 1.0)
    with pytest.raises(OutOfRangeError):
        subdifferential(f, 5.0)


def test_subdifferential_support_boundary(grid401):
    # quadratic on [0, 1], +inf beyond: normal cone at the boundary
    vals = np.where(grid401 <= 1.0, 0.5 * grid401**2, np.inf)
    f = SampledFunction.from_samples(grid401, vals)
    iv = subdifferential(f, 1.0)
    assert iv.lo == pytest.approx(1.0, abs=0.01)
    assert math.isinf(iv.hi)


def test_fenchel_young_examples(grid401):
    f = half_square(grid401)
    fs = legendre_transform(f, grid401)
    assert fenchel_young_residual(f, fs, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert fenchel_young_residual(f, fs, 1.0, 2.0) == pytest.approx(0.5, abs=1e-12)
    g = abs_grid(grid401)
    gs = legendre_transform(g, np.linspace(0.0, 1.0, 101))
    assert fenchel_young_residual(g, gs, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    slopes=st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8),
    v=st.floats(0.0, 3.0),
    s=st.floats(0.0, 4.0),
)
def test_fenchel_young_nonnegative(slopes, v, s):
    grid = np.linspace(0.0, 3.0, 9)
    f = convex_from_slopes(grid, slopes)
    fs = legendre_transform(f, np.linspace(0.0, 6.0, 25))
    scale = max(1.0, float(np.max(np.abs(f.values))))
    r = fenchel_young_residual(f, fs, v, s)
    assert r >= -1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(slopes=st.lists(st.floats(0.0, 6.0), min_size=16, max_size=16))
def test_biconjugation_random_convex(slopes):
    grid = np.linspace(0.0, 2.0, 17)
    f = convex_from_slopes(grid, slopes)
    fss = legendre_transform(legendre_transform(f), f.grid)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    assert np.max(np.abs(fss.values[:-1] - f.values[:-1])) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(
    slopes=st.lists(st.floats(0.0, 4.0), min_size=10, max_size=10),
    extra=st.lists(st.floats(0.0, 2.0), min_size=10, max_size=10),
)
def test_monotone_duality_random(slopes, extra):
    grid = np.linspace(0.0, 2.0, 11)
    f = convex_from_slopes(grid, slopes)
    g = SampledFunction.from_samples(
        grid, f.values + convex_from_slopes(grid, extra).values
    )
    dual = np.linspace(0.0, 5.0, 21)
    fs = legendre_transform(f, dual)
    gs = legendre_transform(g, dual)
    fin = np.isfinite(fs.values) & np.isfinite(gs.values)
    assert np.all(fs.values[fin] >= gs.values[fin] - 1e-10)


# ---------------------------------------------------------------------------
# Exhaustive kernels: bitwise the plain definitions, in bounded memory
# ---------------------------------------------------------------------------


def _kernel_inputs(n, seed):
    """Convex samples on ``n`` points: finite, and with a +inf tail."""
    rng = np.random.default_rng(seed)
    grid = np.array([0.0]) if n == 1 else np.linspace(0.0, 2.0, n)
    vals = np.concatenate(([0.0], np.cumsum(np.sort(rng.uniform(0.0, 3.0, n - 1)) * np.diff(grid))))
    tailed = vals.copy()
    tailed[max(1, int(0.6 * n)):] = np.inf
    return (SampledFunction.from_samples(grid, vals),
            SampledFunction.from_samples(grid, tailed),
            SampledFunction.from_samples(grid, 0.5 * grid**2))


def _direct_rows(fv, gv):
    return np.array([np.min(fv[: i + 1] + gv[i::-1]) for i in range(fv.size)])


@pytest.mark.parametrize("n", [1, 2, 3, 300, 1000])
def test_scan_is_bitwise_the_plain_sup(n):
    for f in _kernel_inputs(n, n):
        v, fv = f.grid[: f.finite_sup], f.values[: f.finite_sup]
        for dual in (None, np.array([0.0]), np.linspace(0.0, 4.0, 3 * n)):
            fs = legendre_transform(f, dual, method="scan")
            s = fs.grid
            plain = np.max(s[:, None] * v - fv, axis=1)
            fin = np.isfinite(fs.values)  # past a window's cap both are +inf
            assert np.array_equal(fs.values[fin], plain[fin])


@pytest.mark.parametrize("n", [2, 3, 300, 1000])
def test_direct_and_yosida_are_bitwise_the_plain_min(n):
    f, tailed, quad = _kernel_inputs(n, n)
    for a, b in ((f, tailed), (tailed, f), (f, quad), (tailed, tailed)):
        plain = _direct_rows(a.values, b.values)
        assert np.array_equal(inf_convolve_direct(a, b).values, plain)
    for eps in (0.05, 3.0):
        plain = _direct_rows(f.values, f.grid**2 / (2.0 * eps))
        assert np.array_equal(yosida(f, eps).values, plain)
    # unequal grids: the resampled pair on a shared grid
    g = SampledFunction.from_samples(np.linspace(0.0, 3.0, n + 1), np.linspace(0.0, 3.0, n + 1))
    f2, g2 = _common_pair(tailed, g)
    assert f2.grid.size > n
    plain = _direct_rows(f2.values, g2.values)
    assert np.array_equal(inf_convolve_direct(tailed, g).values, plain)


def test_exhaustive_kernels_run_in_bounded_memory():
    grid = np.linspace(0.0, 1.0, 2048)
    f = half_square(grid)  # 2047 distinct slopes: a 2049-point dual grid
    tracemalloc.start()
    try:
        fs = legendre_transform(f, method="scan")
        _, scan_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        inf_convolve_direct(f, f)
        _, direct_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fs.grid.size > 2000
    assert scan_peak <= 4 * 2**20
    assert direct_peak <= 2 * 2**20


def test_sweep_on_dual_points_packed_in_a_run_is_the_scan_in_bounded_memory():
    # every dual point within 1e-9 of the slope of a linear sample: each one's
    # window is the whole grid, and the windows together are 4M samples
    grid = np.linspace(0.0, 1.0, 2048)
    f = SampledFunction.from_samples(grid, 3.0 * grid)
    dual = np.concatenate(([0.0], 3.0 * (1.0 + 1e-12 * np.arange(1, 2049))))
    tracemalloc.start()
    try:
        sweep = legendre_transform(f, dual)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(sweep.values, legendre_transform(f, dual, method="scan").values)
    assert peak <= 2**20


_NO_NUMPY_MA_SCRIPT = """
import sys
import numpy as np
import rheokit.convex_core as cc
assert "numpy.ma" not in sys.modules
grid = cc.uniform_grid(3.0, 2048)
f = cc.SampledFunction.from_samples(grid, grid**1.7)
g = cc.SampledFunction.from_samples(grid, np.where(grid < 2.0, 0.3 * grid + grid**2, np.inf))
for fn in (f, g):
    cc.legendre_transform(cc.legendre_transform(fn), fn.grid)
cc.inf_convolve_via_conjugate(f, g)
cc.yosida(f, 0.1)
print("numpy.ma" in sys.modules)
"""


def test_transforms_never_load_numpy_ma():
    """The transforms, a biconjugate, the conjugate route of the infimal convolution
    and the Moreau envelope, on 2048-point samples in a fresh interpreter, finish
    without ``numpy.ma``, which takes milliseconds to import."""
    src = str(Path(rheokit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def _dual_grid_sequential(slopes, cap):
    """The dedupe rule point by point: keep what clears the last kept point."""
    pts = np.unique(np.concatenate(([0.0], slopes)))
    if np.isfinite(cap):
        pts = pts[pts <= cap * (1.0 + 1e-12) + 1e-300]
        if pts[-1] < cap:
            pts = np.append(pts, cap)
    keep = [pts[0]]
    for p in pts[1:]:
        if p > keep[-1] + 1e-13 * max(1.0, abs(p)):
            keep.append(p)
    end = keep[-1]
    keep.append(cap + 1e-6 * max(1.0, cap) if np.isfinite(cap) else end + max(1.0, end))
    return np.array(keep)


def test_dual_grid_drops_near_duplicates_like_the_sequential_rule():
    # a chain of steps each within tolerance of the one before, drifting
    # past the last kept point: a pairwise diff would keep only its start
    chain = 5.0 * (1.0 + 0.6e-13 * np.arange(12))
    kept = _dual_grid(chain, math.inf)
    assert np.array_equal(kept, _dual_grid_sequential(chain, math.inf))
    assert np.count_nonzero((kept >= chain[0]) & (kept <= chain[-1])) > 1

    rng = np.random.default_rng(11)
    for _ in range(300):
        base = np.sort(rng.uniform(0.0, 10.0, rng.integers(1, 40))) * 10.0 ** rng.integers(-3, 4)
        # clusters within 1e-13 relative and chains of steps inside the tolerance
        parts = [base]
        for c in rng.choice(base, rng.integers(0, 6)):
            steps = rng.uniform(0.0, 1.2e-13, rng.integers(1, 12)) * max(1.0, c)
            parts.append(c + np.cumsum(steps))
        slopes = np.concatenate(parts)
        for cap in (math.inf, float(slopes.max()), float(rng.choice(slopes)) * (1.0 + 1e-13)):
            assert np.array_equal(_dual_grid(slopes, cap), _dual_grid_sequential(slopes, cap))


# ---------------------------------------------------------------------------
# Radial collinearity: 2D brute force matches the scalar reduction
# ---------------------------------------------------------------------------


def brute_force_2d_infconv(radial_f, radial_g, v_vec, axis):
    """Min of f(|w|) + g(|v - w|) over all grid splits w in the plane."""
    wx, wy = np.meshgrid(axis, axis, indexing="ij")
    norm_w = np.hypot(wx, wy)
    norm_rest = np.hypot(v_vec[0] - wx, v_vec[1] - wy)
    return float(np.min(radial_f(norm_w) + radial_g(norm_rest)))


def test_radial_collinearity_2d():
    sigma_a, d = 1.0, 1.0
    radial_f = lambda r: sigma_a * r
    radial_g = lambda r: 0.5 * d * r**2
    axis = np.linspace(-2.5, 2.5, 101)
    h = axis[1] - axis[0]
    scalar_grid = np.arange(0.0, 2.5 + h / 2, h)
    f1 = SampledFunction.from_samples(scalar_grid, radial_f(scalar_grid))
    g1 = SampledFunction.from_samples(scalar_grid, radial_g(scalar_grid))
    conv = inf_convolve_direct(f1, g1)
    for r in (0.5, 1.0, 2.0):
        two_d = brute_force_2d_infconv(radial_f, radial_g, (r, 0.0), axis)
        assert two_d == pytest.approx(conv(r), abs=1e-12)
    # off-axis direction, same radius: rotational invariance up to grid error
    r = 1.5
    diag = (r / math.sqrt(2.0), r / math.sqrt(2.0))
    two_d = brute_force_2d_infconv(radial_f, radial_g, diag, axis)
    assert two_d == pytest.approx(conv(r), abs=d * h**2)
