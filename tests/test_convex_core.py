import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rheokit.convex_core import (
    SampledFunction,
    SubdiffInterval,
    fenchel_young_residual,
    inf_convolve_direct,
    inf_convolve_via_conjugate,
    legendre_transform,
    subdifferential,
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
