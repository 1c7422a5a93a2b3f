"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.
"""

import itertools
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import rheokit.cli as cli
import rheokit.convex_core as cc
from rheokit.maxwell0d import DriveProgram, MaxwellModel, simulate, step
from rheokit.potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    sample_potential,
    value,
)
from rheokit.rheology import (
    Formula,
    Leaf,
    Parallel,
    Serial,
    ThreeElementParams,
    map_serial_parallel_params,
    mu_eff_curve,
    mu_eff_formula,
    mu_eff_rigorous,
    serial_dif_dsl_stress,
    stress_curve,
    stress_of_strain_rate,
    three_element_parallel_serial,
    three_element_serial_parallel,
)

L = Leaf


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        print(f"\ncriterion {num} {'PASS' if ok else 'FAIL'}: {desc} [{dt:.2f}s]")


def bisect_oracle(fn, target, hi=1.0):
    """Self-contained monotone bisection, independent of the library."""
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


def test_criterion_1_figure6_reproduction(tmp_path):
    with criterion(1, "serial creep comparison curves match the bisection oracle"):
        out = str(tmp_path / "fig6.csv")
        t0 = time.perf_counter()
        rc = cli.main(["compare", "--preset", "fig6", "--out", out])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 1.0, f"compare took {elapsed:.2f}s, budget 1s"

        lines = Path(out).read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
        assert rows.shape[0] == 200
        eps = rows[:, 0]
        assert eps[0] > 0.0 and eps[-1] == 3.4

        col = {name: rows[:, i] for i, name in enumerate(header)}
        for n in (2.0, 3.0):
            sig_oracle = np.array(
                [bisect_oracle(lambda s: s**n + s, e) for e in eps]
            )
            name = f"n{int(n)}"
            rel_sig = np.abs(col[f"sig_rig_{name}"] - sig_oracle) / sig_oracle
            rel_mu = np.abs(col[f"mu_rig_{name}"] - sig_oracle / eps) / (sig_oracle / eps)
            assert np.max(rel_sig) <= 1e-8
            assert np.max(rel_mu) <= 1e-8
        sig_inf = np.minimum(1.0 * eps, 1.0)
        assert np.max(np.abs(col["sig_rig_inf"] - sig_inf)) <= 1e-8

        # spot checks through the rigorous tree solver
        for n in (2.0, 3.0):
            tree = Serial([L(Dashpot(1.0)), L(PowerLaw(1.0, n))])
            assert abs(stress_of_strain_rate(tree, 2.0).midpoint - 1.0) <= 1e-8
        vp = Serial([L(Dashpot(1.0)), L(PerfectPlastic(1.0))])
        assert abs(mu_eff_rigorous(vp, 2.0) - 0.5) <= 1e-8


def test_criterion_2_three_element_equivalence():
    with criterion(2, "rigorous three-element variants agree under the parameter map"):
        rng = np.random.default_rng(20260809)
        t0 = time.perf_counter()
        for _ in range(100):
            sa, d2, d3 = (float(x) for x in rng.uniform(0.1, 10.0, 3))
            base = ThreeElementParams(sa, d2, d3)
            tilde = map_serial_parallel_params(sa, d2, d3)
            eps_max = 5.0 * sa / d2
            eps = np.linspace(eps_max / 1000.0, eps_max, 1000)
            s1 = stress_curve(three_element_parallel_serial(base), eps)
            s2 = stress_curve(three_element_serial_parallel(tilde), eps)
            assert np.max(np.abs(s1 - s2)) <= 1e-10 * (sa + d2 + d3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"equivalence sweep took {elapsed:.2f}s, budget 2s"


def test_criterion_3_empirical_variant_gap():
    with criterion(3, "empirical variants differ by 1/6 at unit parameters, coincide as D3 -> 0"):
        tilde = map_serial_parallel_params(1.0, 1.0, 1.0)
        v1 = mu_eff_formula(Formula.EMP_VAR1, (1.0, 1.0, 1.0), 1.0)
        v2 = mu_eff_formula(Formula.EMP_VAR2, (tilde.sigma_a, tilde.D2, tilde.D3), 1.0)
        assert abs(abs(v1 - v2) - 1.0 / 6.0) <= 1e-12

        tiny = map_serial_parallel_params(1.0, 1.0, 1e-12)
        w1 = mu_eff_formula(Formula.EMP_VAR1, (1.0, 1.0, 1e-12), 1.0)
        w2 = mu_eff_formula(Formula.EMP_VAR2, (tiny.sigma_a, tiny.D2, tiny.D3), 1.0)
        assert abs(w1 - w2) < 1e-9


def test_criterion_4_rigorous_vs_empirical_divergence():
    with criterion(4, "rigorous and harmonic-mean serial creep differ by more than 0.1"):
        tree = Serial([L(Dashpot(1.0)), L(PowerLaw(1.0, 3.0))])
        rig = mu_eff_rigorous(tree, 2.0)
        emp = mu_eff_formula(Formula.EMP_DIF_DSL, (1.0, 1.0, 3.0), 2.0)
        assert abs(rig - 0.5) <= 1e-9
        assert abs(emp - 1.0 / (1.0 + 2.0 ** (2.0 / 3.0))) <= 1e-12
        assert rig - emp > 0.1


def _generic_sampled():
    grid = cc.uniform_grid()
    return Sampled(cc.SampledFunction.from_samples(grid, 0.3 * grid**2 + 0.1 * grid**3))


def test_criterion_5_convex_core_oracles():
    with criterion(5, "convex-core suite: biconjugation, route agreement, envelope, 2D check"):
        t0 = time.perf_counter()
        grid = cc.uniform_grid()  # 2048 points on [0, 10]
        catalog = [
            Dashpot(1.7),
            PerfectPlastic(1.3),
            PowerLaw(1.2, 3.0),
            Huber(1.5, 2.0),
            QuadPlusBall(0.9, 1.1),
            _generic_sampled(),
        ]
        sampled = [sample_potential(p, grid) for p in catalog]

        for f in sampled:
            fss = cc.legendre_transform(cc.legendre_transform(f), f.grid)
            m = min(f.finite_sup, fss.finite_sup)
            scale = max(1.0, float(np.max(np.abs(f.values[:m]))))
            assert np.max(np.abs(fss.values[: m - 1] - f.values[: m - 1])) <= 1e-8 * scale

        for fa, fb in itertools.combinations_with_replacement(sampled, 2):
            d = cc.inf_convolve_direct(fa, fb)
            v = cc.inf_convolve_via_conjugate(fa, fb)
            fin = np.isfinite(d.values)
            assert np.array_equal(fin, np.isfinite(v.values))
            scale = max(1.0, float(np.max(np.abs(d.values[fin]))))
            assert np.max(np.abs(d.values[fin] - v.values[fin])) <= 1e-8 * scale

        # Moreau envelope of the yield potential equals the closed form
        sig_a, d_mod = 1.3, 2.0
        h = grid[1] - grid[0]
        y = cc.yosida(sample_potential(PerfectPlastic(sig_a), grid), 1.0 / d_mod)
        expect = value(Huber(sig_a, d_mod), grid)
        assert np.max(np.abs(y.values - expect)) <= d_mod * h**2

        # 2D brute force on a 101 x 101 grid matches the radial reduction
        axis = np.linspace(-2.5, 2.5, 101)
        h2 = axis[1] - axis[0]
        wx, wy = np.meshgrid(axis, axis, indexing="ij")
        scalar_grid = np.arange(0.0, 2.5 + h2 / 2, h2)
        f1 = cc.SampledFunction.from_samples(scalar_grid, 1.0 * scalar_grid)
        g1 = cc.SampledFunction.from_samples(scalar_grid, 0.5 * scalar_grid**2)
        conv = cc.inf_convolve_direct(f1, g1)
        for r in (0.5, 1.0, 2.0):
            norm_w = np.hypot(wx, wy)
            norm_rest = np.hypot(r - wx, wy)
            two_d = float(np.min(1.0 * norm_w + 0.5 * norm_rest**2))
            assert abs(two_d - conv(r)) <= h2**2

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"convex suite took {elapsed:.2f}s, budget 10s"


def test_criterion_6_cardano_validation():
    with criterion(6, "closed-form cubic stress matches bisection at 1e-9 over the moduli grid"):
        eps = np.linspace(0.0, 10.0, 101)
        for d_dif in (0.1, 1.0, 10.0):
            for d_dsl in (0.1, 1.0, 10.0):
                closed = serial_dif_dsl_stress(d_dif, d_dsl, 3, eps, mode="closed")
                numeric = serial_dif_dsl_stress(d_dif, d_dsl, 3, eps, mode="numeric")
                rel = np.abs(closed - numeric) / np.maximum(np.abs(numeric), 1e-300)
                rel[numeric == 0.0] = np.abs(closed[numeric == 0.0])
                assert np.max(rel) <= 1e-9


def test_criterion_7_maxwell_integrator():
    with criterion(7, "relaxation, first-order convergence, yield cap, steady state"):
        t0 = time.perf_counter()
        m = MaxwellModel(1.0, [Dashpot(1.0)])
        ts = simulate(m, DriveProgram.constant(0.0), 1e-4, 1.0, e_el0=1.0)
        assert abs(float(ts.sigma[-1]) - math.exp(-1.0)) <= 1e-3

        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            s = simulate(m, DriveProgram.constant(0.0), dt, 1.0, e_el0=1.0)
            errs.append(abs(float(s.sigma[-1]) - math.exp(-1.0)))
        for i in range(2):
            order = math.log2(errs[i] / errs[i + 1])
            assert abs(order - 1.0) <= 0.1

        sig_a = 1.0
        my = MaxwellModel(1.0, [Huber(sig_a, 1.0)])
        capped = simulate(my, DriveProgram.constant(1.0), 1e-3, 20.0)
        assert np.max(np.abs(capped.sigma)) <= sig_a + 1e-12 * sig_a

        elements = [Dashpot(1.5), PowerLaw(1.0, 3.0)]
        mm = MaxwellModel(2.0, elements)
        e = 0.0
        dt = 0.01
        for _ in range(100_000):
            e_new = step(mm, e, 0.7, dt)
            if abs(e_new - e) / dt < 1e-10:
                e = e_new
                break
            e = e_new
        sigma_ss = mm.E * e
        sigma_rig = stress_of_strain_rate(Serial([L(p) for p in elements]), 0.7).midpoint
        assert abs(sigma_ss - sigma_rig) <= 1e-6 * sigma_rig

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"integrator checks took {elapsed:.2f}s, budget 5s"


def _random_tree(rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return L(Dashpot(float(rng.uniform(0.1, 10.0))))
        return L(PerfectPlastic(float(rng.uniform(0.1, 10.0))))
    kids = [_random_tree(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))]
    if rng.random() < 0.5:
        return Parallel(kids)
    kids.append(L(Dashpot(float(rng.uniform(0.1, 10.0)))))
    return Serial(kids)


def test_criterion_8_shear_thinning_monotonicity():
    with criterion(8, "effective viscosity of plastic/dashpot composites never increases"):
        rng = np.random.default_rng(1234)
        eps = np.linspace(10.0 / 500.0, 10.0, 500)
        for _ in range(50):
            tree = _random_tree(rng)
            mu = mu_eff_curve(tree, eps)
            slack = 1e-12 * np.maximum(1.0, mu[:-1])
            assert np.all(np.diff(mu) <= slack)


def test_compare_numeric_exponent_matches_bisection_oracle(tmp_path):
    """n = 3.5 has no closed form; the numeric root solve serves it."""
    out = str(tmp_path / "n35.csv")
    rc = cli.main(["compare", "--n-list", "3.5", "--d-dif", "2", "--d-dsl", "0.5",
                   "--eps-min", "1e-3", "--eps-max", "50", "--samples", "60", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    col = {name: rows[:, i] for i, name in enumerate(header)}
    eps = col["eps"]
    ref = np.array([bisect_oracle(lambda s: (s / 0.5) ** 3.5 + s / 2.0, e) for e in eps])
    assert np.max(np.abs(col["sig_rig_n3.5"] - ref) / ref) <= 1e-13
    assert np.max(np.abs(col["mu_rig_n3.5"] - ref / eps) / (ref / eps)) <= 1e-13
