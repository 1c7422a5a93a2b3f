"""Seeded inputs for each workload, and the check each output gets.

A workload is a fixed list of eight slots.  The seed draws the continuous
values inside a slot (moduli, yield stresses, rate ranges, drive
lengths, unit-scale jitter).  What sets the amount of work (tree shape,
element kinds, power-law exponents, rate and step counts) is fixed per
slot, so two seeds ask for about the same work.  Across the slots of
one workload the inputs vary nesting depth, rate count, element mix,
drive program and unit scale, from unit order up to the SI geoscale of
the source paper (D ~ 1e21 Pa s, strain rates ~ 1e-15 /s).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# Unit scales: (stress scale S in Pa, strain-rate scale R in 1/s, elastic
# strain scale X).  A modulus of 1 in scaled units is D = S / R.  The
# Maxwell elastic modulus is E = S / X: about 3e10 Pa at geoscale, the
# shear modulus of crustal rock.
SCALES = {
    "unit": (1.0, 1.0, 1.0),
    "lab": (1e3, 1e-3, 1e-2),
    "geo": (1e7, 1e-14, 3e-4),
}

@dataclass
class Invocation:
    """One child process: a rheokit CLI command or a convex_core batch."""

    name: str
    kind: str                 # "cli" or "convex"
    args: list                # rheokit argv, or [spec path] for convex
    work: int                 # rows, steps or transforms it completes
    check: object             # callable(output text or npz) -> (ok, why, info)
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    unit: str                 # what one unit of work is
    setup: Invocation
    slots: list
    meta: dict
    # Inputs on which the program is known to give outputs its oracle
    # rejects.  They run once per run, untimed, and their verdicts are
    # reported apart from the measured invocations.
    known_defect: list = field(default_factory=list)


def _jitter(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


class _Scaler:
    """Turns unit-order element parameters into one unit scale."""

    def __init__(self, rng, scale):
        s, r, x = SCALES[scale]
        self.scale = scale
        self.S = s * _jitter(rng, 0.5, 2.0)
        self.R = r * _jitter(rng, 0.5, 2.0)
        self.X = x

    def dashpot(self, d):
        return {"kind": "dashpot", "D": d * self.S / self.R}

    def powerlaw(self, d, n):
        return {"kind": "powerlaw", "D": d * self.S / self.R ** (1.0 / n), "n": n}

    def plastic(self, a):
        return {"kind": "plastic", "sigma_a": a * self.S}

    def huber(self, a, d):
        return {"kind": "huber", "sigma_a": a * self.S, "D": d * self.S / self.R}


def leaf(p):
    return {"node": "leaf", "potential": p}


def serial(*kids):
    return {"node": "serial", "children": list(kids)}


def parallel(*kids):
    return {"node": "parallel", "children": list(kids)}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _curve_slot(name, doc, sc, rng, samples, inputs, n_check):
    eps_min = sc.R * _jitter(rng, 0.01, 0.1)
    eps_max = sc.R * _jitter(rng, 3.0, 10.0)
    model = _write_json(inputs / f"{name}.json", doc)
    args = ["curve", "--model", model, "--eps-min", repr(eps_min),
            "--eps-max", repr(eps_max), "--samples", str(samples)]

    def check(text):
        return oracles.check_curve(doc, eps_min, eps_max, samples, text, n_check)

    meta = {"depth": oracles.solve_depth(doc), "rates": samples, "scale": sc.scale,
            "stress_scale_Pa": sc.S, "rate_scale_per_s": sc.R}
    return Invocation(name, "cli", args, samples, check, meta)


def _dump_setup(slot: Invocation, doc) -> Invocation:
    args = [slot.args[0], "--model", slot.args[2], "--dump-model"]
    return Invocation("setup", "cli", args, 1, lambda text: oracles.check_dump(doc, text),
                      {"of": slot.name})


def nested_curves(seed, inputs: Path, small=False):
    """Depth-2 composites whose parallel nodes are not the shortcut form."""
    rng = np.random.default_rng([seed, 1])
    j = lambda: _jitter(rng, 0.5, 2)  # noqa: E731
    slots, docs = [], []
    n1 = lambda s: serial(  # noqa: E731
        parallel(leaf(s.powerlaw(j(), 2.5)), leaf(s.plastic(j()))), leaf(s.dashpot(j())))
    n2 = lambda s: serial(  # noqa: E731
        parallel(leaf(s.huber(j(), j())), leaf(s.plastic(j()))), leaf(s.powerlaw(j(), 1.5)))
    n3 = lambda s: parallel(  # noqa: E731
        serial(parallel(leaf(s.powerlaw(j(), 3.5)), leaf(s.plastic(j()))),
               leaf(s.dashpot(j()))),
        leaf(s.dashpot(0.1 * j())))
    n4 = lambda s: serial(  # noqa: E731
        parallel(leaf(s.dashpot(j())), leaf(s.huber(j(), j())), leaf(s.powerlaw(j(), 4.5))),
        leaf(s.powerlaw(j(), 1.5)))
    for name, scale, samples, build in (
        ("N1", "unit", 4, n1), ("N2", "lab", 8, n2), ("N3", "geo", 12, n3),
        ("N4", "geo", 16, n4), ("N5", "geo", 5, n1), ("N6", "unit", 10, n2),
        ("N7", "lab", 12, n3), ("N8", "unit", 16, n4),
    ):
        sc = _Scaler(rng, scale)
        doc = build(sc)
        slots.append(_curve_slot(name, doc, sc, rng, 3 if small else samples, inputs,
                                 n_check=4))
        docs.append(doc)
    return Workload("nested-curves", "points", _dump_setup(slots[0], docs[0]), slots,
                    _summary(slots))


def wide_curves(seed, inputs: Path, small=False):
    """Depth-1 composites in shortcut form plus the fig6 comparison."""
    rng = np.random.default_rng([seed, 2])
    j = lambda: _jitter(rng, 0.5, 2)  # noqa: E731
    slots, docs = [], []
    w1 = lambda s: serial(  # noqa: E731
        leaf(s.dashpot(j())), leaf(s.powerlaw(j(), 3.5)),
        parallel(leaf(s.plastic(j())), leaf(s.dashpot(j()))), leaf(s.huber(2 * j(), j())))
    w2 = lambda s: serial(  # noqa: E731
        parallel(leaf(s.plastic(j())), leaf(s.dashpot(j())), leaf(s.dashpot(j()))),
        leaf(s.powerlaw(j(), 1.5)))
    w3 = lambda s: serial(  # noqa: E731
        leaf(s.huber(j(), j())), leaf(s.powerlaw(j(), 4.5)), leaf(s.dashpot(j())))
    for name, scale, rates, build in (
        ("W1", "unit", 10_000, w1), ("W2", "lab", 10_000, w2), ("W3", "geo", 10_000, w3),
        ("W4", "geo", 10_000, w1), ("W5", "unit", 10_000, w2), ("W6", "lab", 10_000, w3),
    ):
        sc = _Scaler(rng, scale)
        doc = build(sc)
        slots.append(_curve_slot(name, doc, sc, rng, 2000 if small else rates, inputs,
                                 n_check=32))
        docs.append(doc)
    for name in ("C1", "C2"):
        slots.append(_compare_slot(name, _Scaler(rng, "geo"), rng, 1000 if small else 7_000))
    return Workload("wide-curves", "points", _dump_setup(slots[0], docs[0]), slots,
                    _summary(slots))


def _compare_slot(name, sc, rng, samples):
    d_dif = sc.S / sc.R * _jitter(rng, 0.5, 2)
    d_dsl = sc.S / sc.R ** (1.0 / 3.0) * _jitter(rng, 0.5, 2)
    eps_min = sc.R * _jitter(rng, 0.01, 0.02)
    eps_max = sc.R * _jitter(rng, 3.0, 4.0)
    n_list = [2.0, 3.0, math.inf]
    args = ["compare", "--preset", "fig6", "--d-dif", repr(d_dif), "--d-dsl", repr(d_dsl),
            "--eps-min", repr(eps_min), "--eps-max", repr(eps_max),
            "--samples", str(samples), "--n-list", "2,3,inf"]

    def check(text):
        return oracles.check_compare(d_dif, d_dsl, n_list, eps_min, eps_max, samples, text)

    meta = {"depth": 0, "rates": samples, "scale": sc.scale,
            "stress_scale_Pa": sc.S, "rate_scale_per_s": sc.R}
    return Invocation(name, "cli", args, samples, check, meta)


def maxwell_long(seed, inputs: Path, small=False):
    """E plus dashpot, power-law, Huber and plastic elements, load/hold/reverse.

    The measured slots are at unit and lab scale.  At geoscale a step
    moves the elastic strain by ~1e-7, and the step solver's absolute
    1e-15 tolerance (ROADMAP item 4) puts some steps outside the oracle's
    tolerance, so the geoscale slots G1-G4 are the known-defect inputs.
    """
    rng = np.random.default_rng([seed, 3])
    slots, docs = [], []
    m1, m2 = (2.5, ("dashpot", "powerlaw", "huber")), (3.5, ("powerlaw", "huber", "dashpot"))
    m3, m4 = (4.5, ("dashpot", "powerlaw", "huber")), (1.5, ("dashpot", "powerlaw", "plastic"))
    for name, scale, steps, (n_exp, kinds) in (
        ("M1", "unit", 6_000, m1), ("M2", "lab", 6_000, m2), ("M3", "lab", 6_000, m3),
        ("M4", "unit", 6_000, m4), ("M5", "lab", 6_000, m1), ("M6", "unit", 6_000, m2),
        ("M7", "unit", 6_000, m3), ("M8", "lab", 6_000, m4),
        ("G1", "geo", 6_000, m3), ("G2", "geo", 6_000, m4), ("G3", "geo", 6_000, m1),
        ("G4", "geo", 6_000, m2),
    ):
        sc = _Scaler(rng, scale)
        elements = []
        for kind in kinds:
            if kind == "dashpot":
                elements.append(sc.dashpot(_jitter(rng, 0.5, 2)))
            elif kind == "powerlaw":
                elements.append(sc.powerlaw(_jitter(rng, 0.5, 2), n_exp))
            elif kind == "huber":
                elements.append(sc.huber(_jitter(rng, 0.3, 1), _jitter(rng, 0.5, 2)))
            else:
                elements.append(sc.plastic(_jitter(rng, 0.3, 1)))
        # Times in relaxation units X / R: load, hold, then reverse.
        tau = sc.X / sc.R
        t1 = tau * _jitter(rng, 1, 2)
        t2 = t1 + tau * _jitter(rng, 0.5, 1)
        t3 = t2 + tau * _jitter(rng, 1, 2)
        rate = sc.R * _jitter(rng, 0.5, 2)
        doc = {"E": sc.S / sc.X, "elements": elements,
               "drive": [{"t_end": t1, "eps": rate}, {"t_end": t2, "eps": 0.0},
                         {"t_end": t3, "eps": -rate}],
               "e_el0": 0.0}
        dt = t3 / (400 if small else steps)
        model = _write_json(inputs / f"{name}.json", doc)
        args = ["simulate", "--model", model, "--dt", repr(dt), "--t-end", repr(t3)]
        nsteps = int(oracles.step_schedule(dt, t3).size)

        def check(text, doc=doc, dt=dt, t3=t3):
            return oracles.check_simulate(doc, dt, t3, text)

        meta = {"depth": 0, "steps": nsteps, "scale": scale, "elements": list(kinds),
                "drive": "load/hold/reverse"}
        slots.append(Invocation(name, "cli", args, nsteps, check, meta))
        docs.append(doc)
    known = [s for s in slots if s.meta["scale"] == "geo"]
    slots = [s for s in slots if s.meta["scale"] != "geo"]
    return Workload("maxwell-long", "steps", _dump_setup(slots[0], docs[0]), slots,
                    _summary(slots), known)


CONVEX_CALLS = 9  # per batch: 2 x (sweep, scan, biconjugate) + direct + via + yosida


def _sampled(rng, grid, kind):
    """A convex function sampled on ``grid``, minimum 0 at 0."""
    n, r_max = grid.size, grid[-1]
    scale = _jitter(rng, 1e-2, 1e6)
    if kind == "powerlaw":
        return scale * (grid / r_max) ** 1.4
    slopes = np.sort(rng.uniform(0.0, 1.0, n - 1)) * scale / r_max
    vals = np.concatenate(([0.0], np.cumsum(slopes * grid[1])))
    if kind == "capped":  # indicator-type: +inf past a cut inside the window
        vals[int(n * rng.uniform(0.5, 0.8)):] = np.inf
    return vals


def convex_sampled(seed, inputs: Path, small=False):
    """Library calls on seeded sampled convex functions."""
    rng = np.random.default_rng([seed, 4])
    slots, datas = [], []
    for name, n, kinds in (
        ("X1", 2048, ("random", "powerlaw")),
        ("X2", 2560, ("powerlaw", "capped")),
        ("X3", 3072, ("random", "random")),
        ("X4", 2048, ("capped", "random")),
        ("X5", 2048, ("powerlaw", "random")),
        ("X6", 2048, ("capped", "capped")),
        ("X7", 2048, ("random", "capped")),
        ("X8", 2560, ("powerlaw", "powerlaw")),
    ):
        n = 128 if small else n
        # One shared uniform grid, as the direct route requires.
        grid = np.linspace(0.0, _jitter(rng, 0.1, 100.0), n)
        f_vals = _sampled(rng, grid, kinds[0])
        g_vals = _sampled(rng, grid, kinds[1])
        # Envelope width: a few percent of the grid at the function's own slope.
        eps = grid[-1] ** 2 / np.max(f_vals[np.isfinite(f_vals)]) * _jitter(rng, 0.01, 0.1)
        data = {"f_grid": grid, "f_vals": f_vals, "g_grid": grid, "g_vals": g_vals,
                "yosida_eps": np.float64(eps)}
        path = inputs / f"{name}.npz"
        np.savez(path, **data)

        def check(out, data=data):
            return oracles.check_convex(data, out)

        meta = {"depth": 0, "grid_points": n, "kinds": list(kinds), "transforms": CONVEX_CALLS}
        slots.append(Invocation(name, "convex", [str(path)], CONVEX_CALLS, check, meta))
        datas.append(data)

    def setup_check(out, data=datas[0]):
        same = all(np.array_equal(out[k], data[k]) for k in ("f_vals", "g_vals"))
        return same, "" if same else "built inputs differ from the generated ones", {}

    setup = Invocation("setup", "convex", [slots[0].args[0], "--setup-only"], 1,
                       setup_check, {"of": slots[0].name})
    return Workload("convex-sampled", "transforms", setup, slots, _summary(slots))


def _summary(slots):
    depths = Counter(s.meta.get("depth", 0) for s in slots)
    return {
        "slots": [{"name": s.name, "work": s.work, **s.meta} for s in slots],
        "depth_histogram": {str(k): v for k, v in sorted(depths.items())},
        "scales": sorted({s.meta["scale"] for s in slots if "scale" in s.meta}),
    }


WORKLOADS = {
    "nested-curves": nested_curves,
    "wide-curves": wide_curves,
    "maxwell-long": maxwell_long,
    "convex-sampled": convex_sampled,
}
