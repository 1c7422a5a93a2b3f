"""Every bit of the float path, hashed on seeded random trees and Maxwell runs.

For each stress/rate scale, seeded trees whose float solves nest 0 to 3 deep, over every
element kind, give their ``_walk`` rows along an ascending grid from rest, and
``stress_of_strain_rate`` and ``strain_rate_of_stress`` at three points each; seeded
element lists give the rows of a 200-step ``simulate`` run.  A SHA-256 over ``float.hex``
of all of them (a typed error by its name) is pinned, as is the number of trees skipped:
a tree whose outputs take more than ``_BUDGET`` leaf float-kernel calls, counted on a copy
of it whose leaves count their calls, is left out.  Like the CSV pins in
``test_schema_cli.py``, the hashes read the platform's libm (``pow``, ``log1p``, ``expm1``).
"""

import hashlib
import itertools
import random

import numpy as np
import pytest
from conftest import solve_depth

from rheokit import rheology
from rheokit.convex_core import SampledFunction
from rheokit.errors import NonConvergenceError
from rheokit.maxwell0d import DriveProgram, MaxwellModel, simulate
from rheokit.potentials import Dashpot, Huber, PerfectPlastic, PowerLaw, QuadPlusBall, Sampled
from rheokit.rheology import (Leaf, Parallel, Serial, strain_rate_of_stress,
                              stress_of_strain_rate)

_BUDGET = 20_000
_TREES = 15  # per solve depth 0-3, at each scale
_RUNS = 10  # simulate runs, at each scale
_KINDS = "DPWHQS"  # dashpot, plastic, power law, Huber, QuadPlusBall, Sampled

# (stress scale, rate scale): (SHA-256, trees skipped), taken when each candidate tree took a
# stream of its own; the same at the commit before, where Sampled's staircase was built in
# potentials and subdifferential had a second slope lookup
_FLOAT_BITS_PINNED = {
    (1.0, 1.0): ("9c833a5a465c35e758421ebb27f15285aec23e8c6a6c5fe3acabba9de4e9f3c2", 2),
    (1e3, 1e-3): ("4ce0a034d298d321e1e583bb50b43654bb316d836c8c174c740abb8648bee98e", 2),
    (1e7, 1e-14): ("593db857d0337219868982f8cd44910a1cffdda30a2676444526555a67848f2b", 1),
    (1e150, 1e-150): ("bcaec7ec6c495c71f298b85ae1beacd1a3dc043f10d41eec2af7e25adfc836f0", 5),
}


class _OverBudget(Exception):
    pass


def _element(rng, kind, S, R):
    """One element of ``kind`` with unit-order moduli, its stresses scaled by ``S`` and its
    rates by ``R``."""
    mod = lambda: 10.0 ** rng.uniform(-1.0, 1.0)  # noqa: E731
    if kind == "D":
        return Dashpot(mod() * S / R)
    if kind == "P":
        return PerfectPlastic(mod() * S)
    if kind == "W":
        n = rng.choice((1.5, 2.5, 3.5, 4.5, rng.uniform(1.2, 6.0)))
        return PowerLaw(mod() * S / R ** (1.0 / n), n)
    if kind == "H":
        return Huber(mod() * S, mod() * S / R)
    if kind == "Q":  # a stress law up to a largest rate, where it turns vertical
        return QuadPlusBall(mod() * S / R, mod() * R)
    u = np.linspace(0.0, 10.0, 17)
    return Sampled(SampledFunction.from_samples(u * R, (0.3 * u**2 + 0.1 * u**3) * mod() * S * R))


def _recipe(rng, depth, S, R):
    """A tree as nested ``(kind, children)`` with its elements, ``depth`` levels deep."""
    if depth == 0:
        kind = rng.choice(_KINDS[:5] if rng.random() < 0.9 else _KINDS)
        return ("leaf", _element(rng, kind, S, R))
    kids = [_recipe(rng, depth - 1 if i == 0 else rng.randint(0, depth - 1), S, R)
            for i in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        return ("parallel", kids)
    return ("serial", kids + [("leaf", _element(rng, rng.choice("DW"), S, R))])


def _build(recipe, calls=None):
    """The tree of ``recipe``; with ``calls``, its leaves count their float-kernel calls in
    ``calls[0]`` before any parent binds them, and raise :class:`_OverBudget` past it."""
    kind, body = recipe
    if kind == "parallel":
        return Parallel([_build(r, calls) for r in body])
    if kind == "serial":
        return Serial([_build(r, calls) for r in body])
    leaf = Leaf(body)
    if calls is not None:
        def counted(f):
            def law(x):
                calls[0] += 1
                if calls[0] > _BUDGET:
                    raise _OverBudget
                return f(x)

            return law

        flow, stress = counted(leaf._float_flow), counted(leaf._float_stress)
        leaf.__dict__.update(_float_flow=flow, _float_stress=stress,
                             _walk=lambda eps: list(map(stress, eps)))
    return leaf


def _hex(rows):
    return [x.hex() for row in rows for x in row]


def _outputs(tree, grid, rates, stresses):
    out = []
    for f, xs in ((tree._walk, [grid]), (lambda x: [_iv(stress_of_strain_rate(tree, x))], rates),
                  (lambda x: [_iv(strain_rate_of_stress(tree, x))], stresses)):
        for x in xs:
            try:
                out += _hex(f(x))
            except NonConvergenceError as exc:
                out.append(type(exc).__name__)
    return out


def _iv(iv):
    return (iv.lo, iv.hi)


def _trees(S, R, seed):
    """``_TREES`` recipes of each solve depth 0-3, with a grid, three rates and three
    stresses each.  Candidate ``i`` draws its recipe and grid from a stream of its own, seeded
    by ``seed`` and ``i``, so which candidates are kept depends on no other's solve depth."""
    want, got = {d: _TREES for d in range(4)}, []
    for i in itertools.count():
        if not any(want.values()):
            return got
        rng = random.Random(f"{seed}/{i}")
        recipe = _recipe(rng, rng.randint(0, 4), S, R)
        d = solve_depth(_build(recipe))
        if want.get(d, 0):
            want[d] -= 1
            grid = [0.0] + sorted(rng.uniform(1e-3, 10.0) * R for _ in range(12))
            got.append((recipe, grid, [x * R for x in (0.05, 1.0, 7.0)],
                        [x * S for x in (0.05, 1.0, 7.0)]))


def _runs(S, R, seed):
    """``_RUNS`` 200-step load/hold/reverse runs on random element lists, as rows."""
    rng, out = random.Random(seed), []
    for _ in range(_RUNS):
        kinds = [rng.choice(_KINDS[:5] if rng.random() < 0.9 else _KINDS)
                 for _ in range(rng.randint(1, 4))]
        E = 10.0 ** rng.uniform(-1.0, 1.0) * S
        m = MaxwellModel(E, [_element(rng, k, S, R) for k in kinds])
        dt, rate = rng.uniform(0.01, 0.1) / R, rng.uniform(0.2, 5.0) * R
        drive = DriveProgram([(70 * dt, rate), (130 * dt, 0.0), (float("inf"), -rate)])
        try:
            out += _hex(zip(*simulate(m, drive, dt, 200 * dt).columns))
        except NonConvergenceError as exc:
            out.append(type(exc).__name__)
    return out


def _float_bits(S, R):
    """The SHA-256 and the number of trees skipped at the scale ``(S, R)``."""
    seed = list(_FLOAT_BITS_PINNED).index((S, R))
    h, skipped = hashlib.sha256(), 0
    with np.errstate(all="ignore"):  # Sampled's float kernels set their own state
        for recipe, *args in _trees(S, R, 2900 + seed):
            try:
                counted = _outputs(_build(recipe, [0]), *args)
            except _OverBudget:
                skipped += 1
                continue
            plain = _outputs(_build(recipe), *args)
            assert plain == counted
            h.update(" ".join(plain).encode() + b"\n")
        h.update(" ".join(_runs(S, R, 2950 + seed)).encode())
    return h.hexdigest(), skipped


@pytest.mark.parametrize("S, R", list(_FLOAT_BITS_PINNED))
def test_float_path_bits_are_pinned(S, R):
    """The float path's bits on random trees and Maxwell runs, and the trees skipped, are
    those pinned; each tree's outputs are the same bits on a copy that calls every leaf's
    float kernels through a counting wrapper."""
    assert _float_bits(S, R) == _FLOAT_BITS_PINNED[S, R]


# The first 16 hex digits of the SHA-256 of each generated unit's source, by its shape (the
# frame, then its parts' kinds), taken while the templates were filled by a regular expression
_SOURCES_PINNED = {
    "inverse parallel call call graph": "cd744020cfae86ab",
    "inverse parallel call powerlaw": "6f6a3399f599df6b",
    "inverse parallel powerlaw graph": "ea9faa7d21871b48",
    "inverse serial call graph": "3697833d72dbd08d",
    "inverse serial graph powerlaw": "a284a316b3c6836d",
    "inverse serial powerlaw graph": "ea9faa7d21871b48",
    "law call call graph": "190a657a9763cd44",
    "law call graph": "a0bdb50a3bb7600b",
    "law call powerlaw": "6fddc86fab70cda9",
    "law graph": "1121636a35bd6e77",
    "law graph powerlaw": "4d13a3857732911c",
    "law powerlaw": "5d5e7405651c88e1",
    "law powerlaw graph": "19d0ac0669c0b870",
    "law row row": "8b5c039c851b09d9",
    "law row row row": "e5b11b277f825223",
    "step maxwell graph powerlaw": "ec6d81c04b23968c",
    "walk serial call graph": "16cf5718c020191b",
    "walk serial graph powerlaw": "b1050fe426929486",
    "walk serial powerlaw graph": "5baa43271cfa82bb",
}


def test_generated_sources_are_pinned(monkeypatch):
    """Every unit that walks, inverse and scalar calls of four trees, a lone power law's law
    and a ``simulate`` run generate, with graph, power-law, called and row parts, is
    generated from the same source bytes as pinned."""
    made = {}
    monkeypatch.setattr(rheology, "_MADE", made)  # a fresh cache: each shape is generated here
    D, P, W = Leaf(Dashpot(1.3)), Leaf(PerfectPlastic(0.6)), Leaf(PowerLaw(0.8, 2.5))
    for tree in (Serial([W, D]), Parallel([Serial([P, W]), Serial([D, W]), D]),
                 Serial([Parallel([W, P]), D]), Parallel([Serial([Parallel([W, P]), D]), W])):
        tree._walk([0.0, 0.5, 2.0])
        strain_rate_of_stress(tree, 0.7), stress_of_strain_rate(tree, 0.7)
    W.p._float_flow()(0.5)
    model = MaxwellModel(1.0, [Dashpot(1.3), PowerLaw(0.7, 2.5), Huber(0.6, 1.6)])
    simulate(model, DriveProgram([(1.0, 1.2)]), 0.25, 1.0)
    sources = {" ".join(key): make.__globals__["__loader__"].get_source(None)
               for key, make in made.items()}
    assert {key: hashlib.sha256(src.encode()).hexdigest()[:16]
            for key, src in sources.items()} == _SOURCES_PINNED
