"""Command-line surface: JSON models in, CSV curve data out.

Commands
--------
rheokit curve       effective viscosity and stress over a rate range
rheokit compare     rigorous vs harmonic-mean serial creep curves
rheokit equivalence three-element equivalence check and empirical gap
rheokit simulate    0D generalized Maxwell time integration
rheokit conjugate   conjugate of a single potential

Exit codes: 0 ok, 2 input/schema error, 3 solver/integrator failure,
4 equivalence regression.  Output is deterministic: 17 significant
digits, ``\\n`` line endings, ``inf`` as the literal token.  ``curve``
walks its rate grid on Python floats, never importing numpy, up to
``FLOAT_RATES`` rates, or ``WALK_RATES`` on a tree whose solves do not nest;
``compare`` fills every column on floats at any size and never imports numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from bisect import bisect_right
from itertools import chain

from ._numpy import np
from .errors import (
    InvalidInputError,
    NonConvergenceError,
    SchemaError,
)
from .maxwell0d import simulate
from .potentials import Dashpot, PowerLaw, _number, conjugate_analytic, value
from .rheology import (
    Formula,
    Leaf,
    Serial,
    ThreeElementParams,
    _depth,
    _dif_dsl_closed,
    map_serial_parallel_params,
    mu_eff_formula,
    mu_eff_rigorous,
    serial_dif_dsl_stress,  # unused: perfbench's closed-form hook patches this name here
    stress_curve,
    three_element_parallel_serial,
    three_element_serial_parallel,
)
from .schema import dump_model, dump_simulation, parse_model, parse_simulation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_EQUIVALENCE = 4

# `curve` walks its grid on floats, without numpy, up to WALK_RATES rates (below the cost of
# numpy) on trees whose solves do not nest, and up to FLOAT_RATES on others: below the
# crossover measured on trees of solve depth 2 to 6, as a walk's cost per rate grows with depth.
FLOAT_RATES, WALK_RATES = 256, 16_384


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write(out_path, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header, columns) -> str:
    """Rows of equal-length columns.  One may be a tuple of ``(value, count)`` runs: each
    run's value is formatted once, into the row template that its rows share."""
    fields = ["%.17g"] * len(columns)
    cols = [c.tolist() if hasattr(c, "tolist") else c for c in columns]  # arrays to floats
    k = next((i for i, c in enumerate(cols) if type(c) is tuple), None)
    if k is None:
        rows = (",".join(fields) + "\n") * len(cols[0])
    else:
        rows = "".join((",".join([*fields[:k], "%.17g" % v, *fields[k + 1:]]) + "\n") * n
                       for v, n in cols.pop(k))
    return ",".join(header) + "\n" + rows % tuple(chain.from_iterable(zip(*cols)))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _eps_grid(eps_min, eps_max, samples):
    if eps_min < 0 or not (eps_min < eps_max < math.inf) or samples < 2:
        raise InvalidInputError(
            "need --eps-min >= 0, --eps-min < --eps-max < inf and --samples >= 2"
        )
    return _linspace(eps_min, eps_max, int(samples))


def _linspace(start, stop, num):
    """``np.linspace(start, stop, num)`` in Python floats, bit for bit: ``i * step +
    start``, or ``i / div * delta + start`` where the step underflows to 0, then ``stop``."""
    div, delta = num - 1, stop - start
    step = delta / div
    return [i * step + start if step else i / div * delta + start for i in range(div)] + [stop]


def cmd_curve(args) -> int:
    expr = parse_model(_load_json(args.model))
    if args.dump_model:
        _write(args.out, _dump_json(dump_model(expr)))
        return EXIT_OK
    eps = _eps_grid(args.eps_min, args.eps_max, args.samples)
    if args.samples <= (WALK_RATES if _depth(expr) <= 1 else FLOAT_RATES):
        sigma = [lo if lo == hi else 0.5 * lo + 0.5 * hi for lo, hi, _ in expr._walk(eps)]
    else:
        sigma = stress_curve(expr, eps).tolist()
    mu = [s / e if e > 0 else mu_eff_rigorous(expr, 0.0, limit=True) for e, s in zip(eps, sigma)]
    _write(args.out, _csv(["eps", "mu_eff", "sigma"], [eps, mu, sigma]))
    return EXIT_OK


def _parse_n_list(text):
    out = []
    for tok in text.split(","):
        try:
            n = float(tok)
        except ValueError:
            n = math.nan
        if not n > 0:
            raise InvalidInputError(f"n-list entries must be numbers > 0 or inf, got {tok!r}")
        out.append(n)
    return out


def _n_suffix(n) -> str:
    return "inf" if math.isinf(n) else "n" + repr(n).removesuffix(".0")


def compare_columns(d_dif, d_dsl, n_list, eps):
    """Rigorous and harmonic-mean curves of the serial creep pair on a list of Python float
    rates, without numpy.  ``VP_MIN`` and ``EMP_DIF_DSL`` are the formulas' arithmetic
    (``math.sqrt`` where numpy takes ``** 0.5``), n in {1, 2, 3} the float kernel of
    ``serial_dif_dsl_stress``'s closed form, other n the tree's walk."""
    mus_rig, mus_emp, sig_rig, sig_emp = [], [], [], []
    for n in n_list:
        if math.isinf(n):
            sig = [e * min(d_dif, d_dsl / e) for e in eps]
        elif n in (1, 2, 3):
            sig = list(map(_dif_dsl_closed(d_dif, d_dsl, n), eps))
        else:
            tree = Serial([Leaf(Dashpot(d_dif)), Leaf(PowerLaw(d_dsl, n))])
            sig = [hi for _, hi, _ in tree._walk(eps)]
        p = 1.0 - 1.0 / n
        mu_emp = [1.0 / (1.0 / d_dif + (math.sqrt(e) if p == 0.5 else e**p) / d_dsl)
                  for e in eps]
        mus_rig.append([s / e for s, e in zip(sig, eps)])
        mus_emp.append(mu_emp)
        sig_rig.append(sig)
        sig_emp.append([m * e for m, e in zip(mu_emp, eps)])
    return mus_rig, mus_emp, sig_rig, sig_emp


def cmd_compare(args) -> int:
    n_list = _parse_n_list(args.n_list)
    args.d_dif, args.d_dsl = _number(args.d_dif, "--d-dif"), _number(args.d_dsl, "--d-dsl")
    if args.eps_min <= 0:
        raise InvalidInputError("compare needs eps_min > 0")
    eps = _eps_grid(args.eps_min, args.eps_max, args.samples)
    columns = compare_columns(args.d_dif, args.d_dsl, n_list, eps)
    header = [f"{name}_{_n_suffix(n)}" for name in ("mu_rig", "mu_emp", "sig_rig", "sig_emp")
              for n in n_list]
    _write(args.out, _csv(["eps", *header], [eps, *(c for group in columns for c in group)]))
    return EXIT_OK


def equivalence_report(sigma_a, d2, d3, n_grid=1000):
    """Rigorous three-element equivalence data and the empirical gap."""
    base = ThreeElementParams(sigma_a, d2, d3)
    tilde = map_serial_parallel_params(sigma_a, d2, d3)
    tree_a = three_element_parallel_serial(base)
    tree_b = three_element_serial_parallel(tilde)
    eps_max = 5.0 * base.sigma_a / base.D2
    eps = np.linspace(eps_max / n_grid, eps_max, n_grid)
    dev = np.max(np.abs(stress_curve(tree_a, eps) - stress_curve(tree_b, eps)))
    tol = 1e-10 * (base.sigma_a + base.D2 + base.D3)
    emp = {}
    for e in (0.5, 1.0, 2.0):
        v1 = mu_eff_formula(Formula.EMP_VAR1, (base.sigma_a, base.D2, base.D3), e)
        v2 = mu_eff_formula(Formula.EMP_VAR2, (tilde.sigma_a, tilde.D2, tilde.D3), e)
        emp[e] = abs(v1 - v2)
    return tilde, float(dev), tol, emp


def cmd_equivalence(args) -> int:
    tilde, dev, tol, emp = equivalence_report(_number(args.sigma_a, "--sigma-a"),
                                              _number(args.d2, "--d2"), _number(args.d3, "--d3"))
    ok = dev < tol
    lines = [
        f"sigma_a_tilde={_fmt(tilde.sigma_a)}",
        f"D2_tilde={_fmt(tilde.D2)}",
        f"D3_tilde={_fmt(tilde.D3)}",
        f"rigorous_max_dev={_fmt(dev)}",
        f"rigorous_tol={_fmt(tol)}",
    ]
    for e in sorted(emp):
        lines.append(f"empirical_dev_eps{_fmt(e)}={_fmt(emp[e])}")
    lines.append(f"status={'equivalent' if ok else 'BREACH'}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_EQUIVALENCE


def cmd_simulate(args) -> int:
    model, drive, e_el0 = parse_simulation(_load_json(args.model))
    if args.dump_model:
        _write(args.out, _dump_json(dump_simulation(model, drive, e_el0)))
        return EXIT_OK
    t, _, e_el, sigma = simulate(model, drive, args.dt, args.t_end, e_el0).columns
    segs = (*drive.segments, (math.inf, 0.0))  # rows past the last segment read 0
    ends = [bisect_right(t, t_end) for t_end, _ in segs]  # rows up to each segment's end
    rates = tuple((eps, hi - lo) for (_, eps), lo, hi in zip(segs, [0, *ends], ends))
    _write(args.out, _csv(["t", "eps", "e_el", "sigma"], [t, rates, e_el, sigma]))
    return EXIT_OK


def cmd_conjugate(args) -> int:
    expr = parse_model(_load_json(args.model))
    if args.dump_model:
        _write(args.out, _dump_json(dump_model(expr)))
        return EXIT_OK
    if not isinstance(expr, Leaf):
        raise SchemaError(
            "node", "conjugate takes a leaf model; curve data covers composites"
        )
    conj = conjugate_analytic(expr.p)
    sigma_max = args.sigma_max
    if sigma_max is None:
        sup = expr.p.stress_sup()
        sigma_max = min(2.0 * sup, sys.float_info.max) if sup < math.inf else 10.0
    if not (0 < sigma_max < math.inf) or args.samples < 2:
        raise InvalidInputError("need 0 < --sigma-max < inf and --samples >= 2")
    s = np.linspace(0.0, sigma_max, int(args.samples))
    vals = value(conj, s)
    _write(args.out, _csv(["sigma", "zeta_star"], [s, vals]))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rheokit",
        description="Viscoplastic network models: curves, comparisons, 0D simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="mu_eff and stress over a rate range")
    curve.add_argument("--model", required=True, help="model JSON path")
    curve.add_argument("--eps-min", dest="eps_min", type=float, default=0.01)
    curve.add_argument("--eps-max", dest="eps_max", type=float, default=10.0)
    curve.add_argument("--samples", type=int, default=200)
    curve.add_argument("--out", default=None, help="output CSV (default stdout)")
    curve.add_argument("--dump-model", dest="dump_model", action="store_true")
    curve.set_defaults(fn=cmd_curve)

    comp = sub.add_parser("compare", help="rigorous vs harmonic-mean serial creep")
    comp.add_argument("--preset", choices=["fig6"], default=None, help="fig6: the defaults")
    comp.add_argument("--d-dif", dest="d_dif", type=float, default=1.0)
    comp.add_argument("--d-dsl", dest="d_dsl", type=float, default=1.0)
    comp.add_argument("--n-list", dest="n_list", default="2,3,inf",
                      help="creep exponents, each > 0 or inf (default 2,3,inf)")
    comp.add_argument("--eps-min", dest="eps_min", type=float, default=3.4 / 200.0)
    comp.add_argument("--eps-max", dest="eps_max", type=float, default=3.4)
    comp.add_argument("--samples", type=int, default=200)
    comp.add_argument("--out", default=None)
    comp.set_defaults(fn=cmd_compare)

    eq = sub.add_parser("equivalence", help="three-element equivalence check")
    eq.add_argument("--sigma-a", dest="sigma_a", type=float, required=True)
    eq.add_argument("--d2", type=float, required=True)
    eq.add_argument("--d3", type=float, required=True)
    eq.add_argument("--out", default=None)
    eq.set_defaults(fn=cmd_equivalence)

    sim = sub.add_parser("simulate", help="0D Maxwell time integration")
    sim.add_argument("--model", required=True, help="simulation JSON path")
    sim.add_argument("--dt", type=float, default=1e-3)
    sim.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    sim.add_argument("--out", default=None)
    sim.add_argument("--dump-model", dest="dump_model", action="store_true")
    sim.set_defaults(fn=cmd_simulate)

    conj = sub.add_parser("conjugate", help="conjugate of a leaf potential")
    conj.add_argument("--model", required=True)
    conj.add_argument("--sigma-max", dest="sigma_max", type=float, default=None)
    conj.add_argument("--samples", type=int, default=256)
    conj.add_argument("--out", default=None)
    conj.add_argument("--dump-model", dest="dump_model", action="store_true")
    conj.set_defaults(fn=cmd_conjugate)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInputError as exc:
        print(f"rheokit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergenceError as exc:
        print(f"rheokit: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    """Console script and ``python -m rheokit``: exit with ``main()``'s code.  Every exit (a
    code, ``SystemExit``, a traceback) freezes the heap first, so teardown leaves it to the OS
    uncollected; atexit handlers and stream flushes still run.  ``main()`` never freezes."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()
