"""Command-line surface: JSON models in, CSV curve data out.

Commands
--------
rheokit curve       effective viscosity and stress over a rate range
rheokit compare     rigorous vs harmonic-mean serial creep curves
rheokit equivalence three-element equivalence check and empirical gap
rheokit simulate    0D generalized Maxwell time integration
rheokit conjugate   conjugate of a single potential

Exit codes: 0 ok, 2 input/schema error (an unwritable ``--out`` or stdout too, such as a full
device), 3 solver/integrator failure, 4 equivalence regression, 1 where stdout's reader has
gone.  Output is deterministic: 17 significant digits, ``\\n`` line endings, ``inf`` as the
literal token.  ``curve`` walks its rate grid and ``compare`` fills every column on Python
floats at any size, and neither imports numpy.  A run builds only its command's parser, from
the table ``_COMMANDS`` (:func:`_parse`), and ``entry()`` runs with the cycle collector off.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from bisect import bisect_right
from itertools import chain

from ._numpy import _served, np
from .errors import InvalidInputError, NonConvergenceError, SchemaError
from .potentials import _number, conjugate_analytic, value
from .rheology import Leaf, mu_eff_rigorous
from .schema import dump_model, dump_simulation, parse_model, parse_simulation

# Names served at their first use (PEP 562) by the module that defines them, so a command that
# runs none of them never compiles it.  Only tests and perfbench's hooks read the last three here.
_SERVED = {"simulate": "maxwell0d", "compare_columns": "_comparison",
           "equivalence_report": "_comparison", "mu_eff_formula": "_comparison",
           "serial_dif_dsl_stress": "_comparison", "stress_curve": "rheology"}
__getattr__ = _served(__name__, _SERVED)


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_EQUIVALENCE = 4


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write(out_path, text: str) -> None:
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except BrokenPipeError:  # no reader: entry() ends with status 1
        raise
    except OSError as exc:
        where = "stdout" if out_path is None else out_path
        raise InvalidInputError(f"cannot write {where}: {exc}") from exc


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
    sigma = [lo if lo == hi else 0.5 * lo + 0.5 * hi for lo, hi, _ in expr._walk(eps)]
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


def cmd_compare(args) -> int:
    from ._comparison import compare_columns
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


def cmd_equivalence(args) -> int:
    from ._comparison import equivalence_report
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
    run = sys.modules[__name__].simulate  # through the module, where a hook may wrap it
    t, _, e_el, sigma = run(model, drive, args.dt, args.t_end, e_el0).columns
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


# Each command's help line, function and options, which build its own parser and the whole tree
_COMMANDS = {
    "curve": ("mu_eff and stress over a rate range", cmd_curve, {
        "--model": dict(required=True, help="model JSON path"),
        "--eps-min": dict(type=float, default=0.01), "--eps-max": dict(type=float, default=10.0),
        "--samples": dict(type=int, default=200),
        "--out": dict(help="output CSV (default stdout)"),
        "--dump-model": dict(action="store_true")}),
    "compare": ("rigorous vs harmonic-mean serial creep", cmd_compare, {
        "--preset": dict(choices=["fig6"], help="fig6: the defaults"),
        "--d-dif": dict(type=float, default=1.0), "--d-dsl": dict(type=float, default=1.0),
        "--n-list": dict(default="2,3,inf",
                         help="creep exponents, each > 0 or inf (default 2,3,inf)"),
        "--eps-min": dict(type=float, default=3.4 / 200.0),
        "--eps-max": dict(type=float, default=3.4), "--samples": dict(type=int, default=200),
        "--out": {}}),
    "equivalence": ("three-element equivalence check", cmd_equivalence, {
        "--sigma-a": dict(type=float, required=True), "--d2": dict(type=float, required=True),
        "--d3": dict(type=float, required=True), "--out": {}}),
    "simulate": ("0D Maxwell time integration", cmd_simulate, {
        "--model": dict(required=True, help="simulation JSON path"),
        "--dt": dict(type=float, default=1e-3), "--t-end": dict(type=float, default=1.0),
        "--out": {}, "--dump-model": dict(action="store_true")}),
    "conjugate": ("conjugate of a leaf potential", cmd_conjugate, {
        "--model": dict(required=True), "--sigma-max": dict(type=float),
        "--samples": dict(type=int, default=256), "--out": {},
        "--dump-model": dict(action="store_true")}),
}


def _command(parser, name) -> argparse.ArgumentParser:
    for flag, options in _COMMANDS[name][2].items():
        parser.add_argument(flag, **options)
    parser.set_defaults(fn=_COMMANDS[name][1])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rheokit", description="Viscoplastic network models: "
                                 "curves, comparisons, 0D simulation.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        _command(sub.add_parser(name, help=summary), name)
    return ap


def _parse(argv):
    """``argv`` by its command's own parser, which the whole tree would hand the rest to, where
    that takes every argument; else by the whole tree, which reports what it does not take."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        ap = _command(argparse.ArgumentParser(prog=f"rheokit {argv[0]}"), argv[0])
        args, rest = ap.parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.fn(args)
    except InvalidInputError as exc:
        print(f"rheokit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergenceError as exc:
        print(f"rheokit: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    """Console script and ``python -m rheokit``: exit with ``main()``'s code, the cycle collector
    off (``python -m`` turns it off before it imports this module), as a run makes no cycle.  Once
    ``main()`` returns, the heap is frozen, atexit handlers run and stdout and stderr are flushed,
    then the process ends at ``os._exit``, skipping the interpreter's teardown.  ``SystemExit``
    and an exception take the interpreter's exit, with the heap frozen.  A stdout that fails, at
    a write or at the flush, ends the process with no traceback and the rest of the output
    dropped: with status 1 where its reader has gone, else with one input-error line and status
    2.  ``main()`` never freezes, never exits and leaves the collector as it is."""
    gc.disable()
    code = None
    try:
        code = main()
        gc.freeze()
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    except BrokenPipeError:  # the interpreter's own flush at exit writes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:  # stdout failed at the flush: one line, as for a failed write
        if code is None:
            raise
        print(f"rheokit: input error: cannot write stdout: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_INPUT)
    finally:
        gc.freeze()
