"""One benchmark child process that runs rheokit in-process.

    python3 child.py [--trace SPANS] --cli <rheokit arguments>
    python3 child.py [--trace SPANS] --convex INPUT.npz --out OUT.npz [--setup-only]

``--cli`` calls ``rheokit.cli.main`` with the given arguments; the
untraced benchmark runs ``python -m rheokit`` instead, so this form is
only used with ``--trace``.  ``--convex`` builds sampled functions from
the generated arrays and makes the ``convex_core`` calls of one batch.
With ``--trace`` the child times ``import rheokit``, wraps each layer
(see ``tracing.HOOKS``) and writes spans and counters to SPANS as JSON.
The exit code is the CLI's, or 0 for a convex batch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# numpy is imported only after ``import rheokit`` has been timed, so that
# import.s includes it, as every user's start-up does.
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def convex_batch(cc, inputs, out_path, setup_only):
    """The calls of one convex-sampled batch; results saved for the checks."""
    import numpy as np

    f = cc.SampledFunction.from_samples(inputs["f_grid"], inputs["f_vals"])
    g = cc.SampledFunction.from_samples(inputs["g_grid"], inputs["g_vals"])
    if setup_only:
        results = {"f_vals": f.values, "g_vals": g.values}
    else:
        results = {}
        for tag, fn in (("f", f), ("g", g)):
            sweep = cc.legendre_transform(fn)
            scan = cc.legendre_transform(fn, method="scan")
            bi = cc.legendre_transform(sweep, fn.grid)
            results.update({f"{tag}_dual": sweep.grid, f"{tag}_sweep": sweep.values,
                            f"{tag}_scan": scan.values, f"{tag}_bi": bi.values})
        results["direct"] = cc.inf_convolve_direct(f, g).values
        results["via_conjugate"] = cc.inf_convolve_via_conjugate(f, g).values
        results["yosida"] = cc.yosida(f, float(inputs["yosida_eps"])).values
    np.savez(out_path, **results)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cli_argv = None
    if "--cli" in argv:
        cut = argv.index("--cli")
        argv, cli_argv = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace", default=None, help="write spans and counters here")
    ap.add_argument("--convex", default=None, help="generated input arrays (.npz)")
    ap.add_argument("--out", default=None, help="convex results (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import rheokit.cli as cli
    import rheokit.convex_core as cc
    import_s = time.perf_counter() - t0

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder(Path(args.trace).stem)
        tracing.install(rec)
        rec.open("cli" if cli_argv is not None else "batch", "invocation")
    rc = 0
    try:
        if cli_argv is not None:
            rc = cli.main(cli_argv)
        else:
            import numpy as np

            with np.load(args.convex) as data:
                inputs = dict(data)
            convex_batch(cc, inputs, args.out, args.setup_only)
    finally:
        if rec is not None:
            rec.close("invocation")
            record = {
                "import_s": import_s,
                "totals": rec.totals(),
                "counters": rec.counters,
                "absent": rec.absent,
                "spans": rec.dump(),
            }
            Path(args.trace).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
