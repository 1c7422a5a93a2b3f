"""Layered benchmark of rheokit: CLI time to solution, and where it goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program under test is the ``src/`` tree next to
this directory, run from source.  Each workload (see ``workloads.py``
and BENCHMARK.json) is a fixed list of invocations built from the seed.
One round runs each of them once, as a separate child process, one at a
time: ``python -m rheokit ...`` for the CLI workloads, ``child.py
--convex`` for ``convex_core``.  Rounds repeat until ``--seconds`` of
measured time have passed.  Every output is checked against the oracles
in ``oracles.py``; a rejected output is counted as failed and kept under
``_runs/``.

``--trace 0`` reports the end-to-end metrics, with every time scaled to
a nominal machine speed (see ``probe``).  ``--trace 1`` alternates
untraced rounds with traced ones, in which ``child.py --trace`` runs the
same invocations in-process with wrappers around each layer
(``tracing.HOOKS``), and reports the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it print each
metric by name and unit.  A record of the run (inputs drawn, machine,
per-invocation times, failures) is written to ``_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
CHILD = HERE / "child.py"

TIMEOUT_S = 150.0
TAIL_BEYOND = 10
# A run holds at least this many invocations, so that the one with
# TAIL_BEYOND beyond it sits at the 75th percentile or above.
MIN_INVOCATIONS = 4 * TAIL_BEYOND

# Machine speed.  On a shared machine the speed of the cores drifts by
# tens of percent within seconds and by more over minutes, so two sets of
# runs of the same code can differ by more than a bound.  The benchmark
# and its children run pinned to one CPU.  Between any two children the
# benchmark times a fixed kernel in its own process on that CPU (see
# probe()), and every child's time is divided by its slowdown: the mean of
# the probes just before and just after it, over PROBE_NOMINAL_S.  The
# raw times and every probe are in the record.
PROBE_NOMINAL_S = 0.014

# The rate each workload reports as work_per_s, by its own name and unit.
RATE_NAMES = {
    "points": ("points_per_s", "points/s"),
    "steps": ("steps_per_s", "steps/s"),
    "transforms": ("transforms_per_s", "calls/s"),
}

# Solve depths the workloads generate (depth 3 costs more than a whole run).
DEPTHS = (1, 2)


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Child:
    """Result of one child process."""

    def __init__(self, slot, wall, rss_mb, rc, out_path, err_path, trace_path=None):
        self.slot = slot
        self.wall = wall
        self.rss_mb = rss_mb
        self.rc = rc
        self.out_path = out_path
        self.err_path = err_path
        self.trace_path = trace_path
        self.slowdown = 1.0


def _command(slot, out_path, trace_path=None):
    py = sys.executable
    if slot.kind == "convex":
        cmd = [py, str(CHILD), "--convex", slot.args[0], "--out", str(out_path)]
        cmd += slot.args[1:]
        if trace_path:
            cmd += ["--trace", str(trace_path)]
        return cmd
    if trace_path:
        return [py, str(CHILD), "--trace", str(trace_path), "--cli",
                *slot.args, "--out", str(out_path)]
    return [py, "-m", "rheokit", *slot.args, "--out", str(out_path)]


def spawn(cmd, err_path: Path):
    """Run one child and wait for it: wall time, its own peak RSS in MB, exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    done = threading.Event()
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(TIMEOUT_S, lambda: done.is_set() or proc.kill())
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no child behind.
            done.set()
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        done.set()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _flow(s, d):
    return s / d


def probe() -> float:
    """Best of three timings of a fixed kernel of the three kinds of work
    the workloads spend their time on: scalar Python calls (tree solves,
    Maxwell steps), n^2 array work (convex_core) and float-to-text
    formatting (the CLI's CSV).  It runs no rheokit code."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0.5
        for i in range(20000):
            x = 0.999 * x + _flow(1.0, i + 1.0)
        a = np.linspace(0.0, 1.0, 512)
        for _ in range(4):
            np.max(a[:, None] * a[None, :] - a[None, :], axis=1)
        rows = np.linspace(1.0, 2.0, 6000).reshape(-1, 3).tolist()
        "\n".join(",".join(format(v, ".17g") for v in row) for row in rows)
        best = min(best, time.perf_counter() - t0)
    return best


def run_child(slot, workdir: Path, tag: str, trace=False) -> Child:
    ext = ".npz" if slot.kind == "convex" else ".out"
    out_path = workdir / f"{tag}{ext}"
    err_path = workdir / f"{tag}.err"
    trace_path = workdir / f"{tag}.trace.json" if trace else None
    wall, rss, rc = spawn(_command(slot, out_path, trace_path), err_path)
    return Child(slot, wall, rss, rc, out_path, err_path, trace_path)


class Verifier:
    """Checks every output.  A byte-identical repeat of an output gets the
    same verdict without a second check, and counts again; a rejected
    output is kept once."""

    def __init__(self, rejected_dir: Path):
        self.verdicts = {}
        self.info = {}
        self.attempted = 0
        self.failures = []
        self.rejected_dir = rejected_dir

    def __call__(self, child: Child) -> bool:
        self.attempted += 1
        slot = child.slot
        keep = None
        if child.rc != 0:
            last = child.err_path.read_text(errors="replace").strip().splitlines()[-1:]
            reason = f"exit code {child.rc}" + (f": {last[0]}" if last else "")
        elif not child.out_path.exists():
            reason = "no output written"
        else:
            data = child.out_path.read_bytes()
            digest = (slot.name, hashlib.sha256(data).hexdigest())
            if digest not in self.verdicts:
                try:
                    if slot.kind == "convex":
                        with np.load(child.out_path) as npz:
                            verdict = slot.check(dict(npz))
                    else:
                        verdict = slot.check(data.decode("ascii"))
                except Exception as exc:  # a crashing check is a rejected output
                    verdict = False, f"check raised {type(exc).__name__}: {exc}", {}
                self.verdicts[digest] = verdict
                if not verdict[0]:
                    self.rejected_dir.mkdir(parents=True, exist_ok=True)
                    name = f"{slot.name}-{self.attempted}{child.out_path.suffix}"
                    keep = self.rejected_dir / name
                    shutil.copyfile(child.out_path, keep)
            ok, reason, info = self.verdicts[digest]
            if ok:
                self.info[slot.name] = info
                return True
        self.failures.append({"slot": slot.name, "reason": reason,
                              "kept": str(keep) if keep else None})
        return False


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Runner:
    """Runs children one at a time, checks each output, and times the
    machine's speed between any two children."""

    def __init__(self, workdir: Path, verify):
        self.workdir = workdir
        self.verify = verify
        self.probes = [probe()]

    def child(self, slot, tag, trace=False) -> Child:
        child = run_child(slot, self.workdir, tag, trace)
        self.probes.append(probe())
        child.slowdown = (self.probes[-2] + self.probes[-1]) / (2.0 * PROBE_NOMINAL_S)
        self.verify(child)
        return child

    def round(self, wl, index, trace=False):
        return [self.child(slot, f"{slot.name}-r{index}", trace) for slot in wl.slots]


def tail(values):
    """Value with TAIL_BEYOND samples above it, and its percentile."""
    xs = sorted(values)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(setups, rounds, scaled=True):
    """End-to-end metrics; with ``scaled``, every child's time is divided
    by its slowdown."""

    def t(c):
        return c.wall / c.slowdown if scaled else c.wall

    walls = [t(c) for children in rounds for c in children]
    work = sum(c.slot.work for children in rounds for c in children)
    tail_s, pct = tail(walls)
    return {
        "setup_s": (statistics.median(t(c) for c in setups), "s"),
        # A mean: on a shared machine the speed drifts within a run, and
        # the mean of a few rounds follows that drift less than their median.
        "wall_s": (statistics.fmean(sum(t(c) for c in r) for r in rounds), "s"),
        "work_per_s": (work / sum(walls), "1/s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(c.rss_mb for children in rounds for c in children), "MB"),
    }, {"invocations": len(walls), "tail_percentile": pct, "rounds": len(rounds)}


def _round_layers(children):
    """Per-layer self times, call counts and counters summed over one traced round."""
    times, calls, counts = {}, {}, {}
    imports, absent = [], {}
    for c in children:
        if not c.trace_path.exists():  # the child failed; counted by the Verifier
            continue
        rec = json.loads(c.trace_path.read_text())
        imports.append(rec["import_s"])
        absent.update(rec["absent"])
        solve_s = 0.0
        for name, (s, n) in rec["totals"].items():
            if name == "cli":
                # The invocation's root span; its self time is cli's own
                # work only when the child ran the CLI.
                name = "cli.self" if c.slot.kind == "cli" else None
            if name:
                times[name] = times.get(name, 0.0) + s
                calls[name] = calls.get(name, 0) + n
            if name == "rheology.solve":
                solve_s = s
        depth = f"rheology.solve_depth{c.slot.meta.get('depth', 0)}"
        times[depth] = times.get(depth, 0.0) + solve_s
        for name, v in rec["counters"].items():
            counts[name] = counts.get(name, 0) + v
    return {"times": times, "calls": calls, "counts": counts, "imports": imports,
            "absent": absent}


def _round_wall(children, scaled=False):
    return sum(c.wall / c.slowdown if scaled else c.wall for c in children)


def per_layer(traced, untraced):
    """Per-layer metrics: times are medians over traced rounds, counts per round."""
    rounds = [_round_layers(children) for children in traced]

    def time_of(name, kind="times"):
        return statistics.median(r[kind].get(name, 0.0) for r in rounds)

    calls, counts = rounds[0]["calls"], rounds[0]["counts"]
    m = {"import.s": (statistics.median(x for r in rounds for x in r["imports"]), "s")}
    for name, suffix in tracing.span_metrics():
        if suffix == "calls":
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
        else:
            m[f"{name}.{suffix}"] = (time_of(name), "s")
    points = counts.get("rheology.points", 0)
    leaf = counts.get("rheology.leaf_calls", 0)
    m["rheology.points"] = (points, "count")
    for d in DEPTHS:
        m[f"rheology.solve_depth{d}.s"] = (time_of(f"rheology.solve_depth{d}"), "s")
    m["rheology.leaf_calls"] = (leaf, "count")
    m["rheology.leaf_calls_per_point"] = (leaf / points if points else 0.0, "count/point")
    steps = counts.get("maxwell0d.step.calls", 0)
    step_s = time_of("maxwell0d.step.s", "counts")
    m["maxwell0d.step.s"] = (step_s, "s")
    m["maxwell0d.steps"] = (steps, "count")
    m["maxwell0d.step_us"] = (1e6 * step_s / steps if steps else 0.0, "us")
    m["cli.csv.bytes"] = (counts.get("cli.csv.bytes", 0), "B")
    m["cli.self_s"] = (time_of("cli.self"), "s")
    m["convex_core.pairs"] = (counts.get("convex_core.pairs", 0), "pairs_computed")
    traced_s = statistics.median(_round_wall(r, scaled=True) for r in traced)
    untraced_s = statistics.median(_round_wall(r, scaled=True) for r in untraced)
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    exact = ("rheology.leaf_calls", "rheology.points", "maxwell0d.step.calls",
             "convex_core.pairs", "cli.csv.bytes")
    counts_repeat = all(r["counts"].get(k) == counts.get(k) for r in rounds for k in exact)
    absent = {}
    for r in rounds:
        absent.update(r["absent"])
    return m, {"traced_rounds": len(traced), "untraced_rounds": len(untraced),
               "counts_repeat": counts_repeat, "absent": absent}


# ---------------------------------------------------------------------------
# Record
# ---------------------------------------------------------------------------


def git_commit():
    """Commit of the checkout when it is a git work tree of its own, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def why(workload):
    """The reason BENCHMARK.json gives for a workload."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None)


def machine():
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rheokit layered benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the benchmark and every child it starts, so that the
    # probes time the CPU the children run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "rheokit" / "__init__.py").is_file():
        _die(f"no rheokit sources at {SRC}; run from a checkout of the repository")
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{stem}-{os.getpid()}.work"
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, inputs, small=args.smoke)
        verify = Verifier(RUNS / f"{stem}-rejected")
        min_rounds = 1 if args.smoke else math.ceil(MIN_INVOCATIONS / len(wl.slots))
        setups, rounds, traced, untraced = [], [], [], []
        runner = Runner(workdir, verify)
        started = time.perf_counter()
        measured = 0.0
        if args.trace == 0:
            # One set-up run before each round, so that set-up is sampled
            # over the same stretch of time as the rounds.
            while measured < args.seconds or len(rounds) < min_rounds:
                setups.append(runner.child(wl.setup, f"setup{len(setups)}"))
                rounds.append(runner.round(wl, len(rounds)))
                measured += _round_wall(rounds[-1])
        else:
            while measured < args.seconds or not traced:
                untraced.append(runner.round(wl, len(untraced)))
                traced.append(runner.round(wl, len(traced), trace=True))
                measured += _round_wall(untraced[-1]) + _round_wall(traced[-1])
        elapsed = time.perf_counter() - started
        # Untimed, after the measurement: each known-defect input once,
        # checked by the same oracle, its verdicts kept apart.
        known = Verifier(RUNS / f"{stem}-known-defect")
        for slot in wl.known_defect:
            known(run_child(slot, workdir, f"{slot.name}-known"))

        if args.trace == 0:
            metrics, stats = end_to_end(setups, rounds)
            children = setups + [c for r in rounds for c in r]
            stats["slowdown"] = statistics.median(c.slowdown for c in children)
            stats["probes_s"] = runner.probes
            stats["raw"] = {k: v for k, (v, _) in end_to_end(setups, rounds, False)[0].items()}
        else:
            metrics, stats = per_layer(traced, untraced)
            spans = [s for children in traced for c in children
                     if c.trace_path.exists()
                     for s in json.loads(c.trace_path.read_text())["spans"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(verify.failures)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": wl.name, "why": why(wl.name), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "elapsed_s": elapsed, "machine": machine(), "generated": wl.meta,
        "checks": verify.info, "attempted": verify.attempted, "failed": failed,
        "failures": verify.failures, "stats": stats, "metrics": result,
        "known_defect": {"inputs": [s.meta for s in wl.known_defect],
                         "attempted": known.attempted, "failures": known.failures},
        "setup_walls_s": [c.wall for c in setups],
        "round_walls_s": [_round_wall(r) for r in rounds or traced],
        "invocations": [[c.slot.name, c.wall, c.slowdown, c.rss_mb]
                        for r in rounds or traced for c in r],
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(RUNS / f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    report(wl, args, metrics, stats, verify, known, record)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": verify.attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


def report(wl, args, metrics, stats, verify, known, record):
    mach = record["machine"]
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}  nproc={mach['nproc']} python={mach['python']} "
          f"numpy={mach['numpy']} commit={mach['git_commit']}")
    print(f"  inputs: depths {wl.meta['depth_histogram']}, scales {wl.meta['scales']}, "
          + ", ".join(f"{s['name']}={s['work']}" for s in wl.meta["slots"]))
    capped = {k: round(v.get("capped_share", 0.0), 3) for k, v in verify.info.items()
              if "capped_share" in v}
    if capped:
        print(f"  share of rows at a yield cap or saturated: {capped}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "work_per_s":
            alias, alias_unit = RATE_NAMES[wl.unit]
            name, unit, note = alias, alias_unit, "  (work_per_s)"
        elif name == "cmd_tail_s":
            note = (f"  (p{stats['tail_percentile']:.0f} of {stats['invocations']} "
                    f"invocations, {TAIL_BEYOND} beyond it)")
        elif name == "cmd_p50_s":
            note = f"  ({stats['invocations']} invocations in {stats['rounds']} rounds)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_walls_s'])} fresh processes)"
        elif name == "wall_s":
            note = "  (mean of the rounds)"
        print(f"  {name:42s} {value:>16.6g} {unit}{note}")
    if "slowdown" in stats:
        print(f"  times are scaled to the nominal machine speed; this run's median slowdown "
              f"{stats['slowdown']:.4f}; raw: "
              + ", ".join(f"{k}={v:.6g}" for k, v in stats["raw"].items()))
    for metric, target in sorted(stats.get("absent", {}).items()):
        print(f"  {metric:42s} absent (hook target {target} not found)")
    if args.trace:
        print(f"  counts repeat across traced rounds: {stats['counts_repeat']}")
    print(f"  fail_frac {verify.attempted and len(verify.failures) / verify.attempted:.4g} "
          f"({len(verify.failures)} failed of {verify.attempted} attempted)")
    for f in verify.failures[:5]:
        print(f"  FAILED {f['slot']}: {f['reason']}")
    if known.attempted:
        print(f"  known defect (ROADMAP item 4), untimed and not in fail_frac: "
              f"{len(known.failures)} of {known.attempted} geoscale outputs rejected")
        for f in known.failures:
            print(f"  REJECTED {f['slot']}: {f['reason']}")


if __name__ == "__main__":
    sys.exit(main())
