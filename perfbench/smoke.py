"""Smoke test of the benchmark at a tiny size, so that it cannot rot.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` in both trace modes, and checks
that the last line is the result object with exactly the metrics, and
units, that BENCHMARK.json names.  Takes about a minute; it is not part
of the repository's pytest run.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no result line:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    return res


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [*spec["command"], "--workload", w["name"], "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode:
                fail(f"{w['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            res = result_of(proc)
            want = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail(f"{w['name']} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                     "differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{w['name']} trace {trace}: {res['failed']} of {res['attempted']} failed")
            print(f"smoke: {w['name']} trace {trace}: ok ({res['attempted']} invocations)")


if __name__ == "__main__":
    main()
