#!/usr/bin/env python3
"""Self-test of the benchmark's output.

Runs perfbench/run.py on each workload (all of BENCHMARK.json's, or those
named on the command line) with --trace 0 and --trace 1 and checks:

  * the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics; the run is correct with no failed
    operation;
  * every end-to-end (--trace 0) or per-layer (--trace 1) metric of
    BENCHMARK.json is present, with its unit, and nothing else;
  * no end-to-end metric is 0;
  * on a reduction, the pdat.* stages plus pdat.unattributed_s sum to the
    wall time of the traced run_pdat call, and pdat.unattributed_s is at
    most 10% of it.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD...]

Run it from the repository root. Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import OUT_ROOT, PDAT_STAGES  # noqa: E402


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload, trace, out, spec):
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(out) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(out)}")
    check(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1,
          f"{workload}: correct={out['correct']} failed={out['failed']}")
    metrics = out["metrics"]
    check(set(metrics) == {m["name"] for m in expected},
          f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        check(got.get("unit") == m["unit"], f"{workload}: {m['name']} unit {got.get('unit')}")
        check(isinstance(got.get("value"), (int, float)), f"{workload}: {m['name']} value")
        if not trace:
            check(got["value"] != 0, f"{workload}: end-to-end metric {m['name']} is 0")


def check_attribution(workload, seed, metrics):
    with open(os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace1", "raw.json")) as f:
        raw = json.load(f)
    if raw["kind"] != "reduce":
        return
    traced = [op for op in raw["ops"] if op["traced"]]
    check(len(traced) == 1, f"{workload}: expected one traced operation (use a short --seconds)")
    wall = traced[0]["wall_s"]
    parts = [metrics[f"pdat.{s}_s"]["value"] for s in PDAT_STAGES]
    unattributed = metrics["pdat.unattributed_s"]["value"]
    check(abs(sum(parts) + unattributed - wall) <= 1e-9 * max(1.0, wall),
          f"{workload}: stages {sum(parts)} + unattributed {unattributed} != wall {wall}")
    check(unattributed <= 0.1 * wall,
          f"{workload}: unattributed {unattributed:.3f} s is over 10% of {wall:.3f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            out = run(workload, args.seed, args.seconds, trace)
            check_metrics(workload, trace, out, spec)
            if trace:
                check_attribution(workload, args.seed, out["metrics"])
        print(f"selftest: {workload}: ok")


if __name__ == "__main__":
    main()
