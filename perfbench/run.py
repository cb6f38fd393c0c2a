#!/usr/bin/env python3
"""Runs one workload of the reduction benchmark.

Builds the harness (perfbench/harness.cpp plus the pdat library from src/)
into .bench_build/perfbench, runs one workload for a fixed measuring time,
checks its outputs and prints the metrics as the last line of stdout:

    python3 perfbench/run.py --workload ibex-rv32i --seed 0 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a run with the library's metrics/trace outputs on).
Run it from the repository root. Workloads and metrics are described in
perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_ROOT = os.path.join(".bench_build", "perfbench-out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
HARNESS_TIMEOUT_S = 170

# Pipeline stages reported as pdat.<stage>_s; the rest of run_pdat's wall
# time is pdat.unattributed_s.
PDAT_STAGES = ["restrict", "env_check", "annotate", "sim_filter", "induction", "rewire",
               "resynthesis"]

# Layers a workload kind never exercises; they report 0 there.
NOT_EXERCISED = {
    "reduce": ("fuzz.",),
    "fuzz": ("pdat.", "induction.", "runtime.", "candidates.", "sat.conflicts",
             "sat.propagations", "sat.decisions"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness", "-j", jobs],
                   check=True, stdout=sys.stderr)


def failures(raw):
    """Indices of failed operations, with the reason for each."""
    ops = raw["ops"]
    ref = ops[0]
    failed = {}
    for i, op in enumerate(ops):
        if op["error"]:
            failed[i] = op["error"]
        elif op["result"] != ref["result"] or op["netlist_hash"] != ref["netlist_hash"]:
            failed[i] = f"result differs from the run's first operation: {op['result']}"
    check_error = raw["check"]["error"]
    if raw["kind"] == "reduce" and not check_error and raw["check"]["programs"] == 0:
        check_error = "no program ran"
    if check_error:
        # The lockstep check ran on the first operation's core; every
        # operation that produced the same core failed with it.
        for i in range(len(ops)):
            failed.setdefault(i, "lockstep: " + check_error)
    return failed


def end_to_end(raw):
    ops = [op for op in raw["ops"] if not op["traced"]]
    result = raw["ops"][0]["result"]
    return {
        "wall_s": median([op["wall_s"] for op in ops]),
        "cpu_s": median([op["cpu_s"] for op in ops]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median([s["setup_s"] for s in raw["setup"]]),
        "gates_after": result["gates_after"],
        "area_after_um2": result["area_after_um2"],
    }


def per_layer(raw, names):
    traced = [op for op in raw["ops"] if op["traced"]]
    # The first operation also warms the process; leave it out of the
    # tracing overhead.
    untraced = [op for op in raw["ops"][1:] if not op["traced"]]
    values = {}
    for key in traced[0]["layers"]:
        values[key] = median([op["layers"][key] for op in traced])
    if raw["kind"] == "reduce":
        values["pdat.unattributed_s"] = median(
            [op["wall_s"] - sum(op["layers"][f"pdat.{s}_s"] for s in PDAT_STAGES)
             for op in traced])
    values.update(raw["probes"])
    values["setup.build_s"] = median([s["build_s"] for s in raw["setup"]])
    values["setup.optimize_s"] = median([s["optimize_s"] for s in raw["setup"]])
    untraced_wall = median([op["wall_s"] for op in untraced])
    values["trace.overhead_pct"] = 100.0 * (
        median([op["wall_s"] for op in traced]) / untraced_wall - 1.0)
    for name in names:
        if name not in values:
            if not name.startswith(NOT_EXERCISED[raw["kind"]]):
                fail(f"harness reported no value for {name}")
            values[name] = 0.0
    return {name: values[name] for name in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found: run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()

    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    # Workloads kept out of BENCHMARK.json (cm0-interesting,
    # ridecore-rv32i-4t) are run by hand, without the per-run time limit.
    listed = args.workload in [w["name"] for w in spec["workloads"]]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S if listed else None)
    if proc.returncode != 0:
        fail(f"harness exited with status {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in metrics_spec]
    values = per_layer(raw, names) if args.trace else end_to_end(raw)
    failed = failures(raw)
    for i, why in sorted(failed.items()):
        print(f"perfbench: operation {i} failed: {why}", file=sys.stderr)
    out = {
        "correct": not failed,
        "attempted": len(raw["ops"]),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }
    with open(os.path.join(out_dir, "raw.json"), "w") as f:
        json.dump(raw, f, indent=1)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(out, f, indent=1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
