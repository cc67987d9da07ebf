#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs every workload of BENCHMARK.json once per seed (untraced), then:
  * checks each result line: correct, no failures, exactly the end-to-end
    metrics with their units;
  * reports each metric's median and its spread, the distance between the
    first and third quartile as a share of the median, and fails when a
    spread exceeds the metric's bound;
  * re-runs the first seed, untraced and traced twice, and requires the
    exact counters to repeat exactly; timings get only the band above.

Usage, from the repository root:
    python3 perfbench/steadiness.py [--seeds 10]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 101

# Counters that must repeat exactly across runs of one seed.
EXACT_END_TO_END = ["wire_bytes_per_push", "sim_wire_bytes_per_delivery"]
EXACT_PER_LAYER = [
    "transport.messages_per_push",
    "transport.code_fetch_per_reject",
    "sim.wire_bytes_per_delivery.optimistic",
    "sim.wire_bytes_per_delivery.session_batched",
    "sim.messages_per_delivery.optimistic",
    "sim.messages_per_delivery.session_batched",
]


WALL = []  # wall seconds of every run made


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    WALL.append(time.monotonic() - start)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} seed {seed}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{done.stdout}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        sys.exit(f"{workload} seed {seed}: metrics {sorted(got)} differ from BENCHMARK.json")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        shown = ("push_rate", "push_p50_us", "first_push_p50_us", "sim_delivery_rate")
        print(f"  seed {seed}: " + "  ".join(f"{k} {values[k]:.6g}" for k in shown), flush=True)
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        seeds = range(FIRST_SEED, FIRST_SEED + args.seeds)
        runs = [run(bench, workload, seed, 0) for seed in seeds]
        print(f"== {workload}: {len(runs)} seeds, slowest run {max(WALL):.1f} s")
        WALL.clear()
        for name, bound in bounds.items():
            median, share = spread([r[name] for r in runs])
            verdict = "ok"
            if share > bound:
                verdict, ok = "OVER BOUND", False
            elif share > bound / 3:
                verdict = "over a third of bound"
            print(f"  {name:32s} median {median:14.6g}  spread {share:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
        seed = FIRST_SEED
        again = run(bench, workload, seed, 0)
        traced = [run(bench, workload, seed, 1) for _ in range(2)]
        exact = True
        for name in EXACT_END_TO_END:
            if again[name] != runs[0][name]:
                ok = exact = False
                print(f"  EXACT MISMATCH {name}: {runs[0][name]!r} vs {again[name]!r}")
        for name in EXACT_PER_LAYER:
            if traced[0][name] != traced[1][name]:
                ok = exact = False
                print(f"  EXACT MISMATCH {name}: {traced[0][name]!r} vs {traced[1][name]!r}")
        print("  exact counters repeat" if exact else "  exact counters DIFFER")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
