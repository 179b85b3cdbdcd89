#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and spread: the distance between the first and third quartiles as
a share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload crowdtap --seeds 1-10

Run from the repository root. Each run's result line is appended to
.bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    os.makedirs(".bench_out", exist_ok=True)
    log = open(f".bench_out/spread-{args.workload}.jsonl", "a")
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = json.loads(lines[-2]).get("host_steal_pct") if len(lines) > 1 else None
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        ok = result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} host_steal_pct={steal}"
              f"{'' if ok else '  <-- FAILED'}", flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    print(f"\n{'metric':34} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("wide" if spread < bound else "OVER")
        print(f"{m['name']:34} {med:12.6g} {spread:8.3f} {bound if bound else '':>6} {flag}")


if __name__ == "__main__":
    main()
