#!/usr/bin/env python3
"""Runs the benchmark once per seed on one workload and prints, for each
end-to-end metric, its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload endurance --seeds 1-10 [--seconds 10]

Run from the repository root. Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs("perfbench/out", exist_ok=True)
    log = open(f"perfbench/out/spread-{args.workload}.jsonl", "a")
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                            for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{name:<22} median {med:<12.5g} spread {spread:7.2%} bound {bounds[name]:.0%}{flag}")


if __name__ == "__main__":
    main()
