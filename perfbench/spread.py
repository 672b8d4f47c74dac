#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads exec-auto,...]
        [--trace] [--commit <sha>] [--out perfbench/trajectory/<name>.json]

Runs the command in BENCHMARK.json once per workload and seed, one run
at a time, and prints for every metric its median, its quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a
share of the median, next to the metric's bound. With --out it writes
that summary, with every run's value, as a trajectory point. Exits 1 if
any run failed or reported correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--commit", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    catalogue = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in catalogue}

    ok = True
    point = {
        "commit": args.commit,
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "trace": args.trace,
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "1" if args.trace else "0",
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            good = proc.returncode == 0 and result is not None and result["correct"]
            ok = ok and good
            print(f"{name} seed {seed}: exit {proc.returncode}, {wall:.1f} s, "
                  f"correct {result and result['correct']}", file=sys.stderr)
            if result is not None:
                runs.append(result)
        summary = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        print(f"\n{name} ({len(runs)} runs)")
        for m in catalogue:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(m["name"])
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {m['name']:32} median {med:14.6g} {m['unit']:6} spread {spread:7.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
            summary["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values,
            }
        point["workloads"][name] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(point, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
