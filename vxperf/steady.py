#!/usr/bin/env python3
"""Steadiness check for the vxperf benchmark.

Runs every workload in BENCHMARK.json once for each of the seeds 1 to
10, untraced, and records for each end-to-end metric its ten values,
median, quartiles and spread (the distance between the first and third
quartile as a share of the median, as statistics.quantiles(values, n=4)
gives them), next to the metric's bound from BENCHMARK.json. Each
invocation appends one set to the output file; with two or more sets it
also compares the medians of the last two. Run from the repository root:

    python3 vxperf/steady.py --out vxperf/steadiness.json

worst_spread_over_bound leaves out setup_s: its spread is recorded, but
only its median is held to its bound when two sets are compared, since
set-up time is meant to show work moved into set-up, not to be steady
across seeds.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds):
    cmd = ["bash", "vxperf/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return res, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": spec["run_seconds"], "seeds": SEEDS, "cpus": os.cpu_count(),
              "machine": platform.machine(), "workloads": {}}
    worst = 0.0
    for w in [w["name"] for w in spec["workloads"]]:
        values, wall = {}, []
        for s in SEEDS:
            res, took = run_once(w, s, spec["run_seconds"])
            wall.append(took)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items()))
            print(f"{w} seed {s}: {took:.1f}s {vals}", file=sys.stderr)
        rows = {}
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                          "bound": bound, "within_third_of_bound": spread < bound / 3,
                          "values": vs}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {w:11s} {name:16s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}", file=sys.stderr)
        record["workloads"][w] = {"wall_s": {"median": statistics.median(wall), "max": max(wall)},
                                  "metrics": rows}
    record["worst_spread_over_bound"] = round(worst, 3)

    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                sets = json.load(f).get("sets", [])
        sets.append(record)
        doc = {"sets": sets}
        if len(sets) >= 2:
            a, b = sets[-2], sets[-1]
            cmp = {}
            for w, wb in b["workloads"].items():
                wa = a["workloads"].get(w)
                if not wa:
                    continue
                for name, mb in wb["metrics"].items():
                    if name in wa["metrics"]:
                        ma = wa["metrics"][name]["median"]
                        cmp[f"{w}/{name}"] = {"first": ma, "second": mb["median"],
                                              "change": round(mb["median"] / ma - 1, 4),
                                              "bound": mb["bound"]}
            doc["last_two_medians"] = cmp
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
