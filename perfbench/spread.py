#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workloads flood,serve]

Runs every chosen workload once per seed (untraced, run_seconds from
BENCHMARK.json) and prints, per end-to-end metric, the median of the
per-seed values and their spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.
A spread at or above a third of the metric's bound is flagged; setup_s
is reported but not held to that. Per-seed values are appended to
.perfbench/spread.jsonl for comparison between two sets of runs.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def main():
    cfg = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in cfg["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    a = ap.parse_args()
    bench.build()
    bad = []
    log = open(os.path.join(bench.OUT, "spread.jsonl"), "a")
    for w in a.workloads.split(","):
        values = {m["name"]: [] for m in cfg["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            code, result = bench.run(w, seed, cfg["run_seconds"], 0, capture=True, echo=False)
            if code != 0 or not result:
                sys.exit("%s seed %d failed" % (w, seed))
            print("  %s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
            log.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            log.flush()
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s over %d seeds:" % (w, a.seeds))
        for m in cfg["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                flag = "  <-- over a third of the bound %.3g" % m["bound"]
                bad.append((w, m["name"]))
            print("  %-14s median %-12.6g spread %6.2f%%%s" % (m["name"], med, 100 * spread, flag))
    if bad:
        print("\nnot steady: %s" % ", ".join("%s/%s" % b for b in bad))
        sys.exit(1)


if __name__ == "__main__":
    main()
