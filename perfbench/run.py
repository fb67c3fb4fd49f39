#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload flood --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it works in the checkout that holds this file. The
build goes through dune (its output to stderr), then bench.exe runs with
the checkout as working directory, so its spans land in .perfbench/.
With one workload, the last line of stdout is the benchmark's JSON
result and the exit code is bench.exe's. With `all`, every workload runs
in turn and a table of the metrics follows; the exit code is non-zero if
any workload failed a check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["flood", "serve", "churn"]


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ROOT, "./perfbench/bench.exe"]
    # no shared build cache: the build reads the toolchain and writes only
    # the checkout's _build
    e = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=e, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed (exit %d)" % r.returncode)


def env():
    e = dict(os.environ)
    # The GC pause reader drains the runtime's event ring after the run:
    # 2^19 words per domain hold the longest workload without loss.
    e["OCAMLRUNPARAM"] = ",".join(p for p in [e.get("OCAMLRUNPARAM", ""), "e=19"] if p)
    e["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    return e


def run(workload, seed, seconds, trace, capture=False, echo=True):
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=env()).returncode, None
    r = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE, text=True)
    if echo or r.returncode != 0:
        sys.stdout.write(r.stdout)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r.returncode, result


def main():
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    if a.workload != "all":
        sys.exit(run(a.workload, a.seed, a.seconds, a.trace)[0])
    rows, failed = [], []
    for w in WORKLOADS:
        code, result = run(w, a.seed, a.seconds, a.trace, capture=True)
        if code != 0 or not result or not result.get("correct"):
            failed.append(w)
            continue
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
    print("\n%-10s %-26s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w, name, v, unit in rows:
        print("%-10s %-26s %16.6g  %s" % (w, name, v, unit))
    if failed:
        print("FAILED: %s" % ", ".join(failed))
        sys.exit(1)


if __name__ == "__main__":
    main()
