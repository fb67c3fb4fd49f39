#!/usr/bin/env python3
"""Paired A/B comparison of two revisions on one perfbench workload.

    scripts/ab.py BASE [HEAD] --workload W [--pairs N] [--seed S] [--null ALPHA]
                  [--base-env KEY=VALUE]... [--head-env KEY=VALUE]...

BASE and HEAD are git revisions (HEAD defaults to HEAD). Each is
exported with `git archive` to _build/ab/base and _build/ab/head (kept
with their _build for later runs, re-exported when the revision
changes) and its benchmark is built there before the first pair. The
tool then runs N pairs of single-repetition runs (`perfbench/run.py
--workload W --seed S --seconds 1 --trace 0`), base first in odd pairs
and head first in even ones, so neither binary always runs on a warm or
a cold machine.

--base-env and --head-env (repeatable) add KEY=VALUE to the environment
one side's bench.exe starts from, before the checkout's perfbench/run.py
adds its own settings (an OCAMLRUNPARAM given here is kept, and run.py
appends to it). The header shows each side's additions. Passing one
revision twice with different environments A/B's a runtime setting
against the same code, for example

    scripts/ab.py HEAD HEAD --workload serve --head-env OCAMLRUNPARAM=s=8M

Per end-to-end metric of BENCHMARK.json it prints the median of the
per-pair head/base ratios, the pairs head won (by the metric's
direction; ties count for neither) and a two-sided sign-test p-value
over the pairs that were not ties. It ends with one traced repetition
per side (`--trace 1`) and prints the deterministic per-layer counters
of both: sim.events, net.msgs, net.bytes, net.dropped and rpc.calls.

Memory is shown by layer and as the OS sees it: beside peak_heap_mb
(the OCaml major heap) each pair prints max_rss_mb, the largest resident
set of the run's process tree (`os.wait4`'s rusage of bench.exe, which
covers the repetition it forks), and the traced repetitions print
gc.promoted_words and gc.minor_words_per_event. These are informational:
no exit status depends on them.

Exit status: 1 when ok_frac, sim_p50_s or sim_p99_s differ within a
pair or a traced counter differs between the sides (those are
deterministic, so two builds that disagree on them do not compute the
same thing), or when a run fails; with --null ALPHA (an A/A run: one
revision against itself), also 1 when any metric's p-value is below
ALPHA.
"""

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "_build", "ab")
EXACT = ["ok_frac", "sim_p50_s", "sim_p99_s"]
COUNTERS = ["sim.events", "net.msgs", "net.bytes", "net.dropped", "rpc.calls"]
GC = ["gc.promoted_words", "gc.minor_words_per_event"]


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def checkout(side, rev):
    """REV's tree in _build/ab/SIDE; exported again, keeping _build, when SIDE holds another."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    wt = os.path.join(AB, side)
    stamp = os.path.join(wt, ".ab-rev")
    if os.path.isfile(stamp) and open(stamp).read().strip() == sha:
        return wt, sha
    os.makedirs(wt, exist_ok=True)
    for name in os.listdir(wt):
        path = os.path.join(wt, name)
        if name == "_build":
            continue
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    tree = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", wt], input=tree, check=True)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return wt, sha


def build(wt):
    """Build the worktree's benchmark up front, so no pair pays for it."""
    cmd = ["dune", "build", "--root", wt, "./perfbench/bench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    if subprocess.run(cmd, cwd=wt, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("ab: build failed in %s" % wt)


def runner(wt):
    """The worktree's perfbench/run.py as a module: its binary, environment and output dir."""
    spec = importlib.util.spec_from_file_location("run_" + os.path.basename(wt),
                                                  os.path.join(wt, "perfbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def side_env(mod, extra):
    """The checkout's perfbench/run.py environment, built on os.environ plus EXTRA."""
    saved = dict(os.environ)
    os.environ.update(extra)
    try:
        return mod.env()
    finally:
        os.environ.clear()
        os.environ.update(saved)


def parse_env(pairs, flag):
    """KEY=VALUE strings as a dict; exits on a malformed one."""
    extra = {}
    for kv in pairs:
        key, sep, value = kv.partition("=")
        if not sep or not key:
            sys.exit("ab: %s wants KEY=VALUE, got %r" % (flag, kv))
        extra[key] = value
    return extra


def run(mod, env, workload, seed, trace=0):
    """One repetition, as `perfbench/run.py --seconds 1` runs it once built; its metrics plus max_rss_mb."""
    os.makedirs(mod.OUT, exist_ok=True)
    cmd = [mod.EXE, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    p = subprocess.Popen(cmd, cwd=mod.ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if p.returncode != 0 or not result or not result.get("correct"):
        sys.exit("ab: %s run failed (exit %d)" % (mod.ROOT, p.returncode))
    got = {k: m["value"] for k, m in result["metrics"].items()}
    got["max_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return got


def sign_test(wins, losses):
    """Two-sided exact sign test: P(a split at least this uneven | p = 1/2)."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default="HEAD")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--null", type=float, default=None, metavar="ALPHA")
    ap.add_argument("--base-env", action="append", default=[], metavar="KEY=VALUE")
    ap.add_argument("--head-env", action="append", default=[], metavar="KEY=VALUE")
    a = ap.parse_args()
    if a.pairs < 1:
        sys.exit("ab: --pairs must be at least 1")
    extras = {"base": parse_env(a.base_env, "--base-env"),
              "head": parse_env(a.head_env, "--head-env")}
    metrics = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]
    sides = {}
    for side, rev in (("base", a.base), ("head", a.head)):
        wt, sha = checkout(side, rev)
        build(wt)
        mod = runner(wt)
        sides[side] = (mod, side_env(mod, extras[side]))
        print("%s: %s %s%s" % (side, rev, sha[:12], "".join(
            " %s=%s" % kv for kv in extras[side].items())), flush=True)

    pairs = []
    for i in range(a.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        got = {side: run(*sides[side], a.workload, a.seed) for side in order}
        pairs.append(got)
        print("pair %d/%d (%s first): %s" % (i + 1, a.pairs, order[0], "  ".join(
            "%s %.4g/%.4g" % (name, got["head"].get(name, float("nan")),
                              got["base"].get(name, float("nan")))
            for name in [m["name"] for m in metrics] + ["max_rss_mb"])), flush=True)

    status = 0
    print("\n%s, seed %d, %d pairs (head/base)" % (a.workload, a.seed, a.pairs))
    print("%-14s %12s %12s %8s %8s %8s" % ("metric", "base median", "head median", "ratio",
                                          "head won", "p"))
    rss = {"name": "max_rss_mb", "better": "lower"}
    for m in metrics + [rss]:
        name = m["name"]
        rows = [(p["base"][name], p["head"][name]) for p in pairs
                if name in p["base"] and name in p["head"]]
        if not rows:
            continue
        lower = m["better"] == "lower"
        wins = sum(1 for b, h in rows if (h < b if lower else h > b))
        losses = sum(1 for b, h in rows if (h > b if lower else h < b))
        ratios = [h / b for b, h in rows if b != 0]
        ratio = statistics.median(ratios) if ratios else float("nan")
        p = sign_test(wins, losses)
        flag = ""
        if name in EXACT and any(b != h for b, h in rows):
            flag = "  DIFFERS within a pair"
            status = 1
        elif m is rss:
            flag = "  (informational)"
        elif a.null is not None and p < a.null:
            flag = "  p < %g on an A/A run" % a.null
            status = 1
        print("%-14s %12.6g %12.6g %8.4f %5d/%-2d %8.4f%s" % (
            name, statistics.median(b for b, _ in rows), statistics.median(h for _, h in rows),
            ratio, wins, len(rows), p, flag))

    traced = {side: run(*sides[side], a.workload, a.seed, trace=1) for side in ("base", "head")}
    print("\ntraced repetition (base, head)")
    for name in COUNTERS:
        b, h = traced["base"].get(name), traced["head"].get(name)
        flag = ""
        if b != h:
            flag = "  DIFFERS"
            status = 1
        print("%-14s %14s %14s%s" % (name, b, h, flag))
    for name in GC:
        print("%-24s %14s %14s  (informational)" % (name, traced["base"].get(name),
                                                    traced["head"].get(name)))
    sys.exit(status)


if __name__ == "__main__":
    main()
