all:
	dune build @all

check:
	dune build @all && dune runtest && $(MAKE) unused-exports && $(MAKE) no-forced-gc && $(MAKE) trace-demo && $(MAKE) examples-smoke && $(MAKE) bench-smoke && $(MAKE) figures-smoke && $(MAKE) bench-scale-smoke && $(MAKE) bench-obs-smoke && $(MAKE) bench-serve-smoke && $(MAKE) check-smoke && $(MAKE) live-smoke && $(MAKE) perfbench-smoke

test:
	dune runtest

# Dead-API guard: every `val` in lib/*/*.mli, nested signatures included,
# must be used by some .ml outside its own module and outside test/ (lib,
# bin, bench, examples, perfbench), or be listed with a reason in
# scripts/unused_exports.allow. An allowlist entry whose val is gone or
# has gained such a user fails too, so the list only shrinks. The script
# is first run on throwaway trees that must fail for each of those cases.
unused-exports:
	scripts/test_check_unused_exports.sh
	scripts/check_unused_exports.sh

# No forced collection in the library or the bench harness: on OCaml 5 a
# forced major GC holds the automatic major GC off until the program has
# promoted enough to pay it back, so the heap of the run that follows
# grows unchecked (DESIGN.md, "Peak heap"). Footprints are measured with
# Obj.reachable_words instead. test/ is exempt.
no-forced-gc:
	@! grep -rnE 'Gc\.(full_major|compact|major)\b' lib/ bench/ || { echo "no-forced-gc: lib/ or bench/ forces a collection"; exit 1; }
	@echo "no-forced-gc: OK"

bench:
	dune exec bench/main.exe

# A/A self-test of the paired comparison tool: HEAD built twice, in two
# exported checkouts under _build/ab, over ten alternating churn pairs must show
# no end-to-end metric at p < 0.01 (the sign test needs 10/10 for that).
# Not part of `make check`: it takes about two minutes on 2 cores.
ab-selftest:
	scripts/ab.py HEAD HEAD --workload churn --pairs 10 --seed 1 --null 0.01

# Quick benchmark smoke test: one parallelized figure plus the framework
# microbenchmarks, fanned out over two domains to exercise the Pool/Obs
# multicore path end to end. Every experiment that writes a BENCH_x.json
# checks it against the committed BENCH_x.floors.json and exits 1 on a
# violation. --out-dir points the json at an untracked directory so
# `make check` never dirties the committed baselines.
bench-smoke:
	dune exec bench/main.exe -- fig7a micro macro --jobs 2 --out-dir _build/bench-smoke
	@echo "bench-smoke: OK"

# The five examples as a golden: each is a fixed-seed deployment through
# the facade, so their concatenated stdout (one "== name" header each)
# must match test/golden/examples.txt byte for byte. ~2 s on 2 cores.
EXAMPLES = quickstart churn_failover filedist webcache_demo indexing
examples-smoke:
	dune build $(EXAMPLES:%=examples/%.exe)
	for e in $(EXAMPLES); do echo "== $$e"; ./_build/default/examples/$$e.exe || exit 1; done > _build/examples.txt
	diff -u test/golden/examples.txt _build/examples.txt
	@echo "examples-smoke: OK"

# The paper's figures as a golden: every table, figure and ablation of
# Section 5 at quick scale (tab-loc aside: it counts lib/apps source
# lines, not simulator output), fanned over two domains, with the
# per-experiment CPU-time lines stripped, must match
# test/golden/figures_quick.txt byte for byte. A change that moves a
# figure number regenerates the golden and says why. EXPERIMENTS.md's
# "N/N shape checks pass" status line is then checked against the run's
# shape-check counts.
FIGURES = fig3 fig4 fig6a fig6c fig7a fig7b fig7c fig8 fig9 fig10 fig11 fig12 fig13 fig14 abl
figures-smoke:
	dune exec bench/main.exe -- $(FIGURES) --jobs 2 > _build/figures_quick.raw
	grep -vE '^  \([a-z0-9]+ took [0-9.]+ s of CPU\)$$' _build/figures_quick.raw > _build/figures_quick.txt
	diff -u test/golden/figures_quick.txt _build/figures_quick.txt
	scripts/check_experiments_status.sh EXPERIMENTS.md _build/figures_quick.txt
	@echo "figures-smoke: OK"

# Scale smoke test: the 10k-node single-run workloads (quick scale covers
# 1k and 10k), guarded by ops/sec floors AND resident-words-per-node
# ceilings — a footprint regression that would push the million-node run
# out of memory budget trips here, long before anyone runs a million
# nodes. It also runs the 100k-node epidemic flood sequentially and over
# 4 partitions on the windowed parallel engine; that pair's speedup floor
# is core-count-aware: 0.5x per worker granted (2x on >= 4 cores, 1x on
# 2), annotated and not gated on a 1-core container (the par row's
# workers field says which machine CI actually was).
bench-scale-smoke:
	dune exec bench/main.exe -- scale --domains 4 --out-dir _build/bench-smoke
	@echo "bench-scale-smoke: OK"

# The same experiment at full size: the 1M-node epidemic flood and the
# 100k-node Chord ring with their metrics twins. The floors' exact bound
# then holds every row the committed BENCH_scale.json has, the full ones
# included, to that file's non-timing fields. Kept out of `check` and CI:
# it needs ~3 GB of RSS and 1-2.5 min on a 2-core VM.
bench-scale-full:
	dune exec bench/main.exe -- scale --full --domains 4 --out-dir _build/bench-full
	@echo "bench-scale-full: OK"

# Refresh the committed BENCH_engine.json and BENCH_macro.json baselines
# (explicit, never part of check); macro records jobs=1 and its _j2
# fan-out rows either way, and --jobs 2 fans out fig experiments' trials.
bench-baseline:
	dune exec bench/main.exe -- micro macro --jobs 2

# Metrics-plane smoke test: the macro workloads with a metrics dump
# enabled end to end (exercising Obs_flags parsing, rollup capture/absorb
# across 2 domains, and the JSONL writer), the obs-overhead floors —
# the _obs twin rows must hold their budgeted rates — and a `splay top`
# render of the dump.
bench-obs-smoke:
	dune exec bench/main.exe -- macro --jobs 2 --out-dir _build/bench-obs-smoke --metrics-out=_build/metrics.obs-smoke.jsonl
	dune exec bin/splay_cli.exe -- top _build/metrics.obs-smoke.jsonl | grep -q "percentile columns:"
	@echo "bench-obs-smoke: OK"

# Serving-fast-path smoke test: the quick open-loop sweep (1M virtual
# clients over 10k nodes, offered load stepped through the baseline
# knee) guarded by the serve floors — sustained throughput, bounded
# words per idle client, the all-on p99 improvement past the knee, the
# coalescer's origin-fetch savings, and zero stale cache serves. The
# parallel-engine row's speedup floor is core-count-aware like
# bench-scale-smoke's.
bench-serve-smoke:
	dune exec bench/main.exe -- serve --out-dir _build/bench-smoke
	@echo "bench-serve-smoke: OK"

# Simulation-testing gates. check-smoke is the fast always-green CI gate;
# check-fuzz is the broad fault-injection sweep over every suite (base
# chord is *expected* to fail it — the || true keeps the target usable as
# a bug-hunting report rather than a pass/fail gate).
check-smoke:
	dune exec bin/splay_cli.exe -- check --suite smoke --seeds 50 --jobs 2
	dune exec bin/splay_cli.exe -- check --suite dht-store --seeds 12 --jobs 2
	dune exec bin/splay_cli.exe -- check --suite webcache --seeds 12 --jobs 2
	@echo "check-smoke: OK"

check-fuzz:
	dune exec bin/splay_cli.exe -- check --suite all --seeds 25 --jobs 4 || true

# Live-backend smoke test: 10 real splayd processes over loopback TCP
# run Chord, all lookups must resolve, the structural invariants must
# match the simulated twin (zero contract violations), every child is
# reaped, and a SIGKILLed controller leaves no orphans behind. Failure
# collects the per-daemon logs into _build/live-logs/.
live-smoke:
	dune build bin/splay_cli.exe bin/splayd.exe
	scripts/live_smoke.sh
	@echo "live-smoke: OK"

# The benchmark's three workloads (flood, serve, churn at paper scale),
# one traced repetition each, ~45 s on 2 cores: churn's checks (every
# lookup has an outcome, no fiber crashed, live instances at the end)
# otherwise run only when the benchmark does. Any failed check exits
# non-zero.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seconds 1 --trace 1
	@echo "perfbench-smoke: OK"

# End-to-end tracing demo: run a traced Chord deployment, then verify the
# analyzer extracts a non-empty RPC critical path from the dump.
trace-demo:
	dune exec bin/splay_cli.exe -- run --app chord --testbed cluster \
	  --hosts 4 --nodes 8 --duration 60 --lookups 25 \
	  --trace /tmp/splay-trace-demo.jsonl > /dev/null
	dune exec bin/splay_cli.exe -- trace /tmp/splay-trace-demo.jsonl --critical-path \
	  | tee /dev/stderr | grep -q "rpc\."
	@echo "trace-demo: OK (critical path extracted)"

.PHONY: all check test unused-exports no-forced-gc bench bench-smoke examples-smoke figures-smoke bench-scale-smoke bench-scale-full bench-obs-smoke bench-serve-smoke bench-baseline trace-demo check-smoke check-fuzz live-smoke perfbench-smoke ab-selftest
