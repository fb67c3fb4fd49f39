all:
	dune build @all

check:
	dune build @all && dune runtest && $(MAKE) unused-exports && $(MAKE) no-forced-gc && $(MAKE) trace-demo && $(MAKE) bench-smoke && $(MAKE) bench-scale-smoke && $(MAKE) bench-obs-smoke && $(MAKE) bench-serve-smoke && $(MAKE) check-smoke && $(MAKE) live-smoke

test:
	dune runtest

# Dead-API guard: every `val` in lib/*/*.mli must be mentioned by some .ml
# outside its own module (lib, bin, bench, test, examples, perfbench).
unused-exports:
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

# Quick benchmark smoke test: one parallelized figure plus the framework
# microbenchmarks, fanned out over two domains to exercise the Pool/Obs
# multicore path end to end. Every experiment that writes a BENCH_x.json
# checks it against the committed BENCH_x.floors.json and exits 1 on a
# violation. --out-dir points the json at an untracked directory so
# `make check` never dirties the committed baselines.
bench-smoke:
	dune exec bench/main.exe -- fig7a micro macro --jobs 2 --out-dir _build/bench-smoke
	@echo "bench-smoke: OK"

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

# End-to-end tracing demo: run a traced Chord deployment, then verify the
# analyzer extracts a non-empty RPC critical path from the dump.
trace-demo:
	dune exec bin/splay_cli.exe -- run --app chord --testbed cluster \
	  --hosts 4 --nodes 8 --duration 60 --lookups 25 \
	  --trace /tmp/splay-trace-demo.jsonl > /dev/null
	dune exec bin/splay_cli.exe -- trace /tmp/splay-trace-demo.jsonl --critical-path \
	  | tee /dev/stderr | grep -q "rpc\."
	@echo "trace-demo: OK (critical path extracted)"

.PHONY: all check test unused-exports no-forced-gc bench bench-smoke bench-scale-smoke bench-obs-smoke bench-serve-smoke bench-baseline trace-demo check-smoke check-fuzz live-smoke
