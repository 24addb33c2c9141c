PYTHON ?= python
export PYTHONPATH := src

.PHONY: test attack-smoke bench-smoke fuzz-smoke obs-smoke server-smoke \
	scale-smoke smt-smoke trace-smoke perfbench-check bench bench-simspeed \
	cache-clear

test:
	$(PYTHON) -m pytest -x -q

# Quick security check: the attack matrix on the insecure baseline, one
# NDA policy, and the registry-only FenceOnBranch scheme (mirrors CI).
attack-smoke:
	$(PYTHON) -m repro.cli matrix --guesses 16 \
		--configs ooo strict fence-on-branch

# Tiny end-to-end sweep through the parallel engine (mirrors CI).
bench-smoke:
	$(PYTHON) -m repro.cli bench --benchmarks exchange2 leela \
		--samples 1 --warmup 500 --measure 2000 --jobs 2

# Time-boxed differential fuzzing: 40 fixed seeds (all five gadget
# templates, all four covert channels) across every out-of-order scheme;
# exits nonzero on any counterexample to a scheme's blocking claims
# (mirrors CI; ~30s on 4 workers).
fuzz-smoke:
	$(PYTHON) -m repro.cli fuzz run --seeds 40 --jobs 4

# Cross-context (repro.smt) smoke: the three co-resident attack pairs
# on the insecure baseline, one NDA policy, InvisiSpec, and
# FenceOnBranch at the default guess count; exits nonzero if any cell
# diverges from the taxonomy's expected leak/block claim — including
# InvisiSpec's deliberate cross-btb escape.  Then a short paired fuzz
# campaign, which fails on any counterexample (mirrors CI).
smt-smoke:
	$(PYTHON) -m repro.cli matrix --cross \
		--configs ooo strict invisispec-spectre fence-on-branch
	$(PYTHON) -m repro.cli fuzz run --smt --seeds 10 --jobs 2

# Telemetry smoke: trace a Spectre v1 run under NDA strict, validate
# the run manifest it recorded, and render its metric snapshot
# (mirrors CI).
obs-smoke:
	$(PYTHON) -m repro.cli obs trace spectre_v1_cache --config strict \
		--output results/traces/spectre_v1_cache-strict.json
	$(PYTHON) -m repro.cli obs manifest validate
	$(PYTHON) -m repro.cli obs metrics

# Job-server smoke: boot the HTTP service, submit the same tiny sweep
# twice (the second must dedup to the completed job), exercise the
# nda-repro submit client, then restart with a fresh queue and require
# the warm cache to answer inline with zero engine executions, scraping
# /metrics throughout (mirrors CI).
server-smoke:
	$(PYTHON) benchmarks/server_smoke.py

# Execution-backend smoke: the same sweep through serial, local-pool,
# and worker-protocol backends must be bit-identical, then a
# checkpointing fuzz campaign is SIGTERM'd mid-run and resumed — zero
# re-execution of completed jobs, identical witness corpus (mirrors CI;
# checkpoint artifacts land under results/scale-smoke/).
scale-smoke:
	$(PYTHON) benchmarks/scale_smoke.py

# Distributed-tracing smoke: a traced server submit plus a coordinator
# with two external socket workers, all spooling spans into one
# REPRO_TRACE_DIR; the merged Perfetto trace must validate and contain
# causally-linked spans from every process (mirrors CI).
trace-smoke:
	$(PYTHON) benchmarks/trace_smoke.py

# Job-level benchmark's bit-identity gate: one short untraced call of
# each perfbench workload at seed 0.  Its fingerprints digest every
# sweep result, every witness of the 1000 fuzz runs and of the 200 SMT
# runs, so a change that moves any of them fails here.  run.py exits 0
# either way, so the JSON on its last line must say "correct": true.
# Then perfbench's own tests (mirrors CI).
PERFBENCH_WORKLOADS := fig7-sweep fuzz-campaign smt-fuzz

perfbench-check:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload \
			--seed 0 --seconds 1 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c \
			'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)' \
			|| { echo "perfbench-check: $$workload is not correct"; exit 1; }; \
	done
	$(PYTHON) -m pytest perfbench/tests -q

# Simulator-speed benchmark: host kilo-cycles/sec with the idle-cycle
# fast-forward on vs off, plus telemetry-bus overhead; refreshes the
# checked-in BENCH_simspeed.json and appends a git-SHA-stamped row to
# results/bench_history.jsonl (perf trajectory across commits).
bench-simspeed:
	$(PYTHON) benchmarks/bench_simspeed.py --obs --gate \
		--history --output BENCH_simspeed.json

# Full figure/table regeneration (writes under results/).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

cache-clear:
	$(PYTHON) -m repro.cli cache clear
