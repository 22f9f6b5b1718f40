# Convenience wrappers around dune; `make check` is the one command CI
# and contributors run before pushing.

.PHONY: all build test bench bench-smoke bench-flow bench-shard bench-ab smoke fmt check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Fast parallel sanity run: two figures at toy scale on two domains, with
# the per-figure timing JSON.  The cram test test/cli/bench.t pins the
# flag parsing and JSON schema under `dune runtest` (and thus @check).
bench-smoke:
	dune exec bench/main.exe -- fig3-K ablation-batch \
	  --scale 0.05 --reps 2 --jobs 2 --json bench-smoke.json

# CLI pins: every cram test under test/cli — serve kill/resume, chaos
# (single and sharded), loadgen reports and traces, journal tooling,
# sharded serving, flow solvers, bench schemas.  Also in @runtest (and
# thus @check).
smoke:
	dune build @test/cli/runtest

# Min-cost-flow hot path: cold per-batch solves vs the reused
# arena/workspace, on a trickle and a ~100x-wider batch shape.
# Refreshes the committed BENCH_flow_batch.json snapshot.
bench-flow:
	dune exec bench/main.exe -- flow-batch-reuse --json BENCH_flow_batch.json

# Sharded serving: single session vs 1/2/4/8 spatial shards on a
# clustered shard-local stream, with a core-scaled speedup bar.
# Refreshes the committed BENCH_serve_shard.json snapshot.
bench-shard:
	dune exec bench/main.exe -- serve-shard --json BENCH_serve_shard.json

# A/B the working tree against a revision on one workload of the
# repository benchmark (BENCHMARK.json): PAIRS alternating pairs of runs,
# seeded by pair number, then the suite's median-vs-median --compare.
# BASE is exported with git archive into .bench_build/ab-base for the run.
#   make bench-ab WORKLOAD=journal-restore PAIRS=10 BASE=HEAD
WORKLOAD ?=
PAIRS ?= 10
BASE ?= HEAD

bench-ab:
	sh bench/ab.sh "$(WORKLOAD)" "$(PAIRS)" "$(BASE)"

fmt:
	dune build @fmt --auto-promote

check:
	dune build @check

clean:
	dune clean
