#!/usr/bin/env bash
# Shard sweep: bench_shards (one ThreadNetwork server, closed-loop portal
# load, shard_count in {1,2,4,8}), 5 repetitions in a Release build, into
# BENCH_shards.json at the repo root — the evidence for the DESIGN.md §5i
# perf target: >= 2x served events/sec at shard_count = 4 vs
# shard_count = 1 on the ThreadNetwork.  EXPERIMENTS.md E11 describes the
# methodology; scripts/bench_sweep.sh the build, the sanitizer refusal and
# the JSON schema.
#
#   scripts/bench_shards.sh                  # Release build in build-bench/
#   BUILD_DIR=/tmp/b OUT=/tmp/s.json scripts/bench_shards.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec scripts/bench_sweep.sh bench_shards BM_Shards shard_sweep \
  "${OUT:-BENCH_shards.json}" rtt_p50_ms,rtt_p95_ms,acks_ok
