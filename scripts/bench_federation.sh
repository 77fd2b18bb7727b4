#!/usr/bin/env bash
# Federation sweep: bench_federation (an origin pushing batched events to a
# subscribing peer, receiver shard_count in {1,2,4}), 5 repetitions in a
# Release build, into BENCH_federation.json at the repo root — the evidence
# for the DESIGN.md §5j perf target: >= 2x cross-server events/sec at
# shard_count = 4 vs shard_count = 1 on the ThreadNetwork.  EXPERIMENTS.md
# E12 describes the methodology; scripts/bench_sweep.sh the build, the
# sanitizer refusal and the JSON schema.
#
#   scripts/bench_federation.sh              # Release build in build-bench/
#   BUILD_DIR=/tmp/b OUT=/tmp/f.json scripts/bench_federation.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec scripts/bench_sweep.sh bench_federation BM_Federation federation_sweep \
  "${OUT:-BENCH_federation.json}" peer_events_in
