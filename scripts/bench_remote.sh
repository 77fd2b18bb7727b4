#!/usr/bin/env bash
# Peer-batching sweep (experiment A4, EXPERIMENTS.md): runs
# bench_a4_peer_batching — {1,4,8} peer sites x {per-event, batched} plus
# the versioned-directory refresh run — in a Release build in build-bench/,
# and writes BENCH_remote.json at the repo root: every counter, the
# per-event over batched ratios, and the host and tree it ran on (nproc,
# compiler, build type, commit).  The JSON is the evidence for the targets
# in DESIGN.md §5e: >=5x fewer forward-path ORB invocations per delivered
# event at 4 peers, and delta directory refreshes.
#
#   scripts/bench_remote.sh                 # Release build in build-bench/
#   BUILD_DIR=/tmp/b OUT=/tmp/r.json scripts/bench_remote.sh
#
# A4 runs on the SimNetwork's virtual clock, so every counter is
# deterministic: instead of the timed sweeps' 5 repetitions the bench runs
# twice, and the script refuses to write the JSON if any counter differs.
# It also refuses a sanitizer tree (a reused BUILD_DIR keeps a cached
# DISCOVER_SANITIZE).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
OUT="${OUT:-BENCH_remote.json}"
readonly TARGET=bench_a4_peer_batching

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cache="$BUILD_DIR/CMakeCache.txt"
sanitize=$(sed -n 's/^DISCOVER_SANITIZE:STRING=//p' "$cache")
compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$cache")
if [[ -n "$sanitize" ]]; then
  echo "$(basename "$0"): refusing to measure a '$sanitize' sanitizer tree" \
       "in $BUILD_DIR" >&2
  exit 1
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$TARGET"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for run in 1 2; do
  "$BUILD_DIR/bench/$TARGET" --benchmark_format=json \
    --benchmark_out="$tmp/run$run.json" --benchmark_out_format=json >/dev/null
done

python3 - "$tmp/run1.json" "$tmp/run2.json" "$OUT" \
  "$(basename "$compiler") $("$compiler" -dumpfullversion)" "$(nproc)" \
  "$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unavailable)" \
  <<'PY'
import json, sys

# sha: "<commit>-dirty" when the tree had uncommitted changes.
run1, run2, out, compiler, nproc, sha = sys.argv[1:7]
COUNTERS = ("fwd_calls", "events_rx", "calls_per_evt", "wan_bytes", "p50_ms",
            "dir_fulls", "dir_deltas", "dir_bytes")

def rows(path):
    with open(path) as f:
        data = json.load(f)
    return data, [{"name": b["name"], **{k: b[k] for k in COUNTERS if k in b}}
                  for b in data.get("benchmarks", [])]

data, first = rows(run1)
_, second = rows(run2)
if first != second:
    for a, b in zip(first, second):
        if a != b:
            print(f"counters differ between runs:\n  {a}\n  {b}",
                  file=sys.stderr)
    sys.exit(f"refusing to write {out}: the two runs disagree")

def arg(name, key):
    for part in name.split("/"):
        if part.startswith(key + ":"):
            return int(part.split(":")[1])
    return None

# Headline ratios, per-event over batched, per peer count: forward-path ORB
# invocations per delivered event, and WAN bytes.
by_peers = {}
for r in first:
    peers, flush = arg(r["name"], "peers"), arg(r["name"], "flush_ms")
    if peers is not None and flush is not None:
        by_peers.setdefault(peers, {})[flush] = r
reductions = {}
for peers, arms in sorted(by_peers.items()):
    if 0 not in arms or 5 not in arms:
        continue
    for key, label in (("calls_per_evt", "orb_calls_per_event"),
                       ("wan_bytes", "wan_bytes")):
        if arms[5].get(key):
            reductions[f"peers{peers}_{label}_legacy_over_batched"] = \
                round(arms[0][key] / arms[5][key], 2)

ctx = data.get("context", {})
result = {
    "experiment": "peer_outbox_batching",
    "context": {
        "date": ctx.get("date"),
        "git_sha": sha,
        "nproc": int(nproc),
        "compiler": compiler,
        "build_type": "Release",
        # Virtual-clock counters: two runs, identical or no file.
        "runs_identical": 2,
    },
    "benchmarks": first,
    "reduction": reductions,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} (2 identical runs, Release, nproc {nproc})")
for k, v in reductions.items():
    print(f"  {k}: {v}x")
PY
