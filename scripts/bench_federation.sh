#!/usr/bin/env bash
# Federation sweep: runs bench_federation (sharded origin pushing batched
# events to a subscribing peer, receiver shard_count in {1,2,4}) with
# google-benchmark's JSON reporter and writes BENCH_federation.json at the
# repo root.  The checked-in JSON is the evidence for the DESIGN.md §5j
# perf target: >= 2x cross-server events/sec at shard_count = 4 vs
# shard_count = 1 on the ThreadNetwork (EXPERIMENTS.md E12 describes the
# methodology and the JSON schema).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_federation.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_federation

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$BUILD_DIR"/bench/bench_federation \
  --benchmark_filter=BM_Federation \
  --benchmark_format=json --benchmark_out="$tmp" \
  --benchmark_out_format=json

python3 - "$tmp" "$OUT" <<'PY'
import json, os, sys

src, out = sys.argv[1:3]
with open(src) as f:
    data = json.load(f)

def arg(name, key):
    for part in name.split("/"):
        if part.startswith(key + ":"):
            return int(part.split(":")[1])
    return None

rows = []
by_shards = {}
for b in data.get("benchmarks", []):
    shards = arg(b["name"], "shards")
    if shards is None:
        continue
    row = {"name": b["name"], "shards": shards}
    for k in ("events_per_sec", "peer_events_in"):
        if k in b:
            row[k] = b[k]
    rows.append(row)
    by_shards[shards] = row

# Headline ratio: cross-server events/sec relative to one shard.
speedup = {}
base = by_shards.get(1, {}).get("events_per_sec", 0)
if base:
    for shards, row in sorted(by_shards.items()):
        speedup[f"thread_shards{shards}_events_per_sec_over_shards1"] = \
            round(row.get("events_per_sec", 0) / base, 2)

ctx = data.get("context", {})
context = {k: ctx.get(k) for k in
           ("date", "host_name", "num_cpus", "mhz_per_cpu",
            "library_build_type") if k in ctx}
# The burn is a CPU spin: scaling past nproc shards is not expected.
context["nproc"] = os.cpu_count()
result = {
    "experiment": "federation_sweep",
    "context": context,
    "thread_network": rows,
    "speedup": speedup,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out}")
for k, v in speedup.items():
    print(f"  {k}: {v}x")
PY
