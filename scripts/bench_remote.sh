#!/usr/bin/env bash
# Peer-batching sweep: runs the A4 outbox bench ({1,4,8} peer sites, legacy
# per-event vs coalesced flushes) plus the versioned-directory refresh run
# with google-benchmark's JSON reporter and merges both into
# BENCH_remote.json at the repo root.  The checked-in JSON is the evidence
# for the perf targets in DESIGN.md ("Peer outbox & directory deltas"):
# >=5x fewer forward-path ORB invocations per delivered event at 4 peers,
# and delta refreshes a fraction of full-snapshot bytes (the full-snapshot
# arm was retired once that ratio was on record).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_remote.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_a4_peer_batching

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$BUILD_DIR"/bench/bench_a4_peer_batching \
  --benchmark_format=json --benchmark_out="$tmp" \
  --benchmark_out_format=json

python3 - "$tmp" "$OUT" <<'PY'
import json, sys

src, out = sys.argv[1:3]
with open(src) as f:
    data = json.load(f)

rows = []
for b in data.get("benchmarks", []):
    row = {"name": b["name"]}
    for k in ("fwd_calls", "events_rx", "calls_per_evt", "wan_bytes",
              "p50_ms", "dir_bytes", "dir_fulls"):
        if k in b:
            row[k] = b[k]
    rows.append(row)

def arg(name, key):
    for part in name.split("/"):
        if part.startswith(key + ":"):
            return int(part.split(":")[1])
    return None

# Headline ratios: forward-path ORB invocations per delivered event,
# legacy over batched, per peer count.
reductions = {}
by_peers = {}
for r in rows:
    peers, flush = arg(r["name"], "peers"), arg(r["name"], "flush_ms")
    if peers is None or flush is None:
        continue
    by_peers.setdefault(peers, {})[flush] = r
for peers, arms in sorted(by_peers.items()):
    if 0 in arms and 5 in arms:
        legacy = arms[0].get("calls_per_evt", 0)
        batched = arms[5].get("calls_per_evt", 0)
        if batched:
            reductions[f"peers{peers}_orb_calls_per_event_legacy_over_batched"] = \
                round(legacy / batched, 2)
        lb, bb = arms[0].get("wan_bytes", 0), arms[5].get("wan_bytes", 0)
        if bb:
            reductions[f"peers{peers}_wan_bytes_legacy_over_batched"] = \
                round(lb / bb, 2)

ctx = data.get("context", {})
result = {
    "experiment": "peer_outbox_batching",
    "context": {k: ctx.get(k) for k in
                ("date", "host_name", "num_cpus", "mhz_per_cpu",
                 "library_build_type") if k in ctx},
    "benchmarks": rows,
    "reduction": reductions,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out}")
for k, v in reductions.items():
    print(f"  {k}: {v}x")
PY
