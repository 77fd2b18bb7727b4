#!/usr/bin/env bash
# Shared body of the shard-count sweeps (scripts/bench_shards.sh,
# scripts/bench_federation.sh): builds one bench target Release in
# build-bench/, runs its shard sweep 5 times with google-benchmark's JSON
# reporter and writes, per shard count, the median events/sec, its
# coefficient of variation, min/max and every repetition (plus the medians
# of the bench's other counters), the speedup of the medians over one
# shard, and the host and tree it ran on (nproc, compiler, build type,
# commit).
#
#   scripts/bench_sweep.sh <target> <filter> <experiment> <out.json> \
#       <extra counter>[,<extra counter>...]
#   BUILD_DIR=/tmp/b scripts/bench_sweep.sh ...
#
# Refuses a sanitizer tree (a reused BUILD_DIR keeps a cached
# DISCOVER_SANITIZE): it would measure the instrumentation.
set -euo pipefail
cd "$(dirname "$0")/.."

target=$1 filter=$2 experiment=$3 out=$4 extra=$5
BUILD_DIR="${BUILD_DIR:-build-bench}"
readonly REPS=5

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cache="$BUILD_DIR/CMakeCache.txt"
sanitize=$(sed -n 's/^DISCOVER_SANITIZE:STRING=//p' "$cache")
compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$cache")
if [[ -n "$sanitize" ]]; then
  echo "$(basename "$0"): refusing to measure a '$sanitize' sanitizer tree" \
       "in $BUILD_DIR" >&2
  exit 1
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$target"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$BUILD_DIR/bench/$target" \
  --benchmark_filter="$filter" \
  --benchmark_repetitions="$REPS" \
  --benchmark_format=json --benchmark_out="$tmp" \
  --benchmark_out_format=json >/dev/null

python3 - "$tmp" "$out" "$experiment" "$extra" "$REPS" \
  "$(basename "$compiler") $("$compiler" -dumpfullversion)" "$(nproc)" \
  "$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unavailable)" \
  <<'PY'
import json, statistics, sys

# sha: "<commit>-dirty" when the tree had uncommitted changes.
src, out, experiment, extra, reps, compiler, nproc, sha = sys.argv[1:9]
extra = [k for k in extra.split(",") if k]
with open(src) as f:
    data = json.load(f)

def shards_of(name):
    for part in name.split("/"):
        if part.startswith("shards:"):
            return int(part.split(":")[1])
    return None

# One entry per repetition (google-benchmark's aggregates are skipped: the
# median and CV below are computed from the repetitions themselves).
samples = {}
for b in data.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    shards = shards_of(b["name"])
    if shards is None or "events_per_sec" not in b:
        continue
    s = samples.setdefault(shards, {k: [] for k in ["events_per_sec"] + extra})
    for k in s:
        s[k].append(b.get(k, 0.0))

def cv(xs):
    mean = statistics.fmean(xs)
    return statistics.pstdev(xs) / mean if len(xs) > 1 and mean else 0.0

rows = []
for shards, s in sorted(samples.items()):
    eps = s["events_per_sec"]
    row = {
        "shards": shards,
        "reps": len(eps),
        "events_per_sec_median": round(statistics.median(eps), 1),
        "events_per_sec_cv": round(cv(eps), 4),
        "events_per_sec_min": round(min(eps), 1),
        "events_per_sec_max": round(max(eps), 1),
        "events_per_sec_reps": [round(x, 1) for x in eps],
    }
    for k in extra:
        row[k + "_median"] = round(statistics.median(s[k]), 3)
    rows.append(row)

# Headline ratio: median events/sec relative to the single-shard median.
speedup = {}
base = next((r["events_per_sec_median"] for r in rows if r["shards"] == 1), 0)
if base:
    for r in rows:
        speedup[f"thread_shards{r['shards']}_events_per_sec_over_shards1"] = \
            round(r["events_per_sec_median"] / base, 2)

ctx = data.get("context", {})
result = {
    "experiment": experiment,
    "context": {
        "date": ctx.get("date"),
        "git_sha": sha,
        # The burns are CPU spins: scaling past nproc shards is not expected.
        "nproc": int(nproc),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "compiler": compiler,
        "build_type": "Release",
        "reps": int(reps),
    },
    "thread_network": rows,
    "speedup": speedup,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} ({reps} reps, Release, nproc {nproc})")
for r in rows:
    print(f"  shards {r['shards']}: median {r['events_per_sec_median']:,.1f} "
          f"ev/s  cv {r['events_per_sec_cv']:.3f}  min "
          f"{r['events_per_sec_min']:,.1f}  max {r['events_per_sec_max']:,.1f}")
for k, v in speedup.items():
    print(f"  {k}: {v}x")
PY
