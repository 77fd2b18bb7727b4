#!/usr/bin/env bash
# Transport A/B sweep: runs bench_os (one-way stream throughput, payload
# sizes 64B / 4KiB / 64KiB, ThreadNetwork vs OsNetwork over 127.0.0.1)
# 5 times in a Release build with google-benchmark's JSON reporter and
# writes BENCH_os.json at the repo root: per backend and payload size the
# median events/sec, its coefficient of variation and every repetition,
# the os-over-thread ratio of the medians, and the host (nproc, compiler,
# build type).  EXPERIMENTS.md E13 describes the methodology and schema.
#
#   scripts/bench_os.sh                      # Release build in build-bench/
#   BUILD_DIR=/tmp/b scripts/bench_os.sh
#
# Refuses a sanitizer tree (a reused BUILD_DIR keeps a cached
# DISCOVER_SANITIZE): it would measure the instrumentation.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
OUT="${OUT:-BENCH_os.json}"
readonly REPS=5

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cache="$BUILD_DIR/CMakeCache.txt"
sanitize=$(sed -n 's/^DISCOVER_SANITIZE:STRING=//p' "$cache")
compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$cache")
if [[ -n "$sanitize" ]]; then
  echo "bench_os.sh: refusing to measure a '$sanitize' sanitizer tree" \
       "in $BUILD_DIR" >&2
  exit 1
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_os

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$BUILD_DIR"/bench/bench_os \
  --benchmark_filter=BM_Transport \
  --benchmark_repetitions="$REPS" \
  --benchmark_format=json --benchmark_out="$tmp" \
  --benchmark_out_format=json >/dev/null

python3 - "$tmp" "$OUT" "$REPS" \
  "$(basename "$compiler") $("$compiler" -dumpfullversion)" "$(nproc)" \
  "$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unavailable)" \
  <<'PY'
import json, statistics, sys

# sha: "<commit>-dirty" when the tree had uncommitted changes.
src, out, reps, compiler, nproc, sha = sys.argv[1:7]
with open(src) as f:
    data = json.load(f)

def arg(name, key):
    for part in name.split("/"):
        if part.startswith(key + ":"):
            return int(part.split(":")[1])
    return None

# One entry per repetition (google-benchmark's aggregates are skipped: the
# median and CV below are computed from the repetitions themselves).
samples = {}
for b in data.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    os_flag = arg(b["name"], "os")
    size = arg(b["name"], "bytes")
    if os_flag is None or size is None or "events_per_sec" not in b:
        continue
    s = samples.setdefault((os_flag, size), {"eps": [], "mbps": []})
    s["eps"].append(b["events_per_sec"])
    s["mbps"].append(b.get("mb_per_sec", 0.0))

def cv(xs):
    mean = statistics.fmean(xs)
    return statistics.pstdev(xs) / mean if len(xs) > 1 and mean else 0.0

rows = []
medians = {}
for (os_flag, size), s in sorted(samples.items(), key=lambda kv: (kv[0][1], kv[0][0])):
    median = statistics.median(s["eps"])
    medians[(os_flag, size)] = median
    rows.append({
        "backend": "os" if os_flag else "thread",
        "payload_bytes": size,
        "reps": len(s["eps"]),
        "events_per_sec_median": round(median, 1),
        "events_per_sec_cv": round(cv(s["eps"]), 4),
        "events_per_sec_min": round(min(s["eps"]), 1),
        "events_per_sec_max": round(max(s["eps"]), 1),
        "mb_per_sec_median": round(statistics.median(s["mbps"]), 2),
        "events_per_sec_reps": [round(x, 1) for x in s["eps"]],
    })

# Headline ratios: loopback-TCP median throughput over in-process, per
# payload size (< 1.0 is expected — the socket path pays for realism).
ratio = {}
for size in sorted({s for (_, s) in medians}):
    base = medians.get((0, size), 0)
    if base:
        ratio[f"os_over_thread_events_per_sec_{size}B"] = round(
            medians.get((1, size), 0) / base, 3)

ctx = data.get("context", {})
result = {
    "experiment": "transport_ab_os_vs_thread",
    "context": {
        "date": ctx.get("date"),
        "git_sha": sha,
        "nproc": int(nproc),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "compiler": compiler,
        "build_type": "Release",
        "reps": int(reps),
    },
    "transports": rows,
    "ratio": ratio,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} ({reps} reps, Release, nproc {nproc})")
for r in rows:
    print(f"  {r['backend']:6} {r['payload_bytes']:6}B  median "
          f"{r['events_per_sec_median']:>12,.0f} ev/s  cv {r['events_per_sec_cv']:.3f}")
for k, v in ratio.items():
    print(f"  {k}: {v}x")
PY
