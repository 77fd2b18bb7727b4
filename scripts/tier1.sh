#!/usr/bin/env bash
# Tier-1 verification: full build (any compiler warning fails it) + test
# suite, then every suite that starts threads again under ThreadSanitizer
# (the fault-injection paths, the shard cores, federation, the OS-socket
# transport and the threaded ThreadNetwork suites touch shared state from
# worker threads; TSan proves the locking), and the whole suite again under
# AddressSanitizer + UndefinedBehaviorSanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (warnings as errors) + full ctest =="
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== tier 1b: chaos + locks suites under TSan =="
cmake -B build-tsan -S . -DDISCOVER_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" \
  --target chaos_test retry_policy_test lock_manager_test lock_lifecycle_test
(cd build-tsan && ctest -L 'chaos|locks' --output-on-failure)

echo "== tier 1c: fan-out bench smoke (8-subscriber cases) =="
(cd build && ctest -L bench-smoke --output-on-failure)

echo "== tier 1d: backpressure + scenario-suite smoke =="
# Smoke scale (48 clients); the full 10k-client sweep is
# scripts/bench_scenarios.sh.
(cd build && ctest -L scenarios --output-on-failure)

echo "== tier 1e: observability suite =="
# Metrics registry + /metrics and /trace endpoints + cross-server trace
# propagation; the overhead sweep is scripts/bench_observe.sh.
(cd build && ctest -L observability --output-on-failure)

echo "== tier 1f: shard suite under TSan =="
# Sharded server core: dispatcher -> shard-worker handoffs, cross-shard
# hops, sharded counters and the multi-core end-to-end flow all run with
# real threads; TSan proves the queue handoffs publish state correctly.
# The capacity sweep is scripts/bench_shards.sh.
cmake --build build-tsan -j "$(nproc)" --target shard_test
(cd build-tsan && ctest -L shards --output-on-failure)

echo "== tier 1g: federation suite under TSan =="
# Sharded federation: owning-core peer relays, per-core outboxes, the
# cross-core peer-state broadcasts and the receiver-side frame scatter all
# run with real threads; TSan proves the cross-core handoffs.  The
# capacity sweep is scripts/bench_federation.sh.
cmake --build build-tsan -j "$(nproc)" --target federation_test
(cd build-tsan && ctest -L federation --output-on-failure)

echo "== tier 1h: OS-socket transport suite under TSan =="
# Real TCP over loopback: the event loop, the executor's per-node workers,
# its timer thread and sender threads all touch shared state; TSan proves
# the io_mutex_, wake-flag and executor queue/timer discipline.  The
# throughput A/B is scripts/bench_os.sh.
cmake --build build-tsan -j "$(nproc)" --target os_network_test executor_test
(cd build-tsan && ctest -L osnet --output-on-failure)

echo "== tier 1i: full ctest under ASan + UBSan =="
# The fan-out index holds raw session and subscription pointers, and
# OsNetwork's flush() hands writev raw pointers into queued frames while
# unlocked; ASan proves every one stays live, and UBSan (no recovery) fails
# a test on the first undefined operation.
cmake -B build-asan -S . -DDISCOVER_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$(nproc)"
(cd build-asan && ctest --output-on-failure -j "$(nproc)")

echo "== tier 1j: threaded suites under TSan =="
# Every other test that starts threads: the unsharded ThreadNetwork server
# (one worker per node, owner hops as direct calls), the network backends
# and the threaded workload drivers.  TSan proves the actor discipline
# holds wherever a test or a driver crosses threads.
cmake --build build-tsan -j "$(nproc)" \
  --target integration_thread_test net_test workload_test
(cd build-tsan && ctest -L threads --output-on-failure)

echo "tier1: all green"
