// MetricsRegistry: a named catalogue of counters, gauges and latency
// histograms with deterministic text expositions.  It absorbs the flat
// per-server counter structs (core::ServerStats and friends) by holding
// *references* to externally-owned values — registration is a one-time
// setup cost and the hot paths keep bumping plain struct fields — while
// also owning counters/histograms for subsystems that have no struct of
// their own.
//
// Scrapes are off the hot path: exposition walks a std::map so output is
// sorted by metric name and byte-stable for golden tests.
//
// Sharded nodes (DESIGN.md §5i) need two extra pieces:
//  * ShardedCounter — one cache-line-padded slot per shard so concurrent
//    writers never contend (relaxed atomics, no read-modify-write races);
//    the slots are summed only at scrape time.
//  * Snapshot — a plain-data copy of every metric, taken on the owning
//    shard's thread, mergeable across shards and rendered by the same
//    byte-stable formatters the single-shard expositions use.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/stats.h"

namespace discover::util {

/// Striped counter: each writer owns one slot and bumps it with a relaxed
/// store on its own cache line, so N shards incrementing concurrently never
/// touch shared state.  value() sums the slots; callers wanting an exact
/// total must quiesce the writers first (a scrape gathered through the
/// shard queues gets the happens-before edge for free).
class ShardedCounter {
 public:
  explicit ShardedCounter(std::size_t shards);

  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  [[nodiscard]] std::size_t shards() const { return shards_; }

  void inc(std::size_t shard, std::uint64_t delta = 1) {
    // Relaxed fetch_add: exact under any writer pattern, and with one
    // writer per slot the cache line never bounces between cores.
    slots_[shard % shards_].value.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const;
  [[nodiscard]] std::uint64_t slot_value(std::size_t shard) const {
    return slots_[shard % shards_].value.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };

  std::size_t shards_;
  std::unique_ptr<Slot[]> slots_;
};

class MetricsRegistry {
 public:
  /// Owned counter, created on first use.  The returned reference stays
  /// valid for the registry's lifetime; cache it and bump it directly.
  std::uint64_t& counter(const std::string& name);

  /// Registers an externally-owned counter (e.g. a ServerStats field).
  /// The pointee must outlive the registry.
  void register_counter(const std::string& name, const std::uint64_t* value);
  /// Same, for a high-water mark: rendered like any counter, but merged
  /// across shards by max — one core's peak is not the node's.
  void register_peak(const std::string& name, const std::uint64_t* value);

  /// Owned striped counter (see ShardedCounter), created on first use with
  /// `shards` slots.  Scrapes read it like any other counter (slots summed).
  ShardedCounter& sharded_counter(const std::string& name, std::size_t shards);

  /// Registers a gauge sampled at scrape time.
  void register_gauge(const std::string& name,
                      std::function<std::int64_t()> sample);

  /// Owned histogram, created on first use (unit: nanoseconds).
  LatencyHistogram& histogram(const std::string& name);

  /// Registers an externally-owned histogram (must outlive the registry).
  void register_histogram(const std::string& name,
                          const LatencyHistogram* hist);

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Plain-data copy of every metric (gauges sampled now).  Take it on the
  /// thread that owns the underlying values; the copy can then cross
  /// threads freely and be merged with other shards' snapshots.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, LatencyHistogram> histograms;
    /// The counters that are high-water marks (register_peak).
    std::set<std::string> peaks;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Element-wise union: counters and gauges sum, peaks take the max,
  /// histograms merge.
  static Snapshot merge(const std::vector<Snapshot>& parts);

  /// Byte-stable formatters over a snapshot.  prometheus_text()/json()
  /// below are exactly render_*(snapshot()).
  static std::string render_prometheus(const Snapshot& snap);
  static std::string render_json(const Snapshot& snap);

  /// Prometheus-style text exposition: `# TYPE` lines, counters/gauges as
  /// bare samples, histograms as summaries (quantile series + _sum/_count).
  [[nodiscard]] std::string prometheus_text() const;

  /// JSON variant of the same snapshot.
  [[nodiscard]] std::string json() const;

  /// Flat name->value map for the MONITORING push (histograms contribute
  /// `<name>_p95_ns` / `<name>_count` entries).
  [[nodiscard]] std::map<std::string, std::int64_t> monitoring_map() const;

  /// Same flattening over a snapshot — lets a sharded node push one report
  /// built from merge() of its per-core snapshots.
  static std::map<std::string, std::int64_t> monitoring_map(
      const Snapshot& snap);

  /// Interval delta since the previous call: counters as value-minus-last,
  /// owned histograms drained via snapshot_and_reset (referenced histograms
  /// are cumulative and excluded — their owner controls reset).
  struct IntervalSnapshot {
    std::map<std::string, std::uint64_t> counter_deltas;
    std::map<std::string, LatencyHistogram> histograms;
  };
  IntervalSnapshot take_interval();

 private:
  struct CounterSlot {
    std::uint64_t owned = 0;
    const std::uint64_t* external = nullptr;   // wins when set
    std::unique_ptr<ShardedCounter> sharded;   // wins over both
    bool peak = false;                         // merges by max
    std::uint64_t last_interval = 0;
    [[nodiscard]] std::uint64_t value() const {
      if (sharded) return sharded->value();
      return external ? *external : owned;
    }
  };
  struct HistogramSlot {
    LatencyHistogram owned;
    const LatencyHistogram* external = nullptr;  // wins when set
    [[nodiscard]] const LatencyHistogram& get() const {
      return external ? *external : owned;
    }
  };

  std::map<std::string, CounterSlot> counters_;
  std::map<std::string, std::function<std::int64_t()>> gauges_;
  std::map<std::string, HistogramSlot> histograms_;
};

}  // namespace discover::util
