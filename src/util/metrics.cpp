#include "util/metrics.h"

#include <algorithm>
#include <cstdio>

namespace discover::util {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

}  // namespace

ShardedCounter::ShardedCounter(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards),
      slots_(std::make_unique<Slot[]>(shards_)) {}

std::uint64_t ShardedCounter::value() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards_; ++i) {
    total += slots_[i].value.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  return counters_[name].owned;
}

void MetricsRegistry::register_counter(const std::string& name,
                                       const std::uint64_t* value) {
  counters_[name].external = value;
}

void MetricsRegistry::register_peak(const std::string& name,
                                    const std::uint64_t* value) {
  CounterSlot& slot = counters_[name];
  slot.external = value;
  slot.peak = true;
}

ShardedCounter& MetricsRegistry::sharded_counter(const std::string& name,
                                                 std::size_t shards) {
  CounterSlot& slot = counters_[name];
  if (!slot.sharded) slot.sharded = std::make_unique<ShardedCounter>(shards);
  return *slot.sharded;
}

void MetricsRegistry::register_gauge(const std::string& name,
                                     std::function<std::int64_t()> sample) {
  gauges_[name] = std::move(sample);
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name].owned;
}

void MetricsRegistry::register_histogram(const std::string& name,
                                         const LatencyHistogram* hist) {
  histograms_[name].external = hist;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, slot] : counters_) {
    snap.counters[name] = slot.value();
    if (slot.peak) snap.peaks.insert(name);
  }
  for (const auto& [name, sample] : gauges_) snap.gauges[name] = sample();
  for (const auto& [name, slot] : histograms_) {
    snap.histograms[name] = slot.get();
  }
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::merge(
    const std::vector<Snapshot>& parts) {
  Snapshot out;
  for (const Snapshot& part : parts) {
    for (const auto& [name, v] : part.counters) {
      std::uint64_t& merged = out.counters[name];
      merged = part.peaks.count(name) != 0 ? std::max(merged, v) : merged + v;
    }
    out.peaks.insert(part.peaks.begin(), part.peaks.end());
    for (const auto& [name, v] : part.gauges) out.gauges[name] += v;
    for (const auto& [name, h] : part.histograms) {
      out.histograms[name].merge(h);
    }
  }
  return out;
}

std::string MetricsRegistry::render_prometheus(const Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " ";
    append_u64(out, value);
    out += "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    append_i64(out, value);
    out += "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += "# TYPE " + name + " summary\n";
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          std::pair<const char*, double>{"0.95", 0.95},
          std::pair<const char*, double>{"0.99", 0.99}}) {
      out += name + "{quantile=\"" + label + "\"} ";
      append_u64(out, static_cast<std::uint64_t>(h.percentile(q)));
      out += "\n";
    }
    out += name + "_sum ";
    append_u64(out, static_cast<std::uint64_t>(
                        h.mean_ns() * static_cast<double>(h.count())));
    out += "\n";
    out += name + "_count ";
    append_u64(out, h.count());
    out += "\n";
  }
  return out;
}

std::string MetricsRegistry::render_json(const Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    append_u64(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    append_i64(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": ";
    append_u64(out, h.count());
    out += ", \"p50_ns\": ";
    append_u64(out, static_cast<std::uint64_t>(h.percentile(0.50)));
    out += ", \"p95_ns\": ";
    append_u64(out, static_cast<std::uint64_t>(h.percentile(0.95)));
    out += ", \"p99_ns\": ";
    append_u64(out, static_cast<std::uint64_t>(h.percentile(0.99)));
    out += ", \"max_ns\": ";
    append_u64(out, static_cast<std::uint64_t>(h.max()));
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  return render_prometheus(snapshot());
}

std::string MetricsRegistry::json() const { return render_json(snapshot()); }

std::map<std::string, std::int64_t> MetricsRegistry::monitoring_map() const {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, slot] : counters_) {
    out[name] = static_cast<std::int64_t>(slot.value());
  }
  for (const auto& [name, sample] : gauges_) out[name] = sample();
  for (const auto& [name, slot] : histograms_) {
    const LatencyHistogram& h = slot.get();
    out[name + "_count"] = static_cast<std::int64_t>(h.count());
    out[name + "_p95_ns"] = static_cast<std::int64_t>(h.percentile(0.95));
  }
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::monitoring_map(
    const Snapshot& snap) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : snap.counters) {
    out[name] = static_cast<std::int64_t>(value);
  }
  for (const auto& [name, value] : snap.gauges) out[name] = value;
  for (const auto& [name, h] : snap.histograms) {
    out[name + "_count"] = static_cast<std::int64_t>(h.count());
    out[name + "_p95_ns"] = static_cast<std::int64_t>(h.percentile(0.95));
  }
  return out;
}

MetricsRegistry::IntervalSnapshot MetricsRegistry::take_interval() {
  IntervalSnapshot snap;
  for (auto& [name, slot] : counters_) {
    const std::uint64_t now = slot.value();
    snap.counter_deltas[name] = now - slot.last_interval;
    slot.last_interval = now;
  }
  for (auto& [name, slot] : histograms_) {
    if (slot.external) continue;  // cumulative; owner controls reset
    snap.histograms[name] = slot.owned.snapshot_and_reset();
  }
  return snap;
}

}  // namespace discover::util
