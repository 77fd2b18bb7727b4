// Shared pieces of the end-to-end benchmark: parameters, the process
// topology every role builds in the same order, span/statistics recording
// for the traced run, and the delivery validators.
//
// The benchmark drives the real middleware as separate OS processes over
// net::OsNetwork on 127.0.0.1.  Only files in this directory record spans;
// they wrap the program's public seams (net::Network, MessageHandler) and
// never change the code under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/network.h"
#include "proto/types.h"
#include "util/stats.h"

namespace perfbench {

using namespace discover;

/// key=value command-line parameters (run.py flattens workloads.json).
class Params {
 public:
  static Params parse(int argc, char** argv, int first);
  [[nodiscard]] bool has(const std::string& k) const {
    return kv_.count(k) != 0;
  }
  [[nodiscard]] std::string str(const std::string& k,
                                const std::string& def = "") const;
  [[nodiscard]] std::int64_t num(const std::string& k,
                                 std::int64_t def = 0) const;
  [[nodiscard]] double real(const std::string& k, double def = 0) const;
  /// Comma-separated list of numbers.
  [[nodiscard]] std::vector<double> list(const std::string& k) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// CLOCK_MONOTONIC nanoseconds: one timeline shared by every process on
/// the host, so spans from the generator and the SUT line up.
inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON object writer (numbers, strings, nested raw JSON).
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v);
  JsonObj& num(const std::string& k, std::int64_t v);
  JsonObj& num(const std::string& k, std::uint64_t v);
  JsonObj& num(const std::string& k, int v) {
    return num(k, static_cast<std::int64_t>(v));
  }
  JsonObj& str(const std::string& k, const std::string& v);
  JsonObj& raw(const std::string& k, const std::string& json);
  [[nodiscard]] std::string done() const { return body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_ = "{";
};
/// {"count":n,"mean":..,"p50":..,"p99":..} of a histogram, in ns.
std::string hist_json(const util::LatencyHistogram& h);

/// Exact percentile of raw samples (nearest-rank on a sorted copy).
double percentile(std::vector<std::int64_t> v, double q);

// ---------------------------------------------------------------------------
// Topology: every process adds the same nodes in the same order, hosting
// its own and registering the rest as remotes (OsNetwork's id contract).
// ---------------------------------------------------------------------------

enum class Role { registry, server, ctl, app, anchor, gen };

struct NodeSpec {
  std::string name;
  Role role;
  int proc;  // SUT process index; -1 = generator
};

/// Process 0 hosts the steered applications (and, when there are two
/// processes, the registry); process 1 is the front server whose sessions
/// reach process 0's applications over the peer link.
std::vector<NodeSpec> topology(const Params& p);

// ---------------------------------------------------------------------------
// Traced run: spans and per-layer histograms.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;  // mono_ns timeline
  std::int64_t dur_ns;
  std::uint64_t rid;  // X-Request-Id of the request it serves (0 = none)
  std::uint32_t tid;
};

/// In-memory span store, written once at exit as Chrome trace-event JSON.
/// Keeps the spans of every `every`-th request id (so one request's spans
/// across processes are kept or dropped together) and one in `every` of
/// the spans serving no request; spans past `cap` are not kept.
inline constexpr std::uint64_t kSpanSampleEvery = 4;
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}
  void add(const char* name, std::int64_t start, std::int64_t dur,
           std::uint64_t rid);
  [[nodiscard]] bool write_chrome(const std::string& path, int pid,
                                  const std::string& process_name) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t cap_;
  std::uint64_t untagged_ = 0;
};

/// Named histograms fed from several worker threads.
class LayerStats {
 public:
  void record(const std::string& name, std::int64_t ns);
  void clear();
  [[nodiscard]] std::string json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, util::LatencyHistogram> hist_;
};

/// Forwarding net::Network: every call goes to `inner`; handlers registered
/// through it are wrapped so each delivery records its queue wait (receiver
/// decode -> handler start, from Message::sent_at), its span and its self
/// time (span minus the net.send spans it issued).
class TracingNetwork final : public net::Network {
 public:
  TracingNetwork(net::Network& inner, SpanLog& log, LayerStats& stats);
  ~TracingNetwork() override;
  TracingNetwork(const TracingNetwork&) = delete;
  TracingNetwork& operator=(const TracingNetwork&) = delete;

  /// Registers `handler` wrapped; `role` names it in the layer statistics.
  net::NodeId add_traced(std::string name, net::MessageHandler* handler,
                         net::DomainId domain, const std::string& role);

  net::NodeId add_node(std::string name, net::MessageHandler* handler,
                       net::DomainId domain = net::DomainId{0}) override {
    return add_traced(std::move(name), handler, domain, "node");
  }
  void send(net::NodeId from, net::NodeId to, net::Channel channel,
            net::Payload payload) override;
  net::TimerId schedule(net::NodeId node, util::Duration delay,
                        std::function<void()> fn) override {
    return inner_.schedule(node, delay, std::move(fn));
  }
  void cancel(net::TimerId id) override { inner_.cancel(id); }
  [[nodiscard]] bool supports_sharding() const override {
    return inner_.supports_sharding();
  }
  [[nodiscard]] util::TimePoint now() const override { return inner_.now(); }
  [[nodiscard]] const util::Clock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] net::TrafficStats traffic() const override {
    return inner_.traffic();
  }
  void reset_traffic() override { inner_.reset_traffic(); }
  [[nodiscard]] const std::string& node_name(net::NodeId id) const override {
    return inner_.node_name(id);
  }
  [[nodiscard]] net::DomainId node_domain(net::NodeId id) const override {
    return inner_.node_domain(id);
  }

 private:
  class Wrapper;
  net::Network& inner_;
  SpanLog& log_;
  LayerStats& stats_;
  std::vector<std::unique_ptr<Wrapper>> wrappers_;
};

/// X-Request-Id of an HTTP message, 0 when absent (cheap header scan).
std::uint64_t request_id_of(const util::Bytes& http_message);

// ---------------------------------------------------------------------------
// Delivery validation.
// ---------------------------------------------------------------------------

/// One session's poll stream for one application: every event exactly
/// once, in seq order; a resync marker (value = events shed) covers
/// exactly that many missing seqs.
class PollStream {
 public:
  /// Expect `next` as the first seq (0 = take the first event seen).
  void arm(std::uint64_t next) { next_ = next; }
  /// nullptr when the event is acceptable, else the violation.
  const char* accept(const proto::ClientEvent& ev);

 private:
  std::uint64_t next_ = 0;
  std::uint64_t skip_ = 0;
};

/// The push stream one server sends one generator node for one app: the
/// node hosts `copies` push sessions subscribed to the app, so each seq
/// arrives exactly `copies` times back to back, seqs consecutive.
class PushStream {
 public:
  explicit PushStream(std::uint32_t copies = 1) : copies_(copies) {}
  const char* accept(std::uint64_t seq);

 private:
  std::uint32_t copies_;
  std::uint64_t cur_ = 0;
  std::uint32_t count_ = 0;
};

/// Order-insensitive digest of an event's content (not its timestamp).
std::uint64_t event_digest(const proto::ClientEvent& ev);

/// Self-tests of the validators and the tracing wrappers; 0 = all pass.
int run_selftest();
/// Layer unit costs by replay of captured inputs (see replay.cpp).
struct ReplayInputs {
  std::vector<util::Bytes> requests;     // HTTP request wire bytes
  std::vector<util::Bytes> poll_bodies;  // poll reply bodies
  std::vector<security::SessionToken> tokens;
};
std::string run_replay(const ReplayInputs& in);

int sut_main(const Params& p);
int gen_main(const Params& p);

}  // namespace perfbench
