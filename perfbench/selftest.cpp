// Self-tests of the benchmark's own machinery, run before every benchmark
// run: the delivery validators must reject injected duplicates, reorders
// and gaps, and the tracing wrappers must pass every message through
// unchanged (same payload bytes, same order per (src, dst, channel)).
#include <cstdio>
#include <random>
#include <thread>

#include "bench.h"
#include "net/os_network.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

proto::ClientEvent ev(std::uint64_t seq) {
  proto::ClientEvent e;
  e.kind = proto::EventKind::update;
  e.seq = seq;
  return e;
}

proto::ClientEvent resync(std::int64_t shed) {
  proto::ClientEvent e;
  e.kind = proto::EventKind::resync;
  e.value = proto::ParamValue{shed};
  return e;
}

/// True when every event of `seqs` is accepted (0 = resync marker of 2).
bool poll_accepts(std::uint64_t first, const std::vector<std::uint64_t>& seqs) {
  PollStream s;
  s.arm(first);
  for (const std::uint64_t q : seqs) {
    if (s.accept(q == 0 ? resync(2) : ev(q)) != nullptr) return false;
  }
  return true;
}

bool push_accepts(std::uint32_t copies, const std::vector<std::uint64_t>& seqs) {
  PushStream s(copies);
  for (const std::uint64_t q : seqs) {
    if (s.accept(q) != nullptr) return false;
  }
  return true;
}

void validator_tests() {
  expect(poll_accepts(5, {5, 6, 7, 8}), "in-order poll stream accepted");
  expect(poll_accepts(5, {5, 0, 8, 9}), "resync marker covers its gap");
  expect(!poll_accepts(5, {5, 6, 6, 7}), "duplicate rejected");
  expect(!poll_accepts(5, {5, 7, 6, 8}), "reorder rejected");
  expect(!poll_accepts(5, {5, 6, 8}), "gap rejected");
  expect(!poll_accepts(5, {6}), "missing first event rejected");
  expect(!poll_accepts(5, {5, 0, 9}), "gap beyond a resync rejected");
  expect(push_accepts(3, {4, 4, 4, 5, 5, 5, 6}), "push groups accepted");
  expect(!push_accepts(3, {4, 4, 4, 4}), "duplicate push rejected");
  expect(!push_accepts(3, {4, 4, 5}), "missing push copy rejected");
  expect(!push_accepts(1, {4, 6}), "push gap rejected");
  expect(!push_accepts(1, {4, 5, 4}), "push reorder rejected");
}

class Sink final : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    const std::lock_guard<std::mutex> lock(mu);
    got.push_back({msg.channel, msg.payload.bytes()});
  }
  std::mutex mu;
  std::vector<std::pair<net::Channel, util::Bytes>> got;
};

// Two OsNetwork instances over loopback, both sides behind the tracing
// wrappers: a source sends through TracingNetwork::send, the sink receives
// through the wrapped handler.
void passthrough_test() {
  SpanLog log(100000);
  LayerStats stats;
  Sink sink;
  net::OsNetwork a;
  TracingNetwork ta(a, log, stats);
  const net::NodeId sink_id =
      ta.add_traced("sink", &sink, net::DomainId{1}, "server");
  a.add_remote("source", "127.0.0.1", 0, net::DomainId{2});
  if (!a.start().ok()) {
    expect(false, "sink network starts");
    return;
  }
  net::OsNetworkConfig cfg;
  cfg.listen = false;
  net::OsNetwork b(cfg);
  TracingNetwork tb(b, log, stats);
  b.add_remote("sink", "127.0.0.1", a.listen_port(), net::DomainId{1});
  Sink unused;
  const net::NodeId src_id =
      tb.add_traced("source", &unused, net::DomainId{2}, "gen");
  if (!b.start().ok()) {
    expect(false, "source network starts");
    a.stop();
    return;
  }
  std::mt19937_64 rng(7);
  const net::Channel channels[] = {net::Channel::http, net::Channel::giop,
                                   net::Channel::main_channel};
  std::map<net::Channel, std::vector<util::Bytes>> sent;
  constexpr int kMessages = 3000;
  for (int i = 0; i < kMessages; ++i) {
    const net::Channel ch = channels[rng() % 3];
    util::Bytes payload(rng() % 2048);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    if (ch == net::Channel::http) {
      const std::string head = "HTTP/1.0 200 OK\r\nX-Request-Id: " +
                               std::to_string(i + 1) + "\r\n\r\n";
      payload.insert(payload.begin(), head.begin(), head.end());
    }
    sent[ch].push_back(payload);
    tb.send(src_id, sink_id, ch, payload);
  }
  const std::int64_t deadline = mono_ns() + util::seconds(10);
  while (mono_ns() < deadline) {
    {
      const std::lock_guard<std::mutex> lock(sink.mu);
      if (sink.got.size() >= kMessages) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  b.stop();
  a.stop();
  std::map<net::Channel, std::vector<util::Bytes>> got;
  for (auto& [ch, bytes] : sink.got) got[ch].push_back(bytes);
  expect(sink.got.size() == kMessages, "every message delivered once");
  expect(got == sent, "payload bytes and per-channel order unchanged");
  expect(request_id_of(sent[net::Channel::http].front()) != 0,
         "request id read from an HTTP head");
}

}  // namespace

int run_selftest() {
  validator_tests();
  passthrough_test();
  if (g_failures == 0) std::printf("selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
