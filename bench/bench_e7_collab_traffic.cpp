// E7: cross-server collaboration traffic (paper §5.2.3).  The claim: with
// peer-to-peer servers, a collaboration event crosses the WAN ONCE PER
// REMOTE SERVER and fans out to clients over their local LAN, whereas a
// single central server sends every remote client its own copy over the
// WAN (and serves every remote poll over the WAN).  Expected shape: WAN
// messages/bytes grow with #servers in P2P but with #clients in the
// centralized deployment, and far clients see lower delivery latency in
// P2P.
#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/synthetic.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

// ---------------------------------------------------------------------------
// Global allocation counter (fan-out sweep): SimNetwork runs are
// single-threaded, so relaxed atomics cost nothing and stay correct if a
// future case spins up threads.  Aligned-new falls through to the default
// implementation — the payloads measured here are byte buffers and events
// with natural alignment.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// GCC inlines these into callers, sees free() release a pointer that came
// from operator new and reports a mismatch.  The replacement operator new
// above allocates with malloc, so every block is freed by its own
// allocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace discover;

constexpr int kSites = 4;
constexpr int kChats = 30;

bench::Summary& summary() {
  static bench::Summary s(
      "E7: collaboration traffic, P2P server network vs centralized "
      "(4 sites, WAN 20ms)",
      {"clients", "deploy", "wan_msgs", "wan_bytes", "wan_bytes_per_event",
       "chat_delivery_p50", "events_rx_total"});
  return s;
}

struct Result {
  std::uint64_t wan_msgs = 0;
  std::uint64_t wan_bytes = 0;
  util::Duration chat_p50 = 0;
  std::uint64_t events_rx = 0;
};

Result run_deployment(int n_clients, bool p2p) {
  workload::ScenarioConfig cfg;
  cfg.wan = {util::milliseconds(20), 12.5e6};
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  workload::Scenario scenario(cfg);

  // Servers: P2P puts one per site; centralized has a single server at
  // site 1 that every remote client must reach over the WAN.
  std::vector<core::DiscoverServer*> servers;
  const int n_servers = p2p ? kSites : 1;
  for (int i = 0; i < n_servers; ++i) {
    servers.push_back(&scenario.add_server(
        "site" + std::to_string(i + 1), static_cast<std::uint32_t>(i + 1)));
  }

  std::vector<security::AclEntry> acl;
  for (int c = 0; c < n_clients; ++c) {
    acl.push_back({"user" + std::to_string(c),
                   security::Privilege::read_write, 0});
  }
  app::AppConfig app_cfg;
  app_cfg.name = "shared";
  app_cfg.acl = acl;
  app_cfg.step_time = util::milliseconds(2);
  app_cfg.update_every = 10;  // periodic updates contribute traffic too
  app_cfg.interact_every = 0;
  auto& shared = scenario.add_app<app::SyntheticApp>(*servers[0], app_cfg,
                                                     app::SyntheticSpec{});
  // In P2P mode every non-host server also hosts an identity app so users
  // can pass level-1 auth at their local server.
  if (p2p) {
    for (int i = 1; i < n_servers; ++i) {
      app::AppConfig id_cfg;
      id_cfg.name = "identity";
      id_cfg.acl = acl;
      id_cfg.step_time = util::milliseconds(50);
      id_cfg.update_every = 0;
      id_cfg.interact_every = 0;
      scenario.add_app<app::SyntheticApp>(*servers[i], id_cfg,
                                          app::SyntheticSpec{});
    }
  }
  scenario.run_until([&] {
    if (!shared.registered()) return false;
    for (auto* s : servers) {
      if (s->peer_count() != static_cast<std::size_t>(n_servers - 1)) {
        return false;
      }
    }
    return true;
  });
  const proto::AppId app_id = shared.app_id();

  // Clients round-robin across the sites.  In P2P they talk to their
  // site-local server; centralized, everyone talks to the single server
  // (crossing the WAN for sites 2..4 — Scenario places a client in its
  // server's domain, so emulate the far clients via a domain override).
  std::vector<core::DiscoverClient*> clients;
  for (int c = 0; c < n_clients; ++c) {
    const int site = c % kSites;
    core::DiscoverServer& my_server = p2p ? *servers[site] : *servers[0];
    // The client physically sits at its own site either way; with one
    // central server, sites 2..4 reach it across the WAN.
    auto& client = scenario.add_client_in_domain(
        "user" + std::to_string(c), my_server,
        static_cast<std::uint32_t>(site + 1));
    clients.push_back(&client);
    (void)workload::sync_login(scenario.net(), client);
    (void)workload::sync_select(scenario.net(), client, app_id);
  }

  // Steady state: everyone polls every 50 ms; chats posted round-robin.
  scenario.net().reset_traffic();
  util::LatencyHistogram chat_latency;
  std::vector<std::size_t> seen(clients.size(), 0);
  const auto drain_all = [&] {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      (void)workload::sync_poll(scenario.net(), *clients[i], app_id);
      const util::TimePoint now = scenario.net().now();
      const auto& events = clients[i]->received_events();
      for (std::size_t k = seen[i]; k < events.size(); ++k) {
        if (events[k].kind == proto::EventKind::chat) {
          chat_latency.record(now - events[k].at);
        }
      }
      seen[i] = events.size();
    }
  };

  for (int chat = 0; chat < kChats; ++chat) {
    auto& sender = *clients[static_cast<std::size_t>(chat) % clients.size()];
    (void)workload::sync_collab_post(scenario.net(), sender, app_id,
                                     proto::EventKind::chat,
                                     "msg" + std::to_string(chat));
    scenario.run_for(util::milliseconds(50));
    drain_all();
  }

  Result out;
  out.wan_msgs = scenario.net().traffic().wan_messages;
  out.wan_bytes = scenario.net().traffic().wan_bytes;
  out.chat_p50 = chat_latency.percentile(0.5);
  for (auto* c : clients) out.events_rx += c->events_received();
  return out;
}

void BM_E7(benchmark::State& state) {
  const int n_clients = static_cast<int>(state.range(0));
  const bool p2p = state.range(1) != 0;
  Result r{};
  for (auto _ : state) {
    r = run_deployment(n_clients, p2p);
  }
  state.counters["wan_msgs"] = static_cast<double>(r.wan_msgs);
  state.counters["chat_p50_ms"] = util::to_ms(r.chat_p50);
  summary().row({workload::fmt_int(static_cast<std::uint64_t>(n_clients)),
                 p2p ? "p2p(4 servers)" : "central(1 server)",
                 workload::fmt_int(r.wan_msgs),
                 util::format_bytes(r.wan_bytes),
                 workload::fmt_double(
                     r.events_rx > 0
                         ? static_cast<double>(r.wan_bytes) /
                               static_cast<double>(r.events_rx)
                         : 0,
                     1),
                 util::format_duration(r.chat_p50),
                 workload::fmt_int(r.events_rx)});
}
BENCHMARK(BM_E7)
    ->Args({8, 0})->Args({8, 1})
    ->Args({16, 0})->Args({16, 1})
    ->Args({32, 0})->Args({32, 1})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fan-out sweep: events/sec and allocations per delivered event as one
// publish storm fans out to 8/64/512 subscribers through the per-app
// subscriber index.  Push mode measures the encode-once broadcast; poll
// mode measures the shared-event FIFOs.
// ---------------------------------------------------------------------------

bench::Summary& fanout_summary() {
  static bench::Summary s(
      "Fan-out: one chat event -> N subscribers, single server (SimNetwork)",
      {"subs", "mode", "events_per_s", "allocs_per_delivery",
       "alloc_bytes_per_delivery", "delivered"});
  return s;
}

struct FanoutResult {
  std::uint64_t delivered = 0;
  double events_per_sec = 0;
  double allocs_per_delivery = 0;
  double alloc_bytes_per_delivery = 0;
};

constexpr int kFanoutEvents = 100;

FanoutResult run_fanout(int subscribers, bool push) {
  workload::ScenarioConfig cfg;
  cfg.server_template.client_fifo_cap = 0;  // storm must not drop (poll mode)
  workload::Scenario scenario(cfg);
  auto& server = scenario.add_server("s", 1);

  std::vector<security::AclEntry> acl;
  acl.push_back({"driver", security::Privilege::read_write, 0});
  for (int i = 0; i < subscribers; ++i) {
    acl.push_back({"s" + std::to_string(i),
                   security::Privilege::read_only, 0});
  }
  app::AppConfig app_cfg;
  app_cfg.name = "board";
  app_cfg.acl = acl;
  app_cfg.step_time = util::milliseconds(50);
  app_cfg.update_every = 0;  // the driver's chats are the only events
  app_cfg.interact_every = 0;
  auto& app = scenario.add_app<app::SyntheticApp>(server, app_cfg,
                                                  app::SyntheticSpec{});
  scenario.run_until([&] { return app.registered(); });
  const proto::AppId app_id = app.app_id();

  // N counting sinks (setup over real HTTP, storm counted without parsing)
  // plus one regular driver client that publishes the chats.
  std::vector<std::unique_ptr<bench::CountingClient>> sinks;
  const net::DomainId domain = scenario.net().node_domain(server.node());
  for (int i = 0; i < subscribers; ++i) {
    core::ClientConfig ccfg;
    ccfg.user = "s" + std::to_string(i);
    auto sink =
        std::make_unique<bench::CountingClient>(scenario.net(), ccfg);
    const net::NodeId node = scenario.net().add_node(
        "sink" + std::to_string(i), sink.get(), domain);
    sink->attach(node);
    sink->portal().set_server(server.node());
    (void)workload::sync_login(scenario.net(), sink->portal());
    (void)workload::sync_select(scenario.net(), sink->portal(), app_id);
    if (push) {
      (void)workload::sync_group_op(scenario.net(), sink->portal(), app_id,
                                    proto::GroupOp::enable_push, "");
    }
    sinks.push_back(std::move(sink));
  }
  auto& driver = scenario.add_client("driver", server);
  (void)workload::sync_login(scenario.net(), driver);
  (void)workload::sync_select(scenario.net(), driver, app_id);

  // A realistic whiteboard-op payload (a stroke batch, ~1 KiB), encoded
  // once and shared by every recipient.
  const std::string text(1024, 'w');

  for (auto& sink : sinks) sink->set_counting(true);
  const std::uint64_t delivered0 = server.stats().events_delivered;
  const std::uint64_t allocs0 =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t alloc_bytes0 =
      g_alloc_bytes.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();

  for (int k = 0; k < kFanoutEvents; ++k) {
    (void)workload::sync_collab_post(scenario.net(), driver, app_id,
                                     proto::EventKind::whiteboard, text);
  }
  scenario.run_for(util::milliseconds(100));  // flush in-flight pushes

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t delivered =
      server.stats().events_delivered - delivered0;
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t alloc_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - alloc_bytes0;

  FanoutResult out;
  out.delivered = delivered;
  if (elapsed_s > 0) {
    out.events_per_sec = static_cast<double>(delivered) / elapsed_s;
  }
  if (delivered > 0) {
    out.allocs_per_delivery =
        static_cast<double>(allocs) / static_cast<double>(delivered);
    out.alloc_bytes_per_delivery =
        static_cast<double>(alloc_bytes) / static_cast<double>(delivered);
  }
  return out;
}

void BM_E7_Fanout(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  const bool push = state.range(1) != 0;
  FanoutResult r{};
  for (auto _ : state) {
    r = run_fanout(subscribers, push);
  }
  state.counters["events_per_sec"] = r.events_per_sec;
  state.counters["allocs_per_delivery"] = r.allocs_per_delivery;
  state.counters["alloc_bytes_per_delivery"] = r.alloc_bytes_per_delivery;
  state.counters["delivered"] = static_cast<double>(r.delivered);
  fanout_summary().row(
      {workload::fmt_int(static_cast<std::uint64_t>(subscribers)),
       push ? "push" : "poll", workload::fmt_double(r.events_per_sec, 0),
       workload::fmt_double(r.allocs_per_delivery, 2),
       workload::fmt_double(r.alloc_bytes_per_delivery, 1),
       workload::fmt_int(r.delivered)});
}
BENCHMARK(BM_E7_Fanout)
    ->ArgNames({"subs", "push"})
    ->Args({8, 1})->Args({8, 0})
    ->Args({64, 1})->Args({64, 0})
    ->Args({512, 1})->Args({512, 0})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

DISCOVER_BENCH_MAIN(summary().print(); fanout_summary().print())
