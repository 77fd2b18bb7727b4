// E2: simultaneous clients per server (paper §6.1: "the middleware was
// able to support 20 simultaneous clients.  As we increased the number of
// simultaneous clients beyond 20, we noticed degradation in performance").
// Real threads, real time: K portal clients run the poll-and-pull loop and
// issue periodic read commands against one application on one server over
// HTTP.  Expected shape: request latency grows super-linearly once the
// servlet path saturates, visibly past the ~20-client knee.
#include "bench_common.h"

#include <chrono>
#include <thread>

#include "app/synthetic.h"
#include "workload/drivers.h"
#include "workload/thread_scenario.h"
#include "workload/sync_ops.h"

namespace {

using namespace discover;

bench::Summary& summary() {
  static bench::Summary s(
      "E2: simultaneous HTTP clients on one server (ThreadNetwork, real "
      "time; paper: degradation past ~20)",
      {"clients", "req_per_s", "rtt_p50", "rtt_p95", "rtt_max",
       "cmd_acks_ok"});
  return s;
}

void BM_E2(benchmark::State& state) {
  const int n_clients = static_cast<int>(state.range(0));
  util::LatencyHistogram rtt;
  std::uint64_t acks_ok = 0;
  double req_rate = 0;

  for (auto _ : state) {
    core::ServerConfig server_cfg;
    // Emulate 2001-era servlet cost so the paper's ~20-client knee is
    // reproducible on modern hardware (see ServerConfig::servlet_cpu_cost).
    server_cfg.servlet_cpu_cost = util::microseconds(1500);
    workload::ThreadScenario scenario(server_cfg);
    auto& server = scenario.add_server("portal");

    std::vector<security::AclEntry> acl;
    for (int i = 0; i < n_clients; ++i) {
      acl.push_back({"u" + std::to_string(i),
                     security::Privilege::read_only, 0});
    }
    app::AppConfig cfg;
    cfg.name = "target";
    cfg.acl = acl;
    cfg.step_time = util::milliseconds(10);
    cfg.update_every = 5;  // 20 updates/s into every client FIFO
    cfg.interact_every = 4;
    cfg.interaction_window = util::milliseconds(2);
    auto& target = scenario.add_app<app::SyntheticApp>(
        server, cfg, app::SyntheticSpec{4, 8, 50});

    std::vector<core::DiscoverClient*> clients;
    for (int i = 0; i < n_clients; ++i) {
      core::ClientConfig ccfg;
      ccfg.poll_period = util::milliseconds(50);
      clients.push_back(&scenario.add_client("u" + std::to_string(i), server,
                                             ccfg));
    }
    scenario.start();
    workload::wait_for(scenario.net(), [&] { return target.registered(); },
                       util::seconds(10));
    const proto::AppId app_id = target.app_id();

    std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
    for (auto* c : clients) {
      (void)workload::sync_login(scenario.net(), *c, util::seconds(20));
      (void)workload::sync_select(scenario.net(), *c, app_id,
                                  util::seconds(20));
      workload::DriverConfig dcfg;
      dcfg.command_period = util::milliseconds(100);
      dcfg.kind = proto::CommandKind::get_param;
      dcfg.param = "param_0";
      drivers.push_back(std::make_unique<workload::ClientDriver>(
          scenario.net(), *c, app_id, dcfg));
    }
    const std::uint64_t req_before = server.live_requests_served();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& d : drivers) d->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    for (auto& d : drivers) d->stop();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t req_after = server.live_requests_served();
    scenario.net().wait_idle(util::seconds(5));
    scenario.stop();

    // Workers are joined: safe to aggregate per-client histograms.
    for (auto* c : clients) rtt.merge(c->http().round_trip_latency());
    for (auto& d : drivers) acks_ok += d->acks_ok();
    req_rate = static_cast<double>(req_after - req_before) / elapsed_s;
  }

  state.counters["rtt_p50_ms"] = util::to_ms(rtt.percentile(0.5));
  state.counters["rtt_p95_ms"] = util::to_ms(rtt.percentile(0.95));
  state.counters["req_per_s"] = req_rate;
  summary().row({workload::fmt_int(static_cast<std::uint64_t>(n_clients)),
                 workload::fmt_double(req_rate, 0),
                 util::format_duration(rtt.percentile(0.5)),
                 util::format_duration(rtt.percentile(0.95)),
                 util::format_duration(rtt.max()),
                 workload::fmt_int(acks_ok)});
}
BENCHMARK(BM_E2)->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(24)->Arg(32)->Arg(48)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Push fan-out on the threaded backend: N push subscribers behind real
// worker threads, one driver posting chats.  Complements the SimNetwork
// sweep in bench_e7 — here the shared wire payload is handed to N
// concurrent inboxes, so the encode-once fan-out shows up as wall-clock
// delivery throughput.  Counting sinks tally deliveries with atomics, so
// the measurement needs no cross-thread access to server internals.
// ---------------------------------------------------------------------------

bench::Summary& fanout_summary() {
  static bench::Summary s(
      "E2 fan-out: push delivery throughput, ThreadNetwork",
      {"subs", "deliveries_per_s", "delivered", "bytes_rx"});
  return s;
}

constexpr int kFanoutChats = 50;

void BM_E2_PushFanout(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  double per_sec = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes_rx = 0;

  for (auto _ : state) {
    workload::ThreadScenario scenario;
    auto& server = scenario.add_server("portal");

    std::vector<security::AclEntry> acl;
    acl.push_back({"driver", security::Privilege::read_write, 0});
    for (int i = 0; i < subscribers; ++i) {
      acl.push_back({"s" + std::to_string(i),
                     security::Privilege::read_only, 0});
    }
    app::AppConfig cfg;
    cfg.name = "board";
    cfg.acl = acl;
    cfg.step_time = util::milliseconds(50);
    cfg.update_every = 0;  // the driver's chats are the only events
    cfg.interact_every = 0;
    auto& board = scenario.add_app<app::SyntheticApp>(server, cfg,
                                                      app::SyntheticSpec{});

    // Sinks are plain network nodes (no poll loop): added before start(),
    // like every ThreadNetwork node.
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
      sinks.push_back(std::move(sink));
    }
    auto& driver = scenario.add_client("driver", server);

    scenario.start();
    workload::wait_for(scenario.net(), [&] { return board.registered(); },
                       util::seconds(10));
    const proto::AppId app_id = board.app_id();
    for (auto& sink : sinks) {
      (void)workload::sync_login(scenario.net(), sink->portal(),
                                 util::seconds(20));
      (void)workload::sync_select(scenario.net(), sink->portal(), app_id,
                                  util::seconds(20));
      (void)workload::sync_group_op(scenario.net(), sink->portal(), app_id,
                                    proto::GroupOp::enable_push, "",
                                    util::seconds(20));
    }
    (void)workload::sync_login(scenario.net(), driver, util::seconds(20));
    (void)workload::sync_select(scenario.net(), driver, app_id,
                                util::seconds(20));

    const std::string text(256, 'w');
    const auto total_counted = [&] {
      std::uint64_t n = 0;
      for (auto& sink : sinks) n += sink->counted_messages();
      return n;
    };
    for (auto& sink : sinks) sink->set_counting(true);
    const std::uint64_t expect =
        static_cast<std::uint64_t>(subscribers) * kFanoutChats;
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kFanoutChats; ++k) {
      (void)workload::sync_collab_post(scenario.net(), driver, app_id,
                                       proto::EventKind::chat, text,
                                       util::seconds(20));
    }
    workload::wait_for(scenario.net(),
                       [&] { return total_counted() >= expect; },
                       util::seconds(20));
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    delivered = total_counted();
    for (auto& sink : sinks) bytes_rx += sink->counted_bytes();
    if (elapsed_s > 0) {
      per_sec = static_cast<double>(delivered) / elapsed_s;
    }
    scenario.stop();
  }

  state.counters["deliveries_per_sec"] = per_sec;
  state.counters["delivered"] = static_cast<double>(delivered);
  fanout_summary().row(
      {workload::fmt_int(static_cast<std::uint64_t>(subscribers)),
       workload::fmt_double(per_sec, 0),
       workload::fmt_int(delivered), workload::fmt_int(bytes_rx)});
}
BENCHMARK(BM_E2_PushFanout)
    ->ArgNames({"subs"})
    ->Args({8})
    ->Args({64})
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

DISCOVER_BENCH_MAIN(summary().print(); fanout_summary().print())
