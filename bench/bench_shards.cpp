// Shard sweep: one DiscoverServer on the ThreadNetwork with the servlet
// core striped across shard_count worker shards (DESIGN.md §5i).  A fixed
// closed-loop client population (64 portal users polling and issuing read
// commands) saturates the calibrated 1500us servlet burn (a CPU spin), so
// the served request rate tracks how many cores the burn actually
// parallelises over: shard_count = 1 pins everything on one worker
// (~1/burn req/s), higher counts scale until the host's cores or the
// client population itself become the limit.
// scripts/bench_shards.sh runs the sweep and records BENCH_shards.json;
// the acceptance line is >= 2x events/sec at shard_count = 4 vs 1.
#include "bench_common.h"

#include <chrono>
#include <thread>

#include "app/synthetic.h"
#include "workload/drivers.h"
#include "workload/sync_ops.h"
#include "workload/thread_scenario.h"

namespace {

using namespace discover;

constexpr int kClients = 64;
constexpr int kApps = 4;

bench::Summary& summary() {
  static bench::Summary s(
      "Shard sweep: closed-loop portal load vs shard_count (ThreadNetwork, "
      "1500us servlet burn; 64 clients over 4 apps)",
      {"shards", "req_per_s", "rtt_p50", "rtt_p95", "rtt_max", "acks_ok",
       "routed"});
  return s;
}

void BM_Shards(benchmark::State& state) {
  const auto shard_count = static_cast<std::uint32_t>(state.range(0));
  util::LatencyHistogram rtt;
  std::uint64_t acks_ok = 0;
  std::uint64_t routed = 0;
  double req_rate = 0;

  for (auto _ : state) {
    core::ServerConfig server_cfg;
    // Same calibrated 2001-era servlet cost as the E2 knee experiment, so
    // the two benches share a baseline (ServerConfig::servlet_cpu_cost).
    // The burn spins, so the sweep scales only as far as the host has
    // cores to run the shard workers on.
    server_cfg.servlet_cpu_cost = util::microseconds(1500);
    server_cfg.shard_count = shard_count;
    workload::ThreadScenario scenario(server_cfg);
    auto& server = scenario.add_server("portal");

    std::vector<security::AclEntry> acl;
    for (int i = 0; i < kClients; ++i) {
      acl.push_back({"u" + std::to_string(i),
                     security::Privilege::read_only, 0});
    }
    // Several app endpoints so no single app node serialises the command
    // acks; the servlet burn itself runs on the server's shard workers.
    std::vector<app::SyntheticApp*> apps;
    for (int a = 0; a < kApps; ++a) {
      app::AppConfig cfg;
      cfg.name = "target" + std::to_string(a);
      cfg.acl = acl;
      cfg.step_time = util::milliseconds(10);
      cfg.update_every = 0;  // client-driven load only
      cfg.interact_every = 4;
      cfg.interaction_window = util::milliseconds(2);
      apps.push_back(&scenario.add_app<app::SyntheticApp>(
          server, cfg, app::SyntheticSpec{4, 8, 50}));
    }

    std::vector<core::DiscoverClient*> clients;
    for (int i = 0; i < kClients; ++i) {
      core::ClientConfig ccfg;
      ccfg.poll_period = util::milliseconds(50);
      clients.push_back(&scenario.add_client("u" + std::to_string(i), server,
                                             ccfg));
    }
    scenario.start();
    for (auto* a : apps) {
      workload::wait_for(scenario.net(), [&] { return a->registered(); },
                         util::seconds(10));
    }

    std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
    for (int i = 0; i < kClients; ++i) {
      core::DiscoverClient* c = clients[static_cast<std::size_t>(i)];
      const proto::AppId app_id =
          apps[static_cast<std::size_t>(i % kApps)]->app_id();
      (void)workload::sync_login(scenario.net(), *c, util::seconds(20));
      (void)workload::sync_select(scenario.net(), *c, app_id,
                                  util::seconds(20));
      workload::DriverConfig dcfg;
      dcfg.command_period = util::milliseconds(25);
      dcfg.kind = proto::CommandKind::get_param;
      dcfg.param = "param_0";
      drivers.push_back(std::make_unique<workload::ClientDriver>(
          scenario.net(), *c, app_id, dcfg));
    }
    const std::uint64_t req_before = server.live_requests_served();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& d : drivers) d->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    for (auto& d : drivers) d->stop();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t req_after = server.live_requests_served();
    scenario.net().wait_idle(util::seconds(5));
    scenario.stop();

    // Workers joined: per-client histograms and server internals are safe.
    for (auto* c : clients) rtt.merge(c->http().round_trip_latency());
    for (auto& d : drivers) acks_ok += d->acks_ok();
    routed = server.metrics().counter_value("shard_routed_total");
    req_rate = static_cast<double>(req_after - req_before) / elapsed_s;
  }

  state.counters["events_per_sec"] = req_rate;
  state.counters["rtt_p50_ms"] = util::to_ms(rtt.percentile(0.5));
  state.counters["rtt_p95_ms"] = util::to_ms(rtt.percentile(0.95));
  state.counters["acks_ok"] = static_cast<double>(acks_ok);
  summary().row({workload::fmt_int(shard_count),
                 workload::fmt_double(req_rate, 0),
                 util::format_duration(rtt.percentile(0.5)),
                 util::format_duration(rtt.percentile(0.95)),
                 util::format_duration(rtt.max()),
                 workload::fmt_int(acks_ok), workload::fmt_int(routed)});
}
BENCHMARK(BM_Shards)
    ->ArgNames({"shards"})
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

DISCOVER_BENCH_MAIN(summary().print())
