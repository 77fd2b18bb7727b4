// Federation sweep: a sharded origin server pushes batched events to an
// unsharded subscribing peer (DESIGN.md §5j).  Apps at the origin publish a
// steady collab stream; the subscriber watches every app through the
// cross-server push path, and each inbound event burns a calibrated
// per-event application cost on its owning core at the receiver
// (ServerConfig::app_event_cpu_cost, a CPU spin, so the sweep scales only
// as far as the host has cores).  With shard_count = 1 every peer event
// funnels through one worker (~1/burn events/s); higher counts spread the
// ingest across owning cores.  scripts/bench_federation.sh runs the sweep and records
// BENCH_federation.json; the acceptance line is >= 2x cross-server
// events/sec at shard_count = 4 vs 1.
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "app/synthetic.h"
#include "workload/sync_ops.h"
#include "workload/thread_scenario.h"

namespace {

using namespace discover;

constexpr int kApps = 8;
constexpr auto kPostPeriod = std::chrono::milliseconds(2);
constexpr auto kMeasureWindow = std::chrono::milliseconds(2000);

bench::Summary& summary() {
  static bench::Summary s(
      "Federation sweep: cross-server push ingest vs receiver shard_count "
      "(ThreadNetwork, 8 origin apps, 1200us per-event burn at the "
      "receiver)",
      {"shards", "events_per_s", "peer_events_in", "batches_out"});
  return s;
}

void BM_Federation(benchmark::State& state) {
  const auto shard_count = static_cast<std::uint32_t>(state.range(0));
  double event_rate = 0;
  std::uint64_t peer_events = 0;
  std::uint64_t batches_in = 0;

  for (auto _ : state) {
    // Only the SUBSCRIBER shards: the sweep prices how inbound peer
    // traffic spreads over owning cores, so the origin stays fixed.
    core::ServerConfig sub_cfg;
    sub_cfg.shard_count = shard_count;
    sub_cfg.app_event_cpu_cost = util::microseconds(1200);
    sub_cfg.peer_refresh_period = util::milliseconds(100);
    workload::ThreadScenario scenario(sub_cfg);
    auto& sub = scenario.add_server("sub", 1);
    // The origin side runs with the same template (it shards too); its
    // cost knob only fires on inbound peer events, of which it has none.
    auto& origin = scenario.add_server("origin", 2);

    std::vector<security::AclEntry> acl;
    acl.push_back({"watcher", security::Privilege::read_only, 0});
    for (int a = 0; a < kApps; ++a) {
      acl.push_back({"p" + std::to_string(a), security::Privilege::steer, 0});
    }
    std::vector<app::SyntheticApp*> apps;
    for (int a = 0; a < kApps; ++a) {
      app::AppConfig cfg;
      cfg.name = "origin" + std::to_string(a);
      cfg.acl = acl;
      cfg.step_time = util::milliseconds(10);
      cfg.update_every = 0;  // poster-driven load only
      cfg.interact_every = 0;
      apps.push_back(&scenario.add_app<app::SyntheticApp>(
          origin, cfg, app::SyntheticSpec{}));
    }
    // Anchor app so the watcher can authenticate at `sub`.
    app::AppConfig anchor;
    anchor.name = "anchor";
    anchor.acl = acl;
    anchor.step_time = util::milliseconds(10);
    anchor.update_every = 0;
    anchor.interact_every = 0;
    scenario.add_app<app::SyntheticApp>(sub, anchor, app::SyntheticSpec{});

    auto& watcher = scenario.add_client("watcher", sub);
    std::vector<core::DiscoverClient*> posters;
    for (int a = 0; a < kApps; ++a) {
      posters.push_back(
          &scenario.add_client("p" + std::to_string(a), origin));
    }
    scenario.start();
    for (auto* a : apps) {
      workload::wait_for(scenario.net(), [&] { return a->registered(); },
                         util::seconds(10));
    }
    workload::wait_for(
        scenario.net(),
        [&] { return sub.peer_count() == 1 && origin.peer_count() == 1; },
        util::seconds(20));

    // Watcher subscribes to every origin app over the peer link, push on.
    workload::wait_for(
        scenario.net(),
        [&] {
          auto l = workload::sync_login(scenario.net(), watcher,
                                        util::seconds(20));
          if (!l.ok() || !l.value().ok) return false;
          auto sel = workload::sync_select(scenario.net(), watcher,
                                           apps[0]->app_id(),
                                           util::seconds(20));
          return sel.ok() && sel.value().ok;
        },
        util::seconds(30));
    for (auto* a : apps) {
      (void)workload::sync_select(scenario.net(), watcher, a->app_id(),
                                  util::seconds(20));
      (void)workload::sync_group_op(scenario.net(), watcher, a->app_id(),
                                    proto::GroupOp::enable_push, "",
                                    util::seconds(20));
    }
    for (int a = 0; a < kApps; ++a) {
      (void)workload::sync_login(scenario.net(), *posters[a],
                                 util::seconds(20));
      (void)workload::sync_select(scenario.net(), *posters[a],
                                  apps[a]->app_id(), util::seconds(20));
    }

    // Open-loop posters: one thread per app fires chats at a rate well
    // above what a single receiving core can burn through, so the
    // subscriber's ingest is the bottleneck being priced.
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int a = 0; a < kApps; ++a) {
      core::DiscoverClient* c = posters[static_cast<std::size_t>(a)];
      const proto::AppId id = apps[static_cast<std::size_t>(a)]->app_id();
      threads.emplace_back([&scenario, &stop, c, id] {
        int i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          (void)workload::sync_collab_post(scenario.net(), *c, id,
                                           proto::EventKind::chat,
                                           "m" + std::to_string(i++),
                                           util::seconds(5));
          std::this_thread::sleep_for(kPostPeriod);
        }
      });
    }

    // Let the pipeline fill, then measure the subscriber's ingest rate.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::uint64_t before = sub.live_peer_events_in();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(kMeasureWindow);
    const std::uint64_t after = sub.live_peer_events_in();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true);
    for (auto& t : threads) t.join();
    scenario.stop();

    event_rate = static_cast<double>(after - before) / elapsed_s;
    peer_events = after - before;
    batches_in = origin.stats_sum().peer_batches_out;
  }

  state.counters["events_per_sec"] = event_rate;
  state.counters["peer_events_in"] = static_cast<double>(peer_events);
  summary().row({workload::fmt_int(shard_count),
                 workload::fmt_double(event_rate, 0),
                 workload::fmt_int(peer_events),
                 workload::fmt_int(batches_in)});
}
BENCHMARK(BM_Federation)
    ->ArgNames({"shards"})
    ->Arg(1)->Arg(2)->Arg(4)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

DISCOVER_BENCH_MAIN(summary().print())
