// A4 (ablation): server-to-server event propagation with per-peer outboxes
// — peer_flush_delay=0 (legacy: one forward_event ORB call per event per
// subscribed peer) vs batched (coalesced forward_events flushes; the
// in-flight gate lets a WAN round-trip's worth of events pile into the
// next batch).  Expected shape: the batched arm cuts forward-path ORB
// invocations per delivered event by an order of magnitude at a busy
// host, at the cost of up to peer_flush_delay of added delivery latency;
// WAN bytes shrink too (one HTTP/CDR envelope per batch instead of per
// event).  A second run prices the versioned-directory refresh (deltas
// after one full snapshot; the retired full-every-round arm's figures are
// on record in EXPERIMENTS.md A4).
#include "bench_common.h"

#include "app/synthetic.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace {

using namespace discover;

bench::Summary& summary() {
  static bench::Summary s(
      "A4: peer outbox batching, per-event vs coalesced "
      "(host + P peer sites, WAN 20ms, 1 app @ 500 upd/s, 1 watcher/site)",
      {"peers", "mode", "fwd_calls", "events_rx", "calls_per_evt",
       "delivery_p50", "delivery_p95", "wan_msgs", "wan_bytes"});
  return s;
}

bench::Summary& dir_summary() {
  static bench::Summary s(
      "A4b: directory refresh with deltas "
      "(host with 16 apps + 4 peer sites, refresh every 100ms, 5s)",
      {"dir_fulls", "dir_deltas", "dir_bytes", "wan_msgs"});
  return s;
}

struct Result {
  std::uint64_t fwd_calls = 0;
  std::uint64_t events_rx = 0;
  std::uint64_t batches = 0;
  util::Duration p50 = 0;
  util::Duration p95 = 0;
  std::uint64_t wan_msgs = 0;
  std::uint64_t wan_bytes = 0;
};

Result run_propagation(int peers, util::Duration flush_delay) {
  workload::ScenarioConfig cfg;
  cfg.wan = {util::milliseconds(20), 12.5e6};
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  cfg.server_template.peer_flush_delay = flush_delay;
  workload::Scenario scenario(cfg);
  auto& host = scenario.add_server("host", 1);
  std::vector<core::DiscoverServer*> sites;
  for (int p = 0; p < peers; ++p) {
    sites.push_back(&scenario.add_server("site" + std::to_string(p),
                                         2 + static_cast<std::uint32_t>(p)));
  }

  app::AppConfig app_cfg;
  app_cfg.name = "feed";
  app_cfg.acl = workload::make_acl({{"remote",
                                     security::Privilege::read_only}});
  app_cfg.step_time = util::milliseconds(1);
  app_cfg.update_every = 2;  // 500 updates/s: a busy simulation
  app_cfg.interact_every = 0;
  auto& feed = scenario.add_app<app::SyntheticApp>(host, app_cfg,
                                                   app::SyntheticSpec{});
  app::AppConfig id_cfg = app_cfg;
  id_cfg.name = "identity";
  id_cfg.update_every = 0;
  for (auto* site : sites) {
    scenario.add_app<app::SyntheticApp>(*site, id_cfg, app::SyntheticSpec{});
  }
  scenario.run_until([&] {
    if (!feed.registered()) return false;
    for (auto* site : sites) {
      if (site->peer_count() != static_cast<std::size_t>(peers)) return false;
    }
    return host.peer_count() == static_cast<std::size_t>(peers);
  });

  util::LatencyHistogram delivery;
  std::vector<core::DiscoverClient*> watchers;
  for (auto* site : sites) {
    auto& w = scenario.add_client("remote", *site);
    (void)workload::sync_login(scenario.net(), w);
    (void)workload::sync_select(scenario.net(), w, feed.app_id());
    (void)workload::sync_group_op(scenario.net(), w, feed.app_id(),
                                  proto::GroupOp::enable_push, "");
    w.set_event_handler([&](const proto::ClientEvent& ev) {
      if (ev.kind == proto::EventKind::update) {
        delivery.record(scenario.net().now() - ev.at);
      }
    });
    watchers.push_back(&w);
  }

  scenario.net().reset_traffic();
  const core::ServerStats before = host.stats();
  scenario.run_for(util::seconds(5));

  Result out;
  const core::ServerStats after = host.stats();
  out.batches = after.peer_batches_out - before.peer_batches_out;
  // Forward-path ORB calls: one per event per peer in the legacy arm, one
  // per flushed batch in the batched arm.
  out.fwd_calls = flush_delay == 0
                      ? after.peer_events_out - before.peer_events_out
                      : out.batches;
  for (auto* w : watchers) {
    out.events_rx += w->events_of_kind(proto::EventKind::update);
  }
  out.p50 = delivery.percentile(0.5);
  out.p95 = delivery.percentile(0.95);
  out.wan_msgs = scenario.net().traffic().wan_messages;
  out.wan_bytes = scenario.net().traffic().wan_bytes;
  return out;
}

void BM_PeerBatch(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  const auto flush_delay = util::milliseconds(state.range(1));
  Result r{};
  for (auto _ : state) {
    r = run_propagation(peers, flush_delay);
  }
  const double per_evt =
      r.events_rx == 0 ? 0.0
                       : static_cast<double>(r.fwd_calls) /
                             static_cast<double>(r.events_rx);
  state.counters["fwd_calls"] = static_cast<double>(r.fwd_calls);
  state.counters["events_rx"] = static_cast<double>(r.events_rx);
  state.counters["calls_per_evt"] = per_evt;
  state.counters["wan_bytes"] = static_cast<double>(r.wan_bytes);
  state.counters["p50_ms"] = util::to_ms(r.p50);
  char per_evt_s[32];
  std::snprintf(per_evt_s, sizeof(per_evt_s), "%.4f", per_evt);
  summary().row({std::to_string(peers),
                 state.range(1) == 0 ? "per-event" : "batched/5ms",
                 workload::fmt_int(r.fwd_calls), workload::fmt_int(r.events_rx),
                 per_evt_s, util::format_duration(r.p50),
                 util::format_duration(r.p95), workload::fmt_int(r.wan_msgs),
                 util::format_bytes(r.wan_bytes)});
}
BENCHMARK(BM_PeerBatch)
    ->ArgNames({"peers", "flush_ms"})
    ->Args({1, 0})->Args({1, 5})
    ->Args({4, 0})->Args({4, 5})
    ->Args({8, 0})->Args({8, 5})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

struct DirResult {
  std::uint64_t fulls = 0;
  std::uint64_t deltas = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wan_msgs = 0;
};

DirResult run_directory() {
  workload::ScenarioConfig cfg;
  cfg.wan = {util::milliseconds(20), 12.5e6};
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  workload::Scenario scenario(cfg);
  auto& host = scenario.add_server("host", 1);
  std::vector<core::DiscoverServer*> sites;
  for (int p = 0; p < 4; ++p) {
    sites.push_back(&scenario.add_server("site" + std::to_string(p),
                                         2 + static_cast<std::uint32_t>(p)));
  }
  // A directory worth shipping: 16 registered applications, mostly idle so
  // refresh traffic (not event traffic) dominates the WAN.
  std::vector<app::SyntheticApp*> apps;
  for (int a = 0; a < 16; ++a) {
    app::AppConfig app_cfg;
    app_cfg.name = "app" + std::to_string(a);
    app_cfg.step_time = util::milliseconds(50);
    app_cfg.update_every = 0;
    app_cfg.interact_every = 0;
    apps.push_back(&scenario.add_app<app::SyntheticApp>(
        host, app_cfg, app::SyntheticSpec{}));
  }
  scenario.run_until([&] {
    for (auto* a : apps) {
      if (!a->registered()) return false;
    }
    return host.peer_count() == sites.size();
  });

  scenario.net().reset_traffic();
  std::vector<core::ServerStats> before;
  for (auto* site : sites) before.push_back(site->stats());
  scenario.run_for(util::seconds(5));

  DirResult out;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const core::ServerStats s = sites[i]->stats();
    out.fulls += s.dir_fulls_in - before[i].dir_fulls_in;
    out.deltas += s.dir_deltas_in - before[i].dir_deltas_in;
    out.bytes += s.dir_refresh_bytes - before[i].dir_refresh_bytes;
  }
  out.wan_msgs = scenario.net().traffic().wan_messages;
  return out;
}

void BM_DirRefresh(benchmark::State& state) {
  DirResult r{};
  for (auto _ : state) {
    r = run_directory();
  }
  state.counters["dir_bytes"] = static_cast<double>(r.bytes);
  state.counters["dir_fulls"] = static_cast<double>(r.fulls);
  state.counters["dir_deltas"] = static_cast<double>(r.deltas);
  dir_summary().row({workload::fmt_int(r.fulls), workload::fmt_int(r.deltas),
                     util::format_bytes(r.bytes),
                     workload::fmt_int(r.wan_msgs)});
}
BENCHMARK(BM_DirRefresh)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

DISCOVER_BENCH_MAIN(summary().print(); dir_summary().print())
