// Sharded multi-core server core (DESIGN.md §5i):
//  * routing — the app-affinity hashes are pure, stable and in range, and
//    every minted app id routes back to the core that minted it;
//  * sharded counters — concurrent increments from many threads are never
//    lost (the satellite regression test for the shard-safe registry);
//  * Sim clamp — shard_count > 1 on the single-threaded Sim backend is
//    ignored and a fixed-seed scenario stays byte-identical to
//    shard_count = 1;
//  * end-to-end — a shard_count = 4 server on the ThreadNetwork serves
//    login/select/collab/steering/history across cores, the merged
//    /metrics scrape sums per-core registries, and stats_sum() adds up.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/heat2d.h"
#include "app/synthetic.h"
#include "core/server.h"
#include "http/http_message.h"
#include "util/metrics.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"
#include "workload/thread_scenario.h"

namespace discover {
namespace {

using core::DiscoverServer;
using security::Privilege;
using workload::make_acl;

// ---------------------------------------------------------------------------
// Affinity routing properties
// ---------------------------------------------------------------------------

TEST(ShardRouting, NodeAffinityIsStableAndInRange) {
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
    for (std::uint32_t node = 0; node < 4096; ++node) {
      const std::uint32_t shard = DiscoverServer::shard_of_node(node, shards);
      ASSERT_LT(shard, shards);
      // Pure function of (node, shards): the same pair always routes to the
      // same core, so a session's traffic never migrates.
      ASSERT_EQ(shard, DiscoverServer::shard_of_node(node, shards));
    }
    if (shards == 1) continue;
    // The multiplicative hash actually spreads nodes: no shard is empty
    // over the first 4096 node ids.
    std::set<std::uint32_t> seen;
    for (std::uint32_t node = 0; node < 4096; ++node) {
      seen.insert(DiscoverServer::shard_of_node(node, shards));
    }
    EXPECT_EQ(seen.size(), shards);
  }
}

TEST(ShardRouting, MintedAppIdsRouteBackToTheirMintingCore) {
  for (const std::uint32_t shards : {2u, 3u, 4u, 8u}) {
    std::uint32_t bits = 0;
    while ((1u << bits) < shards) ++bits;
    for (std::uint32_t core = 0; core < shards; ++core) {
      for (std::uint64_t counter = 1; counter <= 256; ++counter) {
        proto::AppId id;
        id.host = 1;
        id.local = (counter << bits) | core;
        ASSERT_EQ(DiscoverServer::shard_of_app(id, bits, shards), core)
            << "shards=" << shards << " core=" << core
            << " counter=" << counter;
      }
    }
  }
  // bits = 0 is the unsharded minting format: everything owned by core 0.
  proto::AppId legacy;
  legacy.host = 1;
  legacy.local = 12345;
  EXPECT_EQ(DiscoverServer::shard_of_app(legacy, 0, 4), 0u);
}

TEST(ShardRouting, AppAndSessionPairsRouteStably) {
  // The pair (app owner, client shard) that a request touches is a pure
  // function of the app id and the client node — re-deriving it any number
  // of times gives the same hop.
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kBits = 2;
  for (std::uint32_t client_node = 0; client_node < 512; ++client_node) {
    for (std::uint64_t local = 1; local < 64; ++local) {
      proto::AppId id;
      id.host = 7;
      id.local = local;
      const auto owner = DiscoverServer::shard_of_app(id, kBits, kShards);
      const auto client =
          DiscoverServer::shard_of_node(client_node, kShards);
      for (int rep = 0; rep < 3; ++rep) {
        ASSERT_EQ(DiscoverServer::shard_of_app(id, kBits, kShards), owner);
        ASSERT_EQ(DiscoverServer::shard_of_node(client_node, kShards),
                  client);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-safe counters (satellite: concurrent increments are never lost)
// ---------------------------------------------------------------------------

TEST(ShardedCounter, ConcurrentIncrementsAreNeverLost) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  util::ShardedCounter counter(4);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Half the increments land on the thread's own slot, half pile onto
        // slot 0 — exactness must hold even with slot contention.
        counter.inc(t % 4);
        counter.inc(0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread * 2);
}

TEST(ShardedCounter, RegistryScrapeSeesTheExactSum) {
  util::MetricsRegistry reg;
  util::ShardedCounter& c = reg.sharded_counter("routed", 4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < 10000; ++i) c.inc(t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter_value("routed"), 40000u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.count("routed"), 1u);
  EXPECT_EQ(snap.counters.at("routed"), 40000u);
}

TEST(ShardedCounter, MergeSumsPerCoreSnapshots) {
  util::MetricsRegistry a;
  util::MetricsRegistry b;
  a.counter("hits") = 3;
  b.counter("hits") = 4;
  b.counter("only_b") = 1;
  const auto merged =
      util::MetricsRegistry::merge({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.counters.at("hits"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  // The merged exposition renders through the same golden-stable path.
  EXPECT_NE(util::MetricsRegistry::render_prometheus(merged).find(
                "# TYPE hits counter\nhits 7\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Sim clamp: shard_count is ignored on the deterministic backend
// ---------------------------------------------------------------------------

std::string sim_fingerprint(std::uint32_t shard_count) {
  workload::ScenarioConfig cfg;
  cfg.server_template.shard_count = shard_count;
  workload::Scenario scenario(cfg);
  auto& server = scenario.add_server("sim", 1);

  app::AppConfig app_cfg;
  app_cfg.name = "clamped";
  app_cfg.acl = make_acl({{"alice", Privilege::steer}});
  app_cfg.step_time = util::milliseconds(1);
  app_cfg.update_every = 4;
  app_cfg.interact_every = 8;
  app_cfg.interaction_window = util::milliseconds(1);
  auto& app = scenario.add_app<app::SyntheticApp>(server, app_cfg,
                                                  app::SyntheticSpec{});
  scenario.run_until([&] { return app.registered(); });

  auto& alice = scenario.add_client("alice", server);
  (void)workload::sync_onboard_steerer(scenario.net(), alice, app.app_id());
  (void)workload::sync_command(scenario.net(), alice, app.app_id(),
                               proto::CommandKind::set_param, "p0",
                               proto::ParamValue{1.5});
  (void)workload::sync_collab_post(scenario.net(), alice, app.app_id(),
                                   proto::EventKind::chat, "hi");
  scenario.run_for(util::milliseconds(300));
  (void)workload::sync_poll(scenario.net(), alice, app.app_id());

  std::ostringstream fp;
  fp << "app=" << app.app_id().to_string() << ";";
  for (const auto& ev : alice.received_events()) {
    fp << ev.seq << "/" << static_cast<int>(ev.kind) << "/" << ev.at << ",";
  }
  const auto& st = server.stats();
  fp << ";" << st.updates_processed << "|" << st.events_delivered << "|"
     << st.commands_accepted << "|" << st.collab_posts << "|"
     << st.polls_served;
  const auto traffic = scenario.net().traffic();
  fp << ";" << traffic.messages << "/" << traffic.bytes;
  fp << "@" << scenario.net().now();
  return fp.str();
}

TEST(ShardSimClamp, FixedSeedScenarioIsByteIdenticalAtAnyShardCount) {
  const std::string base = sim_fingerprint(1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, sim_fingerprint(4));
  EXPECT_EQ(base, sim_fingerprint(8));
}

// ---------------------------------------------------------------------------
// End-to-end on the ThreadNetwork at shard_count = 4
// ---------------------------------------------------------------------------

// Bare node that fires one HTTP request and keeps the parsed response.
class RawScrapeClient : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    auto parsed = http::parse_response(msg.payload);
    if (!parsed.ok()) return;
    body = std::string(parsed.value().body.begin(),
                       parsed.value().body.end());
    last_status = parsed.value().status;
  }
  std::atomic<int> last_status{0};
  std::string body;
};

TEST(ShardedThreadServer, EndToEndAcrossCores) {
  constexpr std::uint32_t kShards = 4;
  constexpr int kApps = 6;
  core::ServerConfig tmpl;
  tmpl.shard_count = kShards;
  workload::ThreadScenario scenario(tmpl);
  auto& server = scenario.add_server("sharded");

  std::vector<app::Heat2DApp*> apps;
  for (int i = 0; i < kApps; ++i) {
    app::AppConfig cfg;
    cfg.name = "app" + std::to_string(i);
    cfg.acl = make_acl({{"alice", Privilege::steer},
                        {"carol", Privilege::read_only}});
    cfg.step_time = util::milliseconds(1);
    cfg.update_every = 5;
    cfg.interact_every = 10;
    cfg.interaction_window = util::milliseconds(1);
    apps.push_back(&scenario.add_app<app::Heat2DApp>(server, cfg, 12));
  }
  core::ClientConfig ccfg;
  ccfg.poll_period = util::milliseconds(10);
  auto& alice = scenario.add_client("alice", server, ccfg);
  auto& carol = scenario.add_client("carol", server, ccfg);

  RawScrapeClient metrics_raw;
  const net::NodeId metrics_node =
      scenario.net().add_node("raw:metrics", &metrics_raw);
  RawScrapeClient trace_raw;
  const net::NodeId trace_node =
      scenario.net().add_node("raw:trace", &trace_raw);

  scenario.start();
  ASSERT_TRUE(server.sharded());
  ASSERT_EQ(server.shard_count(), kShards);
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        for (const auto* a : apps) {
          if (!a->registered()) return false;
        }
        return true;
      },
      util::seconds(30)));

  // Login gathers ACLs and the app directory from every core.
  auto login = workload::sync_login(scenario.net(), alice);
  ASSERT_TRUE(login.ok()) << login.error().message;
  ASSERT_TRUE(login.value().ok);
  ASSERT_EQ(login.value().applications.size(),
            static_cast<std::size_t>(kApps));

  // Selects and collab posts hit local and cross-shard owners alike.
  for (const auto& info : login.value().applications) {
    auto sel = workload::sync_select(scenario.net(), alice, info.id);
    ASSERT_TRUE(sel.ok()) << sel.error().message;
    ASSERT_TRUE(sel.value().ok) << sel.value().message;
    EXPECT_EQ(sel.value().privilege, Privilege::steer);
    auto post = workload::sync_collab_post(scenario.net(), alice, info.id,
                                           proto::EventKind::chat, "hello");
    ASSERT_TRUE(post.ok());
    EXPECT_TRUE(post.value().ok) << post.value().message;
  }

  // Full steering flow against one app: lock acquire, command, effect.
  app::Heat2DApp& steered = *apps[0];
  ASSERT_TRUE(workload::sync_onboard_steerer(scenario.net(), alice,
                                             steered.app_id()));
  auto ack = workload::sync_command(scenario.net(), alice, steered.app_id(),
                                    proto::CommandKind::set_param, "alpha",
                                    proto::ParamValue{0.21});
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value().accepted) << ack.value().message;
  // Read alpha on the app's own worker (actor model): the command is
  // applied there, so a cross-thread read of the raw member would race.
  const auto read_alpha = [&] {
    std::promise<double> p;
    scenario.net().post(steered.node(),
                        [&] { p.set_value(steered.alpha()); });
    return p.get_future().get();
  };
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] { return std::abs(read_alpha() - 0.21) < 1e-12; },
      util::seconds(30)));

  // History reads reach the owner core's archive.
  auto hist = workload::sync_history(scenario.net(), alice,
                                     steered.app_id(), 0, 0);
  ASSERT_TRUE(hist.ok());
  EXPECT_TRUE(hist.value().ok) << hist.value().message;

  // Updates flow into the client-core FIFOs via the cross-shard fan-out.
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        (void)workload::sync_poll(scenario.net(), alice, steered.app_id(),
                                  util::seconds(5));
        return alice.events_of_kind(proto::EventKind::update) > 0;
      },
      util::seconds(30)));

  // A view-only user authenticates through the gather and keeps view-level
  // access on whichever core owns the app.
  auto carol_login = workload::sync_login(scenario.net(), carol);
  ASSERT_TRUE(carol_login.ok());
  ASSERT_TRUE(carol_login.value().ok);
  auto carol_sel =
      workload::sync_select(scenario.net(), carol, steered.app_id());
  ASSERT_TRUE(carol_sel.ok());
  ASSERT_TRUE(carol_sel.value().ok);
  EXPECT_EQ(carol_sel.value().privilege, Privilege::read_only);

  // Merged /metrics scrape: per-core registries summed into one exposition.
  http::HttpRequest scrape;
  scrape.method = http::Method::get;
  scrape.path = core::kPathMetrics;
  scenario.net().send(metrics_node, server.node(), net::Channel::http,
                      http::serialize(scrape));
  ASSERT_TRUE(workload::wait_for(
      scenario.net(), [&] { return metrics_raw.last_status.load() != 0; },
      util::seconds(10)));
  EXPECT_EQ(metrics_raw.last_status.load(), 200);
  // Three logins so far: alice's explicit one, the one inside
  // sync_onboard_steerer, and carol's.
  EXPECT_NE(metrics_raw.body.find("# TYPE logins_ok counter\nlogins_ok 3\n"),
            std::string::npos)
      << metrics_raw.body;
  EXPECT_NE(metrics_raw.body.find("# TYPE apps gauge\napps 6\n"),
            std::string::npos);
  // The dispatcher's routed counter lives in core 0's registry.
  EXPECT_NE(metrics_raw.body.find("shard_routed_total"), std::string::npos);

  // Concatenated /trace scrape across the per-core span rings.
  http::HttpRequest tscrape;
  tscrape.method = http::Method::get;
  tscrape.path = core::kPathTrace;
  scenario.net().send(trace_node, server.node(), net::Channel::http,
                      http::serialize(tscrape));
  ASSERT_TRUE(workload::wait_for(
      scenario.net(), [&] { return trace_raw.last_status.load() != 0; },
      util::seconds(10)));
  EXPECT_EQ(trace_raw.last_status.load(), 200);

  scenario.stop();

  // After the drain, per-core stats are join-ordered and must add up.
  const core::ServerStats sum = server.stats_sum();
  EXPECT_EQ(sum.apps_registered, static_cast<std::uint64_t>(kApps));
  EXPECT_EQ(sum.logins_ok, 3u);  // alice, alice-via-onboard, carol
  EXPECT_EQ(sum.selects_ok, static_cast<std::uint64_t>(kApps) + 2);
  EXPECT_EQ(sum.collab_posts, static_cast<std::uint64_t>(kApps));
  EXPECT_GE(sum.commands_accepted, 2u);  // acquire_lock + set_param
  EXPECT_GT(sum.updates_processed, 0u);

  // Apps really live on the core their node hashes to.
  std::map<std::uint32_t, std::uint64_t> expected;
  for (const auto* a : apps) {
    ++expected[DiscoverServer::shard_of_node(a->node().value(), kShards)];
  }
  for (std::uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(server.shard_core(i).stats().apps_registered, expected[i])
        << "core " << i;
  }
}

TEST(ShardedThreadServer, ShardCountOneIsTheLegacyPath) {
  core::ServerConfig tmpl;
  tmpl.shard_count = 1;
  workload::ThreadScenario scenario(tmpl);
  auto& server = scenario.add_server("plain");
  scenario.start();
  EXPECT_FALSE(server.sharded());
  EXPECT_EQ(server.shard_count(), 1u);
  scenario.stop();
}

}  // namespace
}  // namespace discover
