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
//    /metrics scrape sums per-core registries, and stats_sum() adds up;
//  * equivalence — one scripted session set gets the same HTTP statuses,
//    decoded replies and merged counters at 1 core and at 4: cross-core
//    admission, a lock released by its holder's logout, visualization and
//    history of another core's app, high-water marks merged by max, and
//    every servlet's refusal of a bad token, a missing login session and
//    an unselected app.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
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

TEST(ShardedCounter, MergeKeepsHighWaterMarksAtTheirMax) {
  util::MetricsRegistry a;
  util::MetricsRegistry b;
  const std::uint64_t peak_a = 7;
  const std::uint64_t peak_b = 5;
  a.register_peak("peak", &peak_a);
  b.register_peak("peak", &peak_b);
  a.counter("hits") = 3;
  b.counter("hits") = 4;
  const auto merged =
      util::MetricsRegistry::merge({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.counters.at("peak"), 7u);
  EXPECT_EQ(merged.counters.at("hits"), 7u);
  // Same exposition as any counter: name, TYPE line and order unchanged.
  EXPECT_EQ(util::MetricsRegistry::render_prometheus(merged),
            "# TYPE hits counter\nhits 7\n# TYPE peak counter\npeak 7\n");
  EXPECT_EQ(util::MetricsRegistry::render_prometheus(
                util::MetricsRegistry::merge({a.snapshot()})),
            a.prometheus_text());
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

TEST(ShardedThreadServer, ShardCountOneIsAGroupOfOne) {
  core::ServerConfig tmpl;
  tmpl.shard_count = 1;
  workload::ThreadScenario scenario(tmpl);
  auto& server = scenario.add_server("plain");
  scenario.start();
  EXPECT_FALSE(server.sharded());
  EXPECT_EQ(server.shard_count(), 1u);
  scenario.stop();
}

// ---------------------------------------------------------------------------
// Shard-count equivalence: one scripted session set at 1 core and at 4
// ---------------------------------------------------------------------------

constexpr std::uint32_t kEquivShards = 4;
constexpr int kEquivApps = 6;
constexpr int kEquivBrowsers = 10;
constexpr int kUpdatesPerApp = 3;

// A browser-style portal node driven from the test thread: one HTTP request
// at a time, raw status and body back, session cookie replayed.  Its own
// node id decides which core serves it, like any client's.
class Browser : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    auto parsed = http::parse_response(msg.payload);
    if (!parsed.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    replies_.push_back(std::move(parsed.value()));
    cv_.notify_all();
  }

  http::HttpResponse call(net::Network& net, net::NodeId server,
                          http::Method method, const std::string& path,
                          util::Bytes body = {}) {
    http::HttpRequest req;
    req.method = method;
    req.path = path;
    req.body = std::move(body);
    if (!cookie_.empty()) req.headers.set("Cookie", cookie_);
    net.send(node, server, net::Channel::http, http::serialize(req));
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30),
                      [this] { return !replies_.empty(); })) {
      ADD_FAILURE() << "no reply to " << path;
      return http::HttpResponse{0, "", {}, {}};
    }
    http::HttpResponse resp = std::move(replies_.front());
    replies_.pop_front();
    if (const auto c = resp.headers.get("Set-Cookie")) cookie_ = *c;
    return resp;
  }

  net::NodeId node{0};
  security::SessionToken token;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<http::HttpResponse> replies_;
  std::string cookie_;
};

// App ids mint differently per shard count (the owning core is encoded in
// the low bits), so transcripts name apps instead.
struct AppNames {
  std::map<proto::AppId, std::string> by_id;

  [[nodiscard]] std::string of(const proto::AppId& id) const {
    const auto it = by_id.find(id);
    return it != by_id.end() ? it->second : "?" + id.to_string();
  }
  [[nodiscard]] std::string text(std::string s) const {
    std::vector<std::pair<std::string, std::string>> subs;
    for (const auto& [id, name] : by_id) subs.emplace_back(id.to_string(), name);
    std::sort(subs.begin(), subs.end(), [](const auto& a, const auto& b) {
      return a.first.size() > b.first.size();
    });
    for (const auto& [from, to] : subs) {
      for (std::size_t at = s.find(from); at != std::string::npos;
           at = s.find(from, at + to.size())) {
        s.replace(at, from.size(), to);
      }
    }
    return s;
  }
  [[nodiscard]] std::string event(const proto::ClientEvent& ev) const {
    std::ostringstream o;
    o << "{kind=" << static_cast<int>(ev.kind) << " seq=" << ev.seq
      << " app=" << of(ev.app) << " user=" << ev.user
      << " text=" << text(ev.text) << " rid=" << ev.request_id
      << " param=" << ev.param
      << " value=" << proto::param_value_to_string(ev.value)
      << " it=" << ev.iteration << " sg=" << ev.subgroup
      << " shared=" << ev.shared << " metrics=";
    for (const auto& [k, v] : ev.metrics) o << k << ":" << v << ",";
    o << "}";
    return o.str();
  }
};

// Runs one portal script against one fresh server and records every reply
// as "<step> <status> <decoded, name-normalised reply>".
class EquivRun {
 public:
  EquivRun(std::uint32_t shard_count, std::size_t max_sessions_per_app)
      : scenario_(config(shard_count, max_sessions_per_app)),
        server_(scenario_.add_server("equiv")) {
    for (int i = 0; i < kEquivApps; ++i) {
      app::AppConfig cfg;
      cfg.name = "app" + std::to_string(i);
      cfg.acl = make_acl({{"alice", Privilege::steer},
                          {"bob", Privilege::steer},
                          {"carol", Privilege::steer},
                          {"dave", Privilege::steer},
                          {"erin", Privilege::read_only}});
      cfg.step_time = util::milliseconds(1);
      // Three updates, then the interaction phase for the rest of the run:
      // the app log is fixed before the script starts and commands are
      // forwarded, never buffered.
      cfg.update_every = 2;
      cfg.interact_every = 2 * kUpdatesPerApp;
      cfg.interaction_window = util::seconds(3600);
      apps_.push_back(&scenario_.add_app<app::SyntheticApp>(
          server_, cfg, app::SyntheticSpec{}));
    }
    for (int i = 0; i < kEquivBrowsers; ++i) {
      auto browser = std::make_unique<Browser>();
      browser->node = scenario_.net().add_node("browser" + std::to_string(i),
                                               browser.get());
      browsers_.push_back(std::move(browser));
    }
    scenario_.start();
  }

  ~EquivRun() { scenario_.stop(); }

  /// Waits until every app has sent its updates and parked in the
  /// interaction phase, then learns the app names.  The observer logins
  /// this takes are timing-dependent; `observer_logins` counts them so the
  /// counter comparison can discount them.
  bool settle() {
    const auto updates = static_cast<std::uint64_t>(kEquivApps) *
                         kUpdatesPerApp;
    if (!workload::wait_for(
            scenario_.net(),
            [&] { return server_.live_updates_processed() == updates; },
            util::seconds(30))) {
      return false;
    }
    Browser& observer = *browsers_.back();
    return workload::wait_for(
        scenario_.net(),
        [&] {
          ++observer_logins;
          const auto reply = login(observer, "alice");
          if (reply.applications.size() !=
              static_cast<std::size_t>(kEquivApps)) {
            return false;
          }
          for (const auto& info : reply.applications) {
            if (info.phase != proto::AppPhase::interacting) return false;
            names.by_id[info.id] = info.name;
          }
          return true;
        },
        util::seconds(30));
  }

  /// Owning core of app `i` (by the 4-core hash, in both runs).
  [[nodiscard]] std::uint32_t app_core(int i) const {
    return DiscoverServer::shard_of_node(apps_[i]->node().value(),
                                         kEquivShards);
  }
  [[nodiscard]] std::uint32_t browser_core(int i) const {
    return DiscoverServer::shard_of_node(browsers_[i]->node.value(),
                                         kEquivShards);
  }
  [[nodiscard]] proto::AppId app_id(int i) const {
    return apps_[i]->app_id();
  }
  Browser& browser(int i) { return *browsers_[i]; }
  DiscoverServer& server() { return server_; }
  workload::ThreadScenario& scenario() { return scenario_; }

  proto::LoginReply login(Browser& b, const std::string& user,
                          const std::string& step = "") {
    proto::LoginRequest req;
    req.user = user;
    const auto resp = post(b, core::kPathLogin, proto::encode_body(req));
    proto::LoginReply reply = proto::decode_login_reply(resp.body);
    b.token = reply.token;
    if (!step.empty()) {
      // The directory comes in app-id order, which differs by core count.
      auto apps = reply.applications;
      std::sort(apps.begin(), apps.end(),
                [](const proto::AppInfo& x, const proto::AppInfo& y) {
                  return x.name < y.name;
                });
      std::ostringstream o;
      o << "ok=" << reply.ok << " msg=" << reply.message
        << " adm=" << static_cast<int>(reply.admission) << " apps=";
      for (const auto& info : apps) {
        o << info.name << "/" << static_cast<int>(info.privilege) << "/"
          << static_cast<int>(info.phase) << "/" << info.update_seq << "/"
          << info.lock_holder << "/" << info.lock_queue << ",";
      }
      record(step, resp, o.str());
    }
    return reply;
  }

  void select(Browser& b, const proto::AppId& app, const std::string& step) {
    proto::SelectAppRequest req;
    req.token = b.token;
    req.app_id = app;
    const auto resp = post(b, core::kPathSelect, proto::encode_body(req));
    const auto reply = proto::decode_select_app_reply(resp.body);
    std::ostringstream o;
    o << "ok=" << reply.ok << " msg=" << names.text(reply.message)
      << " priv=" << static_cast<int>(reply.privilege)
      << " hist=" << reply.history_seq
      << " adm=" << static_cast<int>(reply.admission)
      << " retry=" << reply.retry_after
      << " retry_hdr=" << resp.headers.get("Retry-After").value_or("")
      << " spec=";
    for (const auto& p : reply.interface_spec) {
      o << p.name << "=" << proto::param_value_to_string(p.value) << ",";
    }
    record(step, resp, o.str());
  }

  void command(Browser& b, const proto::AppId& app, proto::CommandKind kind,
               const std::string& param, const proto::ParamValue& value,
               const std::string& step) {
    proto::CommandRequest req;
    req.token = b.token;
    req.app_id = app;
    req.request_id = ++next_rid_;
    req.kind = kind;
    req.param = param;
    req.value = value;
    const auto resp = post(b, core::kPathCommand, proto::encode_body(req));
    const auto ack = proto::decode_command_ack(resp.body);
    std::ostringstream o;
    o << "accepted=" << ack.accepted << " msg=" << names.text(ack.message)
      << " rid=" << ack.request_id;
    record(step, resp, o.str());
  }

  void post_chat(Browser& b, const proto::AppId& app, const std::string& text,
                 const std::string& step) {
    proto::CollabPost req;
    req.token = b.token;
    req.app_id = app;
    req.kind = proto::EventKind::chat;
    req.text = text;
    const auto resp = post(b, core::kPathCollabPost, proto::encode_body(req));
    const auto ack = proto::decode_collab_ack(resp.body);
    record(step, resp,
           "ok=" + std::to_string(ack.ok) + " msg=" + names.text(ack.message));
  }

  /// Polls until `until` holds for the events drained so far (or polls
  /// once when `until` is empty).  How many polls that takes depends on
  /// timing, so only the concatenated events are recorded.
  void poll(Browser& b, const proto::AppId& app, const std::string& step,
            const std::function<bool(const std::vector<proto::ClientEvent>&)>&
                until = {}) {
    std::vector<proto::ClientEvent> events;
    int last_status = 0;
    std::string last_msg;
    const bool done = workload::wait_for(
        scenario_.net(),
        [&] {
          proto::PollRequest req;
          req.token = b.token;
          req.app_id = app;
          const auto resp = post(b, core::kPathPoll, proto::encode_body(req));
          const auto reply = proto::decode_poll_reply(resp.body);
          last_status = resp.status;
          last_msg = reply.message;
          events.insert(events.end(), reply.events.begin(),
                        reply.events.end());
          return !until || until(events);
        },
        util::seconds(30));
    EXPECT_TRUE(done) << step;
    std::string line = "msg=" + names.text(last_msg) + " events=";
    for (const auto& ev : events) line += names.event(ev);
    transcript.push_back(step + " " + std::to_string(last_status) + " " +
                         line);
  }

  void history(Browser& b, const proto::AppId& app, const std::string& step) {
    proto::HistoryRequest req;
    req.token = b.token;
    req.app_id = app;
    req.from_seq = 0;
    req.max_events = 0;
    const auto resp = post(b, core::kPathArchive, proto::encode_body(req));
    const auto reply = proto::decode_history_reply(resp.body);
    std::string line = "ok=" + std::to_string(reply.ok) +
                       " msg=" + names.text(reply.message) + " events=";
    for (const auto& ev : reply.events) line += names.event(ev);
    record(step, resp, line);
  }

  void viz(Browser& b, const proto::AppId& app, const std::string& metric,
           const std::string& step) {
    const auto resp = b.call(scenario_.net(), server_.node(),
                             http::Method::get,
                             std::string(core::kPathViz) + "?app=" +
                                 app.to_string() + "&metric=" + metric +
                                 "&n=10");
    record(step, resp,
           "host=" + resp.headers.get(core::kHostHeader).value_or("") +
               " body=" + names.text(util::to_string(resp.body)));
  }

  void logout(Browser& b, const std::string& step) {
    proto::LogoutRequest req;
    req.token = b.token;
    const auto resp = post(b, core::kPathLogout, proto::encode_body(req));
    const auto ack = proto::decode_collab_ack(resp.body);
    record(step, resp, "ok=" + std::to_string(ack.ok) + " msg=" + ack.message);
  }

  /// Sends one request to `path` carrying `token` and naming `app` (where
  /// the path takes one), and records its status and decoded message.
  void refusal(Browser& b, const char* path,
               const security::SessionToken& token, const proto::AppId& app,
               const std::string& step) {
    const std::string p = path;
    std::string msg;
    http::HttpResponse resp;
    if (p == core::kPathViz) {
      resp = b.call(scenario_.net(), server_.node(), http::Method::get,
                    p + "?app=" + app.to_string() + "&metric=metric_0");
      msg = util::to_string(resp.body);
    } else if (p == core::kPathSelect || p == core::kPathRedirect) {
      proto::SelectAppRequest req;
      req.token = token;
      req.app_id = app;
      resp = post(b, path, proto::encode_body(req));
      msg = p == core::kPathSelect
                ? proto::decode_select_app_reply(resp.body).message
                : "host=" + resp.headers.get(core::kHostHeader).value_or("") +
                      " body=" + util::to_string(resp.body);
    } else if (p == core::kPathCommand) {
      proto::CommandRequest req;
      req.token = token;
      req.app_id = app;
      req.request_id = ++next_rid_;
      resp = post(b, path, proto::encode_body(req));
      msg = proto::decode_command_ack(resp.body).message;
    } else if (p == core::kPathPoll) {
      proto::PollRequest req;
      req.token = token;
      req.app_id = app;
      resp = post(b, path, proto::encode_body(req));
      msg = proto::decode_poll_reply(resp.body).message;
    } else if (p == core::kPathCollabPost) {
      proto::CollabPost req;
      req.token = token;
      req.app_id = app;
      req.text = "hi";
      resp = post(b, path, proto::encode_body(req));
      msg = proto::decode_collab_ack(resp.body).message;
    } else if (p == core::kPathGroup) {
      proto::GroupRequest req;
      req.token = token;
      req.app_id = app;
      req.op = proto::GroupOp::join_subgroup;
      req.subgroup = "g";
      resp = post(b, path, proto::encode_body(req));
      msg = proto::decode_collab_ack(resp.body).message;
    } else if (p == core::kPathArchive) {
      proto::HistoryRequest req;
      req.token = token;
      req.app_id = app;
      resp = post(b, path, proto::encode_body(req));
      msg = proto::decode_history_reply(resp.body).message;
    } else if (p == core::kPathLogout) {
      proto::LogoutRequest req;
      req.token = token;
      resp = post(b, path, proto::encode_body(req));
      msg = proto::decode_collab_ack(resp.body).message;
    }
    record(step, resp, "msg=" + names.text(msg));
  }

  /// Scrapes the merged /discover/metrics exposition into counter values.
  std::map<std::string, std::uint64_t> scrape_counters(Browser& b) {
    const auto resp = b.call(scenario_.net(), server_.node(),
                             http::Method::get, core::kPathMetrics);
    EXPECT_EQ(resp.status, 200);
    std::map<std::string, std::uint64_t> out;
    std::istringstream in(util::to_string(resp.body));
    std::string line;
    std::string counter;
    while (std::getline(in, line)) {
      if (line.rfind("# TYPE ", 0) == 0) {
        const auto sp = line.rfind(' ');
        counter = line.substr(sp + 1) == "counter"
                      ? line.substr(7, sp - 7)
                      : std::string();
        continue;
      }
      if (!counter.empty() && line.rfind(counter + " ", 0) == 0) {
        out[counter] = std::stoull(line.substr(counter.size() + 1));
      }
    }
    return out;
  }

  std::vector<std::string> transcript;
  AppNames names;
  int observer_logins = 0;

 private:
  static core::ServerConfig config(std::uint32_t shard_count,
                                   std::size_t max_sessions_per_app) {
    core::ServerConfig cfg;
    cfg.shard_count = shard_count;
    cfg.max_sessions_per_app = max_sessions_per_app;
    // Parked apps stay silent for the whole run; keep them registered.
    cfg.app_liveness_factor = 0;
    return cfg;
  }

  http::HttpResponse post(Browser& b, const char* path, util::Bytes body) {
    return b.call(scenario_.net(), server_.node(), http::Method::post, path,
                  std::move(body));
  }

  void record(const std::string& step, const http::HttpResponse& resp,
              const std::string& line) {
    transcript.push_back(step + " " + std::to_string(resp.status) + " " +
                         line);
  }

  workload::ThreadScenario scenario_;
  DiscoverServer& server_;
  std::vector<app::SyntheticApp*> apps_;
  std::vector<std::unique_ptr<Browser>> browsers_;
  std::uint64_t next_rid_ = 0;
};

/// Picks the first index in [0, n) whose value satisfies `ok`.
int pick(int n, const std::function<bool(int)>& ok) {
  for (int i = 0; i < n; ++i) {
    if (ok(i)) return i;
  }
  ADD_FAILURE() << "no candidate satisfies the core layout";
  return 0;
}

struct EquivResult {
  std::vector<std::string> transcript;
  std::map<std::string, std::uint64_t> counters;
};

// Per-app admission across cores: with max_sessions_per_app = 1, a second
// session on another core is refused until the first one leaves.
EquivResult run_admission_script(std::uint32_t shard_count) {
  EquivRun run(shard_count, /*max_sessions_per_app=*/1);
  EXPECT_TRUE(run.settle());
  const int a = 0;
  const int b = pick(kEquivBrowsers - 1, [&](int i) {
    return run.browser_core(i) != run.browser_core(a);
  });
  const int x = pick(kEquivApps, [&](int i) {
    return run.app_core(i) != run.browser_core(a) &&
           run.app_core(i) != run.browser_core(b);
  });
  const proto::AppId app = run.app_id(x);
  run.login(run.browser(a), "alice", "login-a");
  run.login(run.browser(b), "bob", "login-b");
  run.select(run.browser(a), app, "select-a");
  run.select(run.browser(b), app, "select-b-full");
  run.select(run.browser(a), app, "reselect-a");
  run.logout(run.browser(a), "logout-a");
  run.select(run.browser(b), app, "select-b-admitted");
  auto counters = run.scrape_counters(run.browser(b));
  counters["logins_ok"] -= static_cast<std::uint64_t>(run.observer_logins);
  return {run.transcript, counters};
}

// Cross-core owner work: the lock of an app on core B held by a session on
// core A and released by its logout, visualization and history of an app
// owned by another core, chat and steering relayed through the owner.
EquivResult run_owner_script(std::uint32_t shard_count,
                             core::ServerStats* stats_out = nullptr,
                             std::map<std::string, std::uint64_t>*
                                 raw_counters = nullptr) {
  EquivRun run(shard_count, /*max_sessions_per_app=*/0);
  EXPECT_TRUE(run.settle());
  const int holder = 0;
  const int y = pick(kEquivApps, [&](int i) {
    return run.app_core(i) != run.browser_core(holder);
  });
  const int waiter = pick(kEquivBrowsers - 1, [&](int i) {
    return run.browser_core(i) != run.browser_core(holder) &&
           run.browser_core(i) != run.app_core(y);
  });
  const int viewer = pick(kEquivBrowsers - 1, [&](int i) {
    return i != holder && i != waiter;
  });
  const int x = pick(kEquivApps, [&](int i) {
    return i != y && run.app_core(i) != run.browser_core(viewer);
  });
  const proto::AppId app_y = run.app_id(y);
  const proto::AppId app_x = run.app_id(x);
  Browser& h = run.browser(holder);
  Browser& w = run.browser(waiter);
  Browser& v = run.browser(viewer);
  const auto has_lock_notice = [](const std::string& user,
                                  const std::string& what) {
    return [user, what](const std::vector<proto::ClientEvent>& evs) {
      return std::any_of(evs.begin(), evs.end(), [&](const auto& ev) {
        return ev.kind == proto::EventKind::lock_notice && ev.user == user &&
               ev.text == what;
      });
    };
  };

  run.login(h, "carol", "login-holder");
  run.login(w, "dave", "login-waiter");
  run.login(v, "erin", "login-viewer");

  run.select(h, app_y, "holder-select");
  run.command(h, app_y, proto::CommandKind::acquire_lock, "", {},
              "holder-acquire");
  run.poll(h, app_y, "holder-granted", has_lock_notice("carol", "granted"));
  run.select(w, app_y, "waiter-select");
  run.command(w, app_y, proto::CommandKind::acquire_lock, "", {},
              "waiter-acquire");
  run.command(w, app_y, proto::CommandKind::set_param, "param_0",
              proto::ParamValue{2.5}, "waiter-steer-unlocked");
  run.post_chat(h, app_y, "over to you", "holder-chat");
  run.logout(h, "holder-logout");
  run.poll(w, app_y, "waiter-granted", has_lock_notice("dave", "granted"));
  run.command(w, app_y, proto::CommandKind::set_param, "param_0",
              proto::ParamValue{2.5}, "waiter-steer");
  run.poll(w, app_y, "waiter-response",
           [](const std::vector<proto::ClientEvent>& evs) {
             return std::any_of(evs.begin(), evs.end(), [](const auto& ev) {
               return ev.kind == proto::EventKind::response;
             });
           });

  run.viz(v, app_x, "metric_0", "viewer-viz-unselected");
  run.select(v, app_x, "viewer-select");
  run.history(v, app_x, "viewer-history");
  run.history(v, app_y, "viewer-history-unselected");
  run.viz(v, app_x, "metric_0", "viewer-viz");
  run.viz(v, app_x, "no_such_metric", "viewer-viz-missing");
  run.command(v, app_x, proto::CommandKind::set_param, "param_0",
              proto::ParamValue{1.0}, "viewer-steer-denied");
  run.post_chat(v, app_x, "just watching", "viewer-chat");
  run.poll(v, app_x, "viewer-poll",
           [](const std::vector<proto::ClientEvent>& evs) {
             return std::any_of(evs.begin(), evs.end(), [](const auto& ev) {
               return ev.kind == proto::EventKind::chat;
             });
           });

  auto counters = run.scrape_counters(v);
  if (raw_counters != nullptr) *raw_counters = counters;
  counters["logins_ok"] -= static_cast<std::uint64_t>(run.observer_logins);
  run.scenario().stop();
  if (stats_out != nullptr) *stats_out = run.server().stats_sum();
  return {run.transcript, counters};
}

// Every servlet refusal: (a) a forged and an expired token, (b) a valid
// token replayed from an HTTP session that never logged in, and (c) a
// logged-in session naming an app it never selected.  The session and the
// apps sit on three different cores.
EquivResult run_refusal_script(std::uint32_t shard_count) {
  EquivRun run(shard_count, /*max_sessions_per_app=*/0);
  EXPECT_TRUE(run.settle());
  const int a = 0;
  const int b = pick(kEquivBrowsers - 1, [&](int i) {
    return run.browser_core(i) != run.browser_core(a);
  });
  const int y = pick(kEquivApps, [&](int i) {
    return run.app_core(i) != run.browser_core(a);
  });
  const int x = pick(kEquivApps, [&](int i) {
    return i != y && run.app_core(i) != run.browser_core(a) &&
           run.app_core(i) != run.app_core(y);
  });
  const proto::AppId selected = run.app_id(y);
  const proto::AppId unselected = run.app_id(x);
  const proto::AppId unknown{run.server().node().value(), 0xffff0};
  run.names.by_id[unknown] = "unknown";
  Browser& in = run.browser(a);
  Browser& out = run.browser(b);
  run.login(in, "alice", "login");
  run.select(in, selected, "select");
  const security::SessionToken valid = in.token;
  security::SessionToken forged = valid;
  forged.mac ^= 1;
  const security::SessionToken expired =
      security::TokenAuthority(run.server().node().value(),
                               core::ServerConfig{}.token_secret)
          .issue("alice", 0, 1);

  const char* token_paths[] = {core::kPathSelect,     core::kPathCommand,
                               core::kPathPoll,       core::kPathCollabPost,
                               core::kPathGroup,      core::kPathArchive,
                               core::kPathRedirect,   core::kPathLogout};
  for (const char* path : token_paths) {
    run.refusal(in, path, forged, selected, std::string(path) + " forged");
    run.refusal(in, path, expired, selected, std::string(path) + " expired");
    run.refusal(out, path, valid, selected, std::string(path) + " foreign");
  }
  run.refusal(out, core::kPathViz, valid, selected,
              std::string(core::kPathViz) + " foreign");
  const char* app_paths[] = {core::kPathCommand,   core::kPathPoll,
                             core::kPathCollabPost, core::kPathGroup,
                             core::kPathArchive,   core::kPathViz,
                             core::kPathRedirect};
  for (const char* path : app_paths) {
    run.refusal(in, path, valid, unselected,
                std::string(path) + " unselected");
  }
  run.refusal(in, core::kPathSelect, valid, unknown,
              std::string(core::kPathSelect) + " unknown");
  auto counters = run.scrape_counters(in);
  counters["logins_ok"] -= static_cast<std::uint64_t>(run.observer_logins);
  return {run.transcript, counters};
}

/// Counters that legitimately depend on the core count: the dispatcher's
/// routing counter exists only sharded, a high-water mark is the largest
/// per-core peak (one core's backlog is not the node's), and the number of
/// polls a wait loop takes is timing.
bool core_count_dependent(const std::string& name) {
  return name == "shard_routed_total" || name == "peak_fifo_backlog" ||
         name == "peak_fifo_backlog_bytes" || name == "polls_served";
}

void expect_equivalent(const EquivResult& one, const EquivResult& four) {
  ASSERT_FALSE(one.transcript.empty());
  ASSERT_EQ(one.transcript.size(), four.transcript.size());
  for (std::size_t i = 0; i < one.transcript.size(); ++i) {
    EXPECT_EQ(one.transcript[i], four.transcript[i]) << "step " << i;
  }
  std::map<std::string, std::uint64_t> a;
  std::map<std::string, std::uint64_t> b;
  for (const auto& [name, v] : one.counters) {
    if (!core_count_dependent(name)) a[name] = v;
  }
  for (const auto& [name, v] : four.counters) {
    if (!core_count_dependent(name)) b[name] = v;
  }
  EXPECT_EQ(a, b);
}

TEST(ShardEquivalence, EveryCoreOwnsAnApp) {
  EquivRun run(kEquivShards, 0);
  ASSERT_TRUE(run.server().sharded());
  std::set<std::uint32_t> owners;
  for (int i = 0; i < kEquivApps; ++i) owners.insert(run.app_core(i));
  EXPECT_EQ(owners.size(), kEquivShards);
}

TEST(ShardEquivalence, CrossCoreAdmissionMatchesOneCore) {
  const EquivResult one = run_admission_script(1);
  const EquivResult four = run_admission_script(kEquivShards);
  expect_equivalent(one, four);
  // The refusal really happened, with its Retry-After.
  EXPECT_NE(one.transcript[3].find("select-b-full 503"), std::string::npos)
      << one.transcript[3];
  EXPECT_EQ(one.counters.at("admission_rejected_selects"), 1u);
}

TEST(ShardEquivalence, RefusalsMatchOneCore) {
  const EquivResult one = run_refusal_script(1);
  const EquivResult four = run_refusal_script(kEquivShards);
  expect_equivalent(one, four);
  // Pinned: every refusal keeps its status and message.  The server
  // node's id (1) is the redirect's host header.
  const std::vector<std::string> expected = {
      "/discover/master/select forged 401 msg=token MAC mismatch",
      "/discover/master/select expired 401 msg=token expired",
      "/discover/master/select foreign 401 msg=no active login session",
      "/discover/command forged 401 msg=token MAC mismatch",
      "/discover/command expired 401 msg=token expired",
      "/discover/command foreign 401 msg=no active login session",
      "/discover/collab/poll forged 401 msg=token MAC mismatch",
      "/discover/collab/poll expired 401 msg=token expired",
      "/discover/collab/poll foreign 401 msg=no active login session",
      "/discover/collab/post forged 401 msg=token MAC mismatch",
      "/discover/collab/post expired 401 msg=token expired",
      "/discover/collab/post foreign 401 msg=no active login session",
      "/discover/collab/group forged 401 msg=token MAC mismatch",
      "/discover/collab/group expired 401 msg=token expired",
      "/discover/collab/group foreign 401 msg=no active login session",
      "/discover/archive forged 401 msg=token MAC mismatch",
      "/discover/archive expired 401 msg=token expired",
      "/discover/archive foreign 400 msg=application not selected",
      "/discover/redirect forged 401 msg=host= body=token MAC mismatch",
      "/discover/redirect expired 401 msg=host= body=token expired",
      "/discover/redirect foreign 200 msg=host=1 body=",
      "/discover/master/logout forged 401 msg=token MAC mismatch",
      "/discover/master/logout expired 401 msg=token expired",
      "/discover/master/logout foreign 200 msg=logged out",
      "/discover/viz foreign 403 msg=select the application first",
      "/discover/command unselected 400 msg=application not selected",
      "/discover/collab/poll unselected 400 msg=application not selected",
      "/discover/collab/post unselected 400 msg=application not selected",
      "/discover/collab/group unselected 400 msg=application not selected",
      "/discover/archive unselected 400 msg=application not selected",
      "/discover/viz unselected 403 msg=select the application first",
      "/discover/redirect unselected 200 msg=host=1 body=",
      "/discover/master/select unknown 404 msg=application not found: unknown",
  };
  ASSERT_EQ(one.transcript.size(), expected.size() + 2);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(one.transcript[i + 2], expected[i]);
  }
  EXPECT_EQ(one.counters.at("selects_failed"), 4u);
}

TEST(ShardEquivalence, CrossCoreOwnerWorkMatchesOneCore) {
  const EquivResult one = run_owner_script(1);
  core::ServerStats sum;
  std::map<std::string, std::uint64_t> scraped;
  const EquivResult four = run_owner_script(kEquivShards, &sum, &scraped);
  expect_equivalent(one, four);
  // High-water marks merge by max, as stats_sum() does: the scrape reports
  // the node's peak, not the sum of per-core peaks.
  EXPECT_GT(sum.peak_fifo_backlog, 0u);
  EXPECT_EQ(scraped.at("peak_fifo_backlog"), sum.peak_fifo_backlog);
  EXPECT_EQ(scraped.at("peak_fifo_backlog_bytes"),
            sum.peak_fifo_backlog_bytes);
  EXPECT_EQ(scraped.at("peer_batch_events_max"), sum.peer_batch_events_max);
  const auto line = [&](const std::string& step) {
    for (const auto& l : one.transcript) {
      if (l.rfind(step + " ", 0) == 0) return l;
    }
    return std::string();
  };
  EXPECT_NE(line("viewer-viz").find("viewer-viz 200"), std::string::npos);
  EXPECT_NE(line("viewer-viz").find("samples=3"), std::string::npos);
  EXPECT_NE(line("waiter-steer").find("forwarded to application"),
            std::string::npos);
  EXPECT_EQ(one.counters.at("lock_notices"), 2u);
}

}  // namespace
}  // namespace discover
