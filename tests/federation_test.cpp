// Sharded federation (DESIGN.md §5j): peer ORB traffic routed to owning
// cores must be invisible on the wire.
//  * A/B equivalence — the same deterministic cross-server chat workload,
//    run once at shard_count = 1 and once at shard_count = 4, yields
//    byte-identical per-app event streams at the subscribing peer (after
//    normalising the wall-clock stamps and the core-tagged id mints that
//    legitimately differ);
//  * end-to-end — clients of a sharded server steer, post to and poll
//    apps hosted at an unsharded peer and vice versa: the cross-shard
//    select/command/collab/history hops all cross the remote relay;
//  * watchers — a session on a core that does not own a remote app keeps
//    receiving its events after the host went suspect, healed and the
//    session re-selected, and two of its selects in flight at once leave
//    no watcher behind once it logs out;
//  * directory — an observing peer sees the same directory of a 1-core
//    and a 4-core host: live event sequences and lock state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/synthetic.h"
#include "core/server.h"
#include "http/http_message.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"
#include "workload/thread_scenario.h"

namespace discover {
namespace {

using core::DiscoverServer;
using security::Privilege;
using workload::make_acl;

constexpr int kHostApps = 3;
constexpr int kChatsPerApp = 8;

app::AppConfig quiet_app(const std::string& name) {
  app::AppConfig cfg;
  cfg.name = name;
  cfg.acl = make_acl({{"alice", Privilege::steer},
                      {"bob", Privilege::steer}});
  cfg.step_time = util::milliseconds(5);
  cfg.update_every = 0;  // no background stream: the workload is the driver
  cfg.interact_every = 0;
  return cfg;
}

// ---------------------------------------------------------------------------
// A/B wire equivalence: shard_count must not change what a peer receives.
// ---------------------------------------------------------------------------

// One deterministic federated run: `host` owns kHostApps apps, alice
// subscribes to all of them from `near`, bob chats into each one at the
// host.  Returns alice's received stream per host app, normalised and
// re-encoded standalone so runs can be compared byte-for-byte.
std::map<std::string, util::Bytes> run_federated_chat(
    std::uint32_t shard_count) {
  core::ServerConfig tmpl;
  tmpl.shard_count = shard_count;
  tmpl.peer_refresh_period = util::milliseconds(100);
  workload::ThreadScenario scenario(tmpl);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);

  std::vector<app::SyntheticApp*> apps;
  for (int i = 0; i < kHostApps; ++i) {
    apps.push_back(&scenario.add_app<app::SyntheticApp>(
        host, quiet_app("far" + std::to_string(i)), app::SyntheticSpec{}));
  }
  // Anchor app at `near` so alice can authenticate there at all.
  scenario.add_app<app::SyntheticApp>(near, quiet_app("near-anchor"),
                                      app::SyntheticSpec{});
  // All nodes before start(): the ThreadNetwork roster is fixed.
  auto& alice = scenario.add_client("alice", near);
  auto& bob = scenario.add_client("bob", host);
  scenario.start();
  EXPECT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        for (const auto* a : apps) {
          if (!a->registered()) return false;
        }
        return near.peer_count() == 1 && host.peer_count() == 1;
      },
      util::seconds(30)));
  // The remote directory converges via the versioned refresh; retry the
  // login until it actually lists every host app plus the anchor.
  util::Result<proto::LoginReply> login{proto::LoginReply{}};
  EXPECT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        login = workload::sync_login(scenario.net(), alice);
        return login.ok() && login.value().ok &&
               login.value().applications.size() >=
                   static_cast<std::size_t>(kHostApps) + 1;
      },
      util::seconds(30)));
  EXPECT_TRUE(login.ok() && login.value().ok);

  // Deterministic op order: subscribe to each host app by NAME (ids mint
  // differently across shard counts), then push on.
  std::map<std::string, proto::AppId> by_name;
  for (const auto& info : login.value().applications) {
    by_name[info.name] = info.id;
  }
  std::vector<proto::AppId> targets;
  for (int i = 0; i < kHostApps; ++i) {
    const auto it = by_name.find("far" + std::to_string(i));
    EXPECT_NE(it, by_name.end()) << "far" << i << " not in the directory";
    if (it == by_name.end()) return {};
    targets.push_back(it->second);
  }
  for (const auto& id : targets) {
    // The remote entry appears in near's apps_ with the directory pull;
    // failed selects have no side effects, so retrying until the pull
    // lands keeps the event streams identical across runs.
    EXPECT_TRUE(workload::wait_for(
        scenario.net(),
        [&] {
          auto sel = workload::sync_select(scenario.net(), alice, id);
          return sel.ok() && sel.value().ok;
        },
        util::seconds(30)));
    EXPECT_TRUE(workload::sync_group_op(scenario.net(), alice, id,
                                        proto::GroupOp::enable_push, "")
                    .value()
                    .ok);
  }

  // bob chats into every app at the host itself, app by app, so each
  // per-app stream is a fixed sequence whatever the interleaving between
  // apps (or cores) looks like.
  EXPECT_TRUE(workload::sync_login(scenario.net(), bob).value().ok);
  for (std::size_t a = 0; a < targets.size(); ++a) {
    EXPECT_TRUE(
        workload::sync_select(scenario.net(), bob, targets[a]).value().ok);
    for (int i = 0; i < kChatsPerApp; ++i) {
      EXPECT_TRUE(workload::sync_collab_post(
                      scenario.net(), bob, targets[a], proto::EventKind::chat,
                      "a" + std::to_string(a) + "c" + std::to_string(i))
                      .value()
                      .ok);
    }
  }
  // Read alice's recording on her own worker (actor model): the vector
  // is only safe to touch from that thread while the network runs.
  const auto all_chats_arrived = [&] {
    std::promise<bool> p;
    scenario.net().post(alice.node(), [&] {
      std::map<proto::AppId, int> chats;
      for (const auto& ev : alice.received_events()) {
        if (ev.kind == proto::EventKind::chat) ++chats[ev.app];
      }
      bool ok = true;
      for (const auto& id : targets) ok = ok && chats[id] >= kChatsPerApp;
      p.set_value(ok);
    });
    return p.get_future().get();
  };
  EXPECT_TRUE(workload::wait_for(scenario.net(),
                                 [&] { return all_chats_arrived(); },
                                 util::seconds(60)));
  scenario.stop();

  // Workers joined: normalise and re-encode alice's stream per host app.
  // Zeroing `at` (wall clock) and canonicalising the app id (the mint is
  // core-tagged under sharding by design) leaves everything the paper's
  // protocol promises: kinds, host-assigned sequences, users, payloads.
  std::map<std::string, util::Bytes> streams;
  for (std::size_t a = 0; a < targets.size(); ++a) {
    wire::Encoder enc;
    for (const auto& ev : alice.received_events()) {
      if (!(ev.app == targets[a])) continue;
      proto::ClientEvent norm = ev;
      norm.at = 0;
      norm.app = proto::AppId{};
      norm.app.local = static_cast<std::uint32_t>(a);
      proto::encode(enc, norm);
    }
    streams["far" + std::to_string(a)] = std::move(enc).take();
  }
  EXPECT_EQ(streams.size(), static_cast<std::size_t>(kHostApps));
  return streams;
}

TEST(FederationWire, ShardedAndUnshardedPeersAreByteIdentical) {
  const auto unsharded = run_federated_chat(1);
  const auto sharded = run_federated_chat(4);
  ASSERT_EQ(unsharded.size(), sharded.size());
  for (const auto& [name, stream] : unsharded) {
    ASSERT_TRUE(sharded.count(name)) << name;
    EXPECT_EQ(stream, sharded.at(name))
        << "per-app stream for " << name
        << " differs between shard_count 1 and 4";
  }
}

// ---------------------------------------------------------------------------
// End-to-end: remote apps behind owning cores, in both directions.
// ---------------------------------------------------------------------------

TEST(FederationEndToEnd, ShardedServerSteersAndPollsBothWays) {
  core::ServerConfig tmpl;
  tmpl.shard_count = 4;
  tmpl.peer_refresh_period = util::milliseconds(100);
  workload::ThreadScenario scenario(tmpl);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);

  auto& far = scenario.add_app<app::SyntheticApp>(host, quiet_app("far"),
                                                  app::SyntheticSpec{});
  auto& local = scenario.add_app<app::SyntheticApp>(
      near, quiet_app("near-app"), app::SyntheticSpec{});
  auto& alice = scenario.add_client("alice", host);
  auto& bob = scenario.add_client("bob", near);
  scenario.start();
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        return far.registered() && local.registered() &&
               near.peer_count() == 1 && host.peer_count() == 1;
      },
      util::seconds(30)));

  // alice at the sharded `host` drives the app living at unsharded `near`:
  // her select, steering commands, collab posts and history reads all
  // cross the owning core's remote relay (§5j).
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        auto l = workload::sync_login(scenario.net(), alice);
        if (!l.ok() || !l.value().ok) return false;
        auto sel =
            workload::sync_select(scenario.net(), alice, local.app_id());
        return sel.ok() && sel.value().ok;
      },
      util::seconds(30)));
  ASSERT_TRUE(
      workload::sync_onboard_steerer(scenario.net(), alice, local.app_id()));
  auto ack = workload::sync_command(scenario.net(), alice, local.app_id(),
                                    proto::CommandKind::set_param, "param_0",
                                    proto::ParamValue{4.5});
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value().accepted) << ack.value().message;
  EXPECT_TRUE(workload::sync_collab_post(scenario.net(), alice,
                                         local.app_id(),
                                         proto::EventKind::chat, "x-shard")
                  .value()
                  .ok);
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        auto hist = workload::sync_history(scenario.net(), alice,
                                           local.app_id(), 0, 0);
        if (!hist.ok() || !hist.value().ok) return false;
        for (const auto& ev : hist.value().events) {
          if (ev.kind == proto::EventKind::chat && ev.text == "x-shard") {
            return true;
          }
        }
        return false;
      },
      util::seconds(30)));

  // bob at `near` drives the sharded host's app: the unsharded remote
  // path lands on whatever core owns `far` at the other end.
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        auto l = workload::sync_login(scenario.net(), bob);
        if (!l.ok() || !l.value().ok) return false;
        auto sel = workload::sync_select(scenario.net(), bob, far.app_id());
        return sel.ok() && sel.value().ok;
      },
      util::seconds(30)));
  ASSERT_TRUE(
      workload::sync_onboard_steerer(scenario.net(), bob, far.app_id()));
  auto ack2 = workload::sync_command(scenario.net(), bob, far.app_id(),
                                     proto::CommandKind::set_param, "param_0",
                                     proto::ParamValue{2.25});
  ASSERT_TRUE(ack2.ok());
  EXPECT_TRUE(ack2.value().accepted) << ack2.value().message;

  scenario.stop();
  // The relays really went remote, from both sides.
  EXPECT_GT(host.stats_sum().remote_commands_out, 0u);
  EXPECT_GT(near.stats_sum().remote_commands_out, 0u);
  EXPECT_GT(host.live_peer_events_in() + near.live_peer_events_in(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-core watchers outlive a withdrawn remote entry.
// ---------------------------------------------------------------------------

// A session on a core that does not own a remote app selects it; the app's
// host goes suspect (the remote entry is withdrawn), heals, and the session
// re-selects.  Returns whether the next event the host publishes reaches
// the session.
bool watcher_hears_after_heal(std::uint32_t shard_count) {
  core::ServerConfig tmpl;
  tmpl.shard_count = shard_count;
  tmpl.peer_refresh_period = util::milliseconds(50);
  tmpl.orb_call_timeout = util::milliseconds(300);
  workload::ThreadScenario scenario(tmpl);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  auto& far = scenario.add_app<app::SyntheticApp>(host, quiet_app("far"),
                                                  app::SyntheticSpec{});
  scenario.add_app<app::SyntheticApp>(near, quiet_app("near-anchor"),
                                      app::SyntheticSpec{});
  // Several sessions at `near`, so one sits on a core that does not own
  // `far`'s remote entry.
  std::vector<core::DiscoverClient*> watchers;
  for (int i = 0; i < 4; ++i) {
    watchers.push_back(&scenario.add_client("alice", near));
  }
  auto& bob = scenario.add_client("bob", host);
  scenario.start();
  EXPECT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        return far.registered() && near.peer_count() == 1 &&
               host.peer_count() == 1;
      },
      util::seconds(30)));
  const proto::AppId app = far.app_id();
  std::uint32_t bits = 0;
  while ((1u << bits) < near.shard_count()) ++bits;
  const std::uint32_t owner =
      DiscoverServer::shard_of_app(app, bits, near.shard_count());
  core::DiscoverClient* alice = watchers.front();
  for (auto* w : watchers) {
    if (DiscoverServer::shard_of_node(w->node().value(),
                                      near.shard_count()) != owner) {
      alice = w;
    }
  }
  const auto select = [&] {
    return workload::wait_for(
        scenario.net(),
        [&] {
          auto l = workload::sync_login(scenario.net(), *alice);
          if (!l.ok() || !l.value().ok) return false;
          auto sel = workload::sync_select(scenario.net(), *alice, app);
          return sel.ok() && sel.value().ok;
        },
        util::seconds(30));
  };
  const auto hears = [&](const std::string& text) {
    return workload::wait_for(
        scenario.net(),
        [&] {
          auto r = workload::sync_poll(scenario.net(), *alice, app);
          if (!r.ok()) return false;
          return std::any_of(r.value().events.begin(),
                             r.value().events.end(), [&](const auto& ev) {
                               return ev.text.find(text) != std::string::npos;
                             });
        },
        util::seconds(10));
  };
  const auto bob_chats = [&](const std::string& text) {
    return workload::sync_collab_post(scenario.net(), bob, app,
                                      proto::EventKind::chat, text)
        .value()
        .ok;
  };
  EXPECT_TRUE(select());
  EXPECT_TRUE(workload::sync_login(scenario.net(), bob).value().ok);
  EXPECT_TRUE(workload::sync_select(scenario.net(), bob, app).value().ok);
  EXPECT_TRUE(bob_chats("before"));
  EXPECT_TRUE(hears("before"));

  // Partition until `near` declares the host suspect: the remote entry is
  // withdrawn and the session hears the departure.
  scenario.net().partition(near.node(), host.node());
  EXPECT_TRUE(hears("host server unreachable"));
  scenario.net().heal(near.node(), host.node());
  EXPECT_TRUE(select());
  EXPECT_TRUE(bob_chats("after"));
  const bool heard = hears("after");
  scenario.stop();
  return heard;
}

TEST(FederationWatchers, ReselectAfterHealHearsTheHostAtOneCore) {
  EXPECT_TRUE(watcher_hears_after_heal(1));
}

TEST(FederationWatchers, ReselectAfterHealHearsTheHostAcrossCores) {
  EXPECT_TRUE(watcher_hears_after_heal(4));
}

// One session on a core that does not own a remote app sends two selects
// of it at once, then logs out.  The owner counted the session once per
// select; the logout must leave no count behind, so two fresh sessions fill
// the app's two admission slots, and once they log out too the app is
// unsubscribed at its host.
void double_select_then_logout(std::uint32_t shard_count) {
  core::ServerConfig tmpl;
  tmpl.shard_count = shard_count;
  tmpl.peer_refresh_period = util::milliseconds(50);
  tmpl.max_sessions_per_app = 2;
  workload::ThreadScenario scenario(tmpl);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  auto& far = scenario.add_app<app::SyntheticApp>(host, quiet_app("far"),
                                                  app::SyntheticSpec{});
  scenario.add_app<app::SyntheticApp>(near, quiet_app("near-anchor"),
                                      app::SyntheticSpec{});
  std::vector<core::DiscoverClient*> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(&scenario.add_client("alice", near));
  }
  auto& bob = scenario.add_client("bob", near);
  scenario.start();
  auto& net = scenario.net();
  ASSERT_TRUE(workload::wait_for(
      net,
      [&] {
        return far.registered() && near.peer_count() == 1 &&
               host.peer_count() == 1;
      },
      util::seconds(30)));
  const proto::AppId app = far.app_id();
  std::uint32_t bits = 0;
  while ((1u << bits) < near.shard_count()) ++bits;
  const std::uint32_t owner =
      DiscoverServer::shard_of_app(app, bits, near.shard_count());
  const auto alice_it = std::find_if(clients.begin(), clients.end(),
                                     [&](const core::DiscoverClient* c) {
                                       return shard_count == 1 ||
                                              DiscoverServer::shard_of_node(
                                                  c->node().value(),
                                                  shard_count) != owner;
                                     });
  ASSERT_NE(alice_it, clients.end());
  core::DiscoverClient& alice = **alice_it;
  clients.erase(alice_it);
  const auto logout = [&](core::DiscoverClient& c) {
    std::atomic<bool> done{false};
    net.post(c.node(), [&] {
      c.logout([&](util::Result<proto::CollabAck>) { done = true; });
    });
    return workload::wait_for(net, [&] { return done.load(); });
  };

  // bob resolves the remote app at `near`, then leaves.
  ASSERT_TRUE(workload::wait_for(
      net,
      [&] {
        auto l = workload::sync_login(net, bob);
        if (!l.ok() || !l.value().ok) return false;
        auto sel = workload::sync_select(net, bob, app);
        return sel.ok() && sel.value().ok;
      },
      util::seconds(30)));
  ASSERT_TRUE(logout(bob));

  ASSERT_TRUE(workload::sync_login(net, alice).value().ok);
  std::atomic<int> replies{0};
  std::atomic<int> granted{0};
  // Stall the host first, so both selects are at the owner core before
  // either get_interface reply comes back.
  net.post(host.node(), [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  net.post(alice.node(), [&] {
    for (int i = 0; i < 2; ++i) {
      alice.select_app(app, [&](util::Result<proto::SelectAppReply> r) {
        if (r.ok() && r.value().ok) ++granted;
        ++replies;
      });
    }
  });
  ASSERT_TRUE(workload::wait_for(net, [&] { return replies.load() == 2; }));
  EXPECT_EQ(granted.load(), 2);
  ASSERT_TRUE(logout(alice));

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(workload::sync_login(net, *clients[i]).value().ok);
    const auto sel = workload::sync_select(net, *clients[i], app);
    ASSERT_TRUE(sel.ok());
    EXPECT_TRUE(sel.value().ok) << "fresh session " << i << " refused: "
                                << sel.value().message;
  }
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(logout(*clients[i]));
  scenario.stop();
  EXPECT_FALSE(near.shard_core(owner).app_remote_subscribed(app));
}

TEST(FederationWatchers, DoubleSelectThenLogoutLeavesNoWatcherAtOneCore) {
  double_select_then_logout(1);
}

TEST(FederationWatchers, DoubleSelectThenLogoutLeavesNoWatcherAcrossCores) {
  double_select_then_logout(4);
}

// ---------------------------------------------------------------------------
// One directory form: a sharded host reports what an unsharded one does.
// ---------------------------------------------------------------------------

// A portal-less HTTP node: GETs one path and returns the reply body.
class Scraper : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    auto parsed = http::parse_response(msg.payload);
    if (!parsed.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    bodies_.push_back(util::to_string(parsed.value().body));
    cv_.notify_all();
  }

  /// The value of counter `name` in `server`'s /discover/metrics.
  std::uint64_t counter(net::Network& net, net::NodeId server,
                        const std::string& name) {
    http::HttpRequest req;
    req.method = http::Method::get;
    req.path = core::kPathMetrics;
    net.send(node, server, net::Channel::http, http::serialize(req));
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30),
                      [this] { return !bodies_.empty(); })) {
      return 0;
    }
    std::istringstream in(bodies_.front());
    bodies_.clear();
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(name + " ", 0) == 0) {
        return std::stoull(line.substr(name.size() + 1));
      }
    }
    return 0;
  }

  net::NodeId node{0};

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> bodies_;
};

// Three apps register at `host`, bob posts two chats into one and takes the
// steering lock of another; no app changes phase after registering.  Then
// the host bumps its directory epoch and `near` fetches a full snapshot.
// Returns near's view of the host, one line per app, by name.
std::vector<std::string> observed_directory(std::uint32_t host_shards) {
  core::ServerConfig tmpl;
  tmpl.shard_count = host_shards;
  tmpl.peer_refresh_period = util::milliseconds(50);
  workload::ThreadScenario scenario(tmpl);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  std::vector<app::SyntheticApp*> apps;
  for (int i = 0; i < 3; ++i) {
    apps.push_back(&scenario.add_app<app::SyntheticApp>(
        host, quiet_app("far" + std::to_string(i)), app::SyntheticSpec{}));
  }
  auto& bob = scenario.add_client("bob", host);
  Scraper scraper;
  scraper.node = scenario.net().add_node(
      "scraper", &scraper, scenario.net().node_domain(near.node()));
  scenario.start();
  auto& net = scenario.net();
  EXPECT_TRUE(workload::wait_for(
      net,
      [&] {
        return std::all_of(apps.begin(), apps.end(),
                           [](const auto* a) { return a->registered(); }) &&
               near.peer_count() == 1 && host.peer_count() == 1;
      },
      util::seconds(30)));
  // near holds the host's directory before anything else happens, so its
  // next full snapshot can only follow the epoch bump below.
  EXPECT_TRUE(workload::wait_for(
      net,
      [&] { return scraper.counter(net, near.node(), "dir_fulls_in") >= 1; },
      util::seconds(30)));

  EXPECT_TRUE(workload::sync_login(net, bob).value().ok);
  for (const auto* a : apps) {
    EXPECT_TRUE(workload::sync_select(net, bob, a->app_id()).value().ok);
  }
  EXPECT_TRUE(workload::sync_command(net, bob, apps[0]->app_id(),
                                     proto::CommandKind::acquire_lock, "",
                                     proto::ParamValue{})
                  .value()
                  .accepted);
  for (const char* text : {"one", "two"}) {
    EXPECT_TRUE(workload::sync_collab_post(net, bob, apps[1]->app_id(),
                                           proto::EventKind::chat, text)
                    .value()
                    .ok);
  }

  const std::uint64_t fulls =
      scraper.counter(net, near.node(), "dir_fulls_in");
  net.post(host.node(), [&host] { host.bump_directory_epoch(); });
  EXPECT_TRUE(workload::wait_for(
      net,
      [&] {
        return scraper.counter(net, near.node(), "dir_fulls_in") > fulls;
      },
      util::seconds(30)));
  scenario.stop();

  std::vector<std::string> out;
  for (const auto& info : near.peer_directory(host.node().value())) {
    std::ostringstream o;
    o << info.name << " desc=" << info.description
      << " phase=" << static_cast<int>(info.phase)
      << " seq=" << info.update_seq << " lock=" << info.lock_holder
      << " queue=" << info.lock_queue;
    out.push_back(o.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FederationDirectory, ShardedHostReportsTheSameDirectory) {
  const auto one = observed_directory(1);
  const auto four = observed_directory(4);
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one, four);
  // Live, not as of registration: the lock grant and both chats show.
  EXPECT_NE(one[0].find("lock=bob@"), std::string::npos) << one[0];
  EXPECT_NE(one[1].find("seq=3"), std::string::npos) << one[1];
}

}  // namespace
}  // namespace discover
