// Sharded federation (DESIGN.md §5j): peer ORB traffic routed to owning
// cores must be invisible on the wire.
//  * A/B equivalence — the same deterministic cross-server chat workload,
//    run once at shard_count = 1 and once at shard_count = 4, yields
//    byte-identical per-app event streams at the subscribing peer (after
//    normalising the wall-clock stamps and the core-tagged id mints that
//    legitimately differ);
//  * end-to-end — clients of a sharded server steer, post to and poll
//    apps hosted at an unsharded peer and vice versa: the cross-shard
//    select/command/collab/history hops all cross the remote relay.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "app/synthetic.h"
#include "core/server.h"
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

}  // namespace
}  // namespace discover
