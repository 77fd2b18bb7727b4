// Fan-out through the per-app subscriber index (DESIGN.md "Fan-out fast
// path"):
//  * property test — the per-app subscriber index always agrees with a
//    brute-force scan of the session table, across 10k randomized
//    subscribe / unsubscribe / drop / crash operations;
//  * regression — drop_session still releases remote lock interest and
//    unsubscribes remote apps once their local watcher refcount hits zero;
//  * wire compatibility — encode_poll_reply_shared is byte-identical to
//    encode_body(PollReply);
//  * equivalence — every client receives exactly the chats and responses
//    the collaboration rules grant it, and the same update stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/synthetic.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;

bool sync_logout(net::Network& network, core::DiscoverClient& client) {
  bool done = false;
  client.logout([&done](util::Result<proto::CollabAck>) { done = true; });
  return workload::wait_for(network, [&] { return done; });
}

// ---------------------------------------------------------------------------
// Property: index == brute force, 10k randomized ops
// ---------------------------------------------------------------------------

TEST(FanoutIndexProperty, IndexMatchesBruteForceUnder10kRandomOps) {
  util::Rng rng(0xfa41d0ULL);
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  cfg.server_template.session_max_idle = util::seconds(2);
  cfg.server_template.remote_poll_period = util::milliseconds(50);
  workload::Scenario scenario(cfg);
  auto& host = scenario.add_server("host", 1);
  auto& peer = scenario.add_server("peer", 2);

  constexpr int kClients = 8;
  std::vector<security::AclEntry> acl;
  for (int i = 0; i < kClients; ++i) {
    acl.push_back({"u" + std::to_string(i), Privilege::read_write, 0});
  }
  app::AppConfig app_cfg;
  app_cfg.name = "sim";
  app_cfg.acl = acl;
  app_cfg.step_time = util::milliseconds(5);
  app_cfg.update_every = 0;  // quiet app: the test drives all traffic
  app_cfg.interact_every = 0;
  auto& app_a =
      scenario.add_app<app::SyntheticApp>(host, app_cfg, app::SyntheticSpec{});
  app::AppConfig app_cfg_b = app_cfg;
  app_cfg_b.name = "sim2";
  auto& app_b =
      scenario.add_app<app::SyntheticApp>(peer, app_cfg_b, app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app_a.registered() && app_b.registered() &&
           host.peer_count() == 1 && peer.peer_count() == 1;
  }));
  const std::vector<proto::AppId> app_ids{app_a.app_id(), app_b.app_id()};

  struct Member {
    core::DiscoverClient* client = nullptr;
    core::DiscoverServer* server = nullptr;
    bool logged_in = false;
  };
  std::vector<Member> members;
  for (int i = 0; i < kClients; ++i) {
    Member m;
    m.server = i % 2 == 0 ? &host : &peer;
    m.client =
        &scenario.add_client("u" + std::to_string(i), *m.server);
    members.push_back(m);
  }

  auto check = [&](int iter) {
    ASSERT_TRUE(host.subscriber_index_consistent())
        << "host index diverged at iteration " << iter;
    ASSERT_TRUE(peer.subscriber_index_consistent())
        << "peer index diverged at iteration " << iter;
  };

  constexpr int kIterations = 10000;
  for (int i = 0; i < kIterations; ++i) {
    Member& m = members[rng.below(members.size())];
    if (!m.logged_in) {
      const auto r = workload::sync_login(scenario.net(), *m.client);
      m.logged_in = r.ok() && r.value().ok;
    } else {
      const double dice = rng.uniform();
      if (dice < 0.55) {
        // subscribe (idempotent on re-select)
        const proto::AppId& id = app_ids[rng.below(app_ids.size())];
        (void)workload::sync_select(scenario.net(), *m.client, id);
      } else if (dice < 0.70) {
        // group churn on an existing sub (must never disturb the index)
        const proto::AppId& id = app_ids[rng.below(app_ids.size())];
        const proto::GroupOp op = rng.chance(0.5)
                                      ? proto::GroupOp::join_subgroup
                                      : proto::GroupOp::enable_push;
        (void)workload::sync_group_op(scenario.net(), *m.client, id, op,
                                      "team");
      } else if (dice < 0.85) {
        // unsubscribe-all via logout
        (void)sync_logout(scenario.net(), *m.client);
        m.logged_in = false;
      } else if (dice < 0.93) {
        // crash: the client vanishes mid-session; the idle sweep must drop
        // the server-side session (and its index rows) without its help.
        scenario.net().crash_node(m.client->node());
        scenario.run_for(cfg.server_template.session_max_idle +
                         util::seconds(3));
        scenario.net().restart_node(m.client->node());
        m.logged_in = false;
      } else {
        scenario.run_for(util::milliseconds(rng.below(200)));
      }
    }
    check(i);
    if (HasFatalFailure()) return;
  }

  // Teardown sweep: everyone leaves; the index must end empty.
  for (Member& m : members) {
    if (m.logged_in) (void)sync_logout(scenario.net(), *m.client);
  }
  scenario.run_for(util::seconds(10));
  check(kIterations);
  EXPECT_EQ(host.subscriber_count(app_ids[0]), 0u);
  EXPECT_EQ(peer.subscriber_count(app_ids[1]), 0u);
}

// ---------------------------------------------------------------------------
// Regression: drop_session releases remote locks + refcounted unsubscribe
// ---------------------------------------------------------------------------

TEST(FanoutDropSession, ReleasesRemoteLocksAndUnsubscribesAtZeroWatchers) {
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  workload::Scenario scenario(cfg);
  auto& host = scenario.add_server("host", 1);
  auto& peer = scenario.add_server("peer", 2);

  app::AppConfig app_cfg;
  app_cfg.name = "sim";
  app_cfg.acl = workload::make_acl({{"alice", Privilege::steer},
                                    {"bob", Privilege::read_write}});
  app_cfg.step_time = util::milliseconds(5);
  app_cfg.update_every = 0;
  app_cfg.interact_every = 0;
  auto& app =
      scenario.add_app<app::SyntheticApp>(host, app_cfg, app::SyntheticSpec{});
  // Level-1 auth is per-server (ACLs belong to local apps): the watchers
  // log in at the peer, so it needs an identity app knowing them.
  app::AppConfig id_cfg = app_cfg;
  id_cfg.name = "identity";
  auto& identity =
      scenario.add_app<app::SyntheticApp>(peer, id_cfg, app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app.registered() && identity.registered() &&
           host.peer_count() == 1 && peer.peer_count() == 1;
  }));
  const proto::AppId id = app.app_id();

  // Two watchers at the peer server: the remote subscription must survive
  // the first logout (refcount 2 -> 1) and end at the second (1 -> 0).
  auto& alice = scenario.add_client("alice", peer);
  auto& bob = scenario.add_client("bob", peer);
  ASSERT_TRUE(workload::sync_onboard_steerer(scenario.net(), alice, id));
  ASSERT_TRUE(workload::sync_login(scenario.net(), bob).value().ok);
  ASSERT_TRUE(workload::sync_select(scenario.net(), bob, id).value().ok);

  EXPECT_EQ(peer.subscriber_count(id), 2u);
  EXPECT_TRUE(peer.app_remote_subscribed(id));
  ASSERT_TRUE(host.lock_holder(id).has_value());
  EXPECT_EQ(host.lock_holder(id)->user, "alice");

  // Alice leaves: her lock interest at the remote host must be forgotten,
  // but bob still watches, so the peer stays subscribed.
  ASSERT_TRUE(sync_logout(scenario.net(), alice));
  ASSERT_TRUE(scenario.run_until([&] { return !host.lock_holder(id); }));
  EXPECT_EQ(peer.subscriber_count(id), 1u);
  EXPECT_TRUE(peer.app_remote_subscribed(id));

  // Bob leaves: watcher refcount hits zero -> unsubscribe at the host.
  ASSERT_TRUE(sync_logout(scenario.net(), bob));
  EXPECT_EQ(peer.subscriber_count(id), 0u);
  EXPECT_FALSE(peer.app_remote_subscribed(id));
  ASSERT_TRUE(scenario.run_until([&] {
    return host.subscriber_count(id) == 0;
  }));
  EXPECT_TRUE(host.subscriber_index_consistent());
  EXPECT_TRUE(peer.subscriber_index_consistent());
}

// ---------------------------------------------------------------------------
// Wire compatibility: shared-event encoding == struct encoding
// ---------------------------------------------------------------------------

TEST(FanoutWireCompat, SharedPollReplyEncodingIsByteIdentical) {
  proto::ClientEvent a;
  a.kind = proto::EventKind::chat;
  a.seq = 41;
  a.app = proto::AppId{3, 7};
  a.at = 123456789;
  a.user = "alice";
  a.text = "hello group";
  a.subgroup = "team";
  a.shared = true;
  proto::ClientEvent b;
  b.kind = proto::EventKind::response;
  b.seq = 42;
  b.app = proto::AppId{3, 7};
  b.user = "bob";
  b.request_id = 9;
  b.param = "dt";
  b.value = 0.25;
  b.metrics = {{"residual", 0.5}, {"iters", 12.0}};
  b.iteration = 99;

  proto::PollReply reply;
  reply.ok = true;
  reply.message = "ok";
  reply.events = {a, b};
  reply.backlog = 5;

  const std::vector<proto::SharedClientEvent> shared = {
      std::make_shared<const proto::ClientEvent>(a),
      std::make_shared<const proto::ClientEvent>(b)};
  const util::Bytes via_struct = proto::encode_body(reply);
  const util::Bytes via_shared =
      proto::encode_poll_reply_shared(true, "ok", shared, 5);
  ASSERT_EQ(via_struct, via_shared);

  const proto::PollReply decoded = proto::decode_poll_reply(via_shared);
  ASSERT_EQ(decoded.events.size(), 2u);
  EXPECT_EQ(decoded.events[0], a);
  EXPECT_EQ(decoded.events[1], b);
  EXPECT_EQ(decoded.backlog, 5u);
}

// ---------------------------------------------------------------------------
// Equivalence: the fan-out delivers what the collaboration rules say
// ---------------------------------------------------------------------------

// The oracle is written from the script's own setup, not from the server's
// should_deliver: a chat or a response reaches its originator, plus every
// member with collaboration on in the originator's sub-group when the
// originator shares (collaboration on).  Push or poll changes only how an
// event travels, never who gets it.
struct Member {
  std::string user;
  std::string subgroup;
  bool collab = true;
  bool push = false;
};

bool rules_deliver(const Member& to, const Member& from) {
  return to.user == from.user ||
         (from.collab && to.collab && to.subgroup == from.subgroup);
}

TEST(FanoutEquivalence, DeliveriesMatchTheCollaborationRules) {
  workload::Scenario scenario;
  auto& server = scenario.add_server("s", 1);

  // Mixed delivery classes: u1 gets push, u2 joins a sub-group, u3 opts out
  // of collaboration.
  const std::vector<Member> members = {{"u0", "", true, false},
                                       {"u1", "", true, true},
                                       {"u2", "team", true, false},
                                       {"u3", "", false, false}};
  app::AppConfig app_cfg;
  app_cfg.name = "sim";
  app_cfg.acl = workload::make_acl({{"u0", Privilege::steer},
                                    {"u1", Privilege::read_write},
                                    {"u2", Privilege::read_write},
                                    {"u3", Privilege::read_write}});
  app_cfg.step_time = util::milliseconds(2);
  app_cfg.update_every = 5;
  app_cfg.interact_every = 10;
  app_cfg.interaction_window = util::milliseconds(2);
  auto& app =
      scenario.add_app<app::SyntheticApp>(server, app_cfg, app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] { return app.registered(); }));
  const proto::AppId id = app.app_id();

  std::vector<core::DiscoverClient*> clients;
  std::uint64_t all_selected_seq = 0;
  for (const Member& m : members) {
    auto& c = scenario.add_client(m.user, server);
    ASSERT_TRUE(workload::sync_login(scenario.net(), c).value().ok);
    const auto sel = workload::sync_select(scenario.net(), c, id);
    ASSERT_TRUE(sel.ok() && sel.value().ok);
    all_selected_seq = sel.value().history_seq;
    if (m.push) {
      ASSERT_TRUE(workload::sync_group_op(scenario.net(), c, id,
                                          proto::GroupOp::enable_push, "")
                      .value()
                      .ok);
    }
    if (!m.subgroup.empty()) {
      ASSERT_TRUE(workload::sync_group_op(scenario.net(), c, id,
                                          proto::GroupOp::join_subgroup,
                                          m.subgroup)
                      .value()
                      .ok);
    }
    if (!m.collab) {
      ASSERT_TRUE(workload::sync_group_op(scenario.net(), c, id,
                                          proto::GroupOp::disable_collab, "")
                      .value()
                      .ok);
    }
    clients.push_back(&c);
  }

  // Posts from the whole group and from inside the sub-group, and one
  // shared command whose response the group may see.
  const std::vector<std::pair<std::size_t, std::string>> posts = {
      {0, "hi all"}, {2, "team only"}, {3, "solo"}};
  for (const auto& [from, text] : posts) {
    ASSERT_TRUE(workload::sync_collab_post(scenario.net(), *clients[from], id,
                                           proto::EventKind::chat, text)
                    .value()
                    .ok);
  }
  ASSERT_TRUE(workload::sync_command(scenario.net(), *clients[0], id,
                                     proto::CommandKind::query_status, "")
                  .value()
                  .accepted);
  scenario.run_for(util::milliseconds(500));
  for (int round = 0; round < 5; ++round) {
    for (auto* c : clients) (void)workload::sync_poll(scenario.net(), *c, id);
    scenario.run_for(util::milliseconds(50));
  }

  // Group-wide events (updates, system) published once everyone had
  // selected, up to the newest one every client has drained by now.
  const auto group_wide = [](const proto::ClientEvent& ev) {
    return ev.kind == proto::EventKind::update ||
           ev.kind == proto::EventKind::system;
  };
  std::uint64_t drained_by_all = ~std::uint64_t{0};
  for (auto* c : clients) {
    std::uint64_t newest = 0;
    for (const auto& ev : c->received_events()) {
      if (group_wide(ev)) newest = std::max(newest, ev.seq);
    }
    drained_by_all = std::min(drained_by_all, newest);
  }
  std::vector<std::uint64_t> shared_stream;
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::vector<std::string> chats;
    std::size_t responses = 0;
    std::vector<std::uint64_t> stream;
    for (const auto& ev : clients[i]->received_events()) {
      if (ev.kind == proto::EventKind::chat) chats.push_back(ev.text);
      if (ev.kind == proto::EventKind::response) {
        EXPECT_EQ(ev.user, "u0");
        ++responses;
      }
      if (group_wide(ev) && ev.seq > all_selected_seq &&
          ev.seq <= drained_by_all) {
        stream.push_back(ev.seq);
      }
    }
    std::vector<std::string> want_chats;
    for (const auto& [from, text] : posts) {
      if (rules_deliver(members[i], members[from])) want_chats.push_back(text);
    }
    EXPECT_EQ(chats, want_chats) << members[i].user;
    EXPECT_EQ(responses, rules_deliver(members[i], members[0]) ? 1u : 0u)
        << members[i].user;
    if (i == 0) {
      shared_stream = stream;
      EXPECT_FALSE(shared_stream.empty());
    } else {
      EXPECT_EQ(stream, shared_stream) << members[i].user;
    }
  }
  EXPECT_GT(clients[1]->pushed_events(), 0u);
  EXPECT_TRUE(server.subscriber_index_consistent());
}

}  // namespace
}  // namespace discover
