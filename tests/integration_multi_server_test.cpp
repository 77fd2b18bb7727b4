// Peer-to-peer middleware flows across servers/domains: trader discovery,
// cross-server authentication, remote application access, distributed
// locking, cross-server collaboration, push vs poll update modes, and
// server-departure handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "app/reservoir.h"
#include "app/synthetic.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;
using workload::make_acl;

class MultiServerTest : public ::testing::TestWithParam<core::RemoteUpdateMode> {
 protected:
  void SetUp() override {
    workload::ScenarioConfig cfg;
    cfg.server_template.remote_update_mode = GetParam();
    cfg.server_template.remote_poll_period = util::milliseconds(20);
    cfg.server_template.peer_refresh_period = util::milliseconds(100);
    scenario_ = std::make_unique<workload::Scenario>(cfg);

    rutgers_ = &scenario_->add_server("rutgers", 1);
    texas_ = &scenario_->add_server("texas", 2);

    app::AppConfig app_cfg;
    app_cfg.name = "reservoir";
    app_cfg.description = "waterflood reservoir at texas";
    app_cfg.acl = make_acl({{"alice", Privilege::steer},
                            {"bob", Privilege::read_only},
                            {"carol", Privilege::steer}});
    app_cfg.step_time = util::milliseconds(1);
    app_cfg.update_every = 5;
    app_cfg.interact_every = 10;
    app_cfg.interaction_window = util::milliseconds(2);
    app_ = &scenario_->add_app<app::ReservoirApp>(*texas_, app_cfg);
    ASSERT_TRUE(scenario_->run_until([&] { return app_->registered(); }));
    app_id_ = app_->app_id();

    // Alice needs a *local* identity at rutgers for level-1 auth (§5.2.2:
    // she must be on the user list of at least one local application).
    app::AppConfig local_cfg;
    local_cfg.name = "rutgers-local";
    local_cfg.acl = make_acl({{"alice", Privilege::read_only},
                              {"bob", Privilege::read_only},
                              {"carol", Privilege::read_only}});
    local_cfg.step_time = util::milliseconds(2);
    local_cfg.update_every = 50;
    local_cfg.interact_every = 100;
    local_app_ = &scenario_->add_app<app::SyntheticApp>(*rutgers_, local_cfg,
                                                        app::SyntheticSpec{});
    ASSERT_TRUE(scenario_->run_until([&] { return local_app_->registered(); }));

    // Let the trader-based peer discovery converge both ways.
    ASSERT_TRUE(scenario_->run_until([&] {
      return rutgers_->peer_count() == 1 && texas_->peer_count() == 1;
    }));
  }

  std::unique_ptr<workload::Scenario> scenario_;
  core::DiscoverServer* rutgers_ = nullptr;
  core::DiscoverServer* texas_ = nullptr;
  app::ReservoirApp* app_ = nullptr;
  app::SyntheticApp* local_app_ = nullptr;
  proto::AppId app_id_;
};

TEST_P(MultiServerTest, PeersDiscoverEachOtherThroughTrader) {
  EXPECT_EQ(rutgers_->peer_count(), 1u);
  EXPECT_EQ(texas_->peer_count(), 1u);
}

TEST_P(MultiServerTest, LoginAggregatesApplicationsAcrossServers) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  auto reply = workload::sync_login(scenario_->net(), alice);
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  ASSERT_TRUE(reply.value().ok);
  // Local synthetic app + remote reservoir.
  ASSERT_EQ(reply.value().applications.size(), 2u);
  bool saw_remote = false;
  for (const auto& info : reply.value().applications) {
    if (info.id == app_id_) {
      saw_remote = true;
      EXPECT_EQ(info.privilege, Privilege::steer);
      EXPECT_EQ(info.id.host, texas_->node().value());
    }
  }
  EXPECT_TRUE(saw_remote);
}

TEST_P(MultiServerTest, RemoteSelectResolvesThroughNamingService) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  ASSERT_TRUE(workload::sync_login(scenario_->net(), alice).value().ok);
  auto sel = workload::sync_select(scenario_->net(), alice, app_id_);
  ASSERT_TRUE(sel.ok());
  ASSERT_TRUE(sel.value().ok) << sel.value().message;
  EXPECT_EQ(sel.value().privilege, Privilege::steer);
  EXPECT_GE(sel.value().interface_spec.size(), 4u);
}

TEST_P(MultiServerTest, RemoteSteeringThroughCorbaProxy) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  ASSERT_TRUE(
      workload::sync_onboard_steerer(scenario_->net(), alice, app_id_));
  EXPECT_EQ(texas_->lock_holder(app_id_)->user, "alice");
  EXPECT_EQ(texas_->lock_holder(app_id_)->server, rutgers_->node().value());

  auto ack = workload::sync_command(
      scenario_->net(), alice, app_id_, proto::CommandKind::set_param,
      "injection_rate", proto::ParamValue{750.0});
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value().accepted) << ack.value().message;
  ASSERT_TRUE(scenario_->run_until(
      [&] { return std::abs(app_->injection_rate() - 750.0) < 1e-9; }));
}

TEST_P(MultiServerTest, RemoteUpdatesReachClientsOnOtherServer) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  ASSERT_TRUE(workload::sync_login(scenario_->net(), alice).value().ok);
  ASSERT_TRUE(workload::sync_select(scenario_->net(), alice, app_id_)
                  .value().ok);
  scenario_->run_for(util::milliseconds(300));
  (void)workload::sync_poll(scenario_->net(), alice, app_id_);
  scenario_->run_for(util::milliseconds(300));
  (void)workload::sync_poll(scenario_->net(), alice, app_id_);
  EXPECT_GT(alice.events_of_kind(proto::EventKind::update), 0u);
}

TEST_P(MultiServerTest, DistributedLockIsExclusiveAcrossServers) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  auto& carol = scenario_->add_client("carol", *texas_);
  ASSERT_TRUE(
      workload::sync_onboard_steerer(scenario_->net(), alice, app_id_));

  // Carol (at the host server) queues behind remote alice.
  ASSERT_TRUE(workload::sync_login(scenario_->net(), carol).value().ok);
  ASSERT_TRUE(workload::sync_select(scenario_->net(), carol, app_id_)
                  .value().ok);
  ASSERT_TRUE(workload::sync_command(scenario_->net(), carol, app_id_,
                                     proto::CommandKind::acquire_lock)
                  .value().accepted);
  scenario_->run_for(util::milliseconds(100));
  ASSERT_TRUE(texas_->lock_holder(app_id_).has_value());
  EXPECT_EQ(texas_->lock_holder(app_id_)->user, "alice");

  // Carol cannot steer while alice holds the lock.
  auto carol_ack = workload::sync_command(
      scenario_->net(), carol, app_id_, proto::CommandKind::set_param,
      "injection_rate", proto::ParamValue{100.0});
  ASSERT_TRUE(carol_ack.ok());
  EXPECT_FALSE(carol_ack.value().accepted);

  // Release at alice promotes carol (FIFO).
  ASSERT_TRUE(workload::sync_command(scenario_->net(), alice, app_id_,
                                     proto::CommandKind::release_lock)
                  .value().accepted);
  ASSERT_TRUE(scenario_->run_until([&] {
    const auto h = texas_->lock_holder(app_id_);
    return h.has_value() && h->user == "carol";
  }));
}

TEST_P(MultiServerTest, CollaborationSpansServers) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  auto& carol = scenario_->add_client("carol", *texas_);
  for (auto* c : {&alice, &carol}) {
    ASSERT_TRUE(workload::sync_login(scenario_->net(), *c).value().ok);
    ASSERT_TRUE(workload::sync_select(scenario_->net(), *c, app_id_)
                    .value().ok);
  }
  // Chat posted at rutgers must reach carol at texas via the host.
  ASSERT_TRUE(workload::sync_collab_post(scenario_->net(), alice, app_id_,
                                         proto::EventKind::chat,
                                         "hello from rutgers")
                  .value().ok);
  scenario_->run_for(util::milliseconds(300));
  (void)workload::sync_poll(scenario_->net(), carol, app_id_);
  bool carol_saw = false;
  for (const auto& ev : carol.received_events()) {
    if (ev.kind == proto::EventKind::chat &&
        ev.text == "hello from rutgers") {
      carol_saw = true;
    }
  }
  EXPECT_TRUE(carol_saw);

  // And the echo flows back to alice as well (she is in the group too).
  scenario_->run_for(util::milliseconds(300));
  (void)workload::sync_poll(scenario_->net(), alice, app_id_);
  EXPECT_GT(alice.events_of_kind(proto::EventKind::chat), 0u);
}

TEST_P(MultiServerTest, ServerDownRemovesItsApplications) {
  auto& alice = scenario_->add_client("alice", *rutgers_);
  ASSERT_TRUE(workload::sync_login(scenario_->net(), alice).value().ok);
  ASSERT_TRUE(workload::sync_select(scenario_->net(), alice, app_id_)
                  .value().ok);
  texas_->shutdown();
  ASSERT_TRUE(scenario_->run_until(
      [&] { return rutgers_->peer_count() == 0; },
      util::seconds(5)));
  // Alice's next login only sees the local app.
  auto reply = workload::sync_login(scenario_->net(), alice);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().applications.size(), 1u);
}

/// The nodes of every DISCOVER offer the trader lists, in offer order.
std::vector<std::uint32_t> listed_servers(workload::Scenario& scenario) {
  orb::TraderClient trader(scenario.registry().orb(),
                           scenario.registry().trader_ref());
  std::optional<std::vector<std::uint32_t>> nodes;
  trader.query("DISCOVER", "",
               [&](util::Result<std::vector<orb::ServiceOffer>> r) {
                 nodes.emplace();
                 if (!r.ok()) return;
                 for (const auto& offer : r.value()) {
                   nodes->push_back(offer.ref.node);
                 }
               });
  EXPECT_TRUE(scenario.run_until([&] { return nodes.has_value(); }));
  return nodes.value_or(std::vector<std::uint32_t>{});
}

TEST_P(MultiServerTest, OneTraderOfferPerServerAndNoneAfterShutdown) {
  // Each server exports once, so the trader lists each once — and the one
  // offer a shutdown withdraws is the server's only one.
  std::vector<std::uint32_t> listed = listed_servers(*scenario_);
  std::sort(listed.begin(), listed.end());
  EXPECT_EQ(listed, (std::vector<std::uint32_t>{rutgers_->node().value(),
                                                 texas_->node().value()}));

  texas_->shutdown();
  ASSERT_TRUE(scenario_->run_until(
      [&] { return rutgers_->peer_count() == 0; }, util::seconds(5)));
  EXPECT_EQ(listed_servers(*scenario_),
            std::vector<std::uint32_t>{rutgers_->node().value()});
  // No refresh round finds the departed server again.
  for (int round = 0; round < 10; ++round) {
    scenario_->run_for(util::milliseconds(100));
    ASSERT_EQ(rutgers_->peer_count(), 0u) << "refresh round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UpdateModes, MultiServerTest,
    ::testing::Values(core::RemoteUpdateMode::push,
                      core::RemoteUpdateMode::poll),
    [](const ::testing::TestParamInfo<core::RemoteUpdateMode>& info) {
      return info.param == core::RemoteUpdateMode::push ? "push" : "poll";
    });

TEST(ServerDeparture, HostStopsPushingToADepartedSubscriber) {
  // The subscriber says goodbye and then its process dies.  The host must
  // forget it whole: no more events encoded or queued for it, and no batch
  // left to wait out the ORB timeout.
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  workload::Scenario scenario(cfg);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  app::AppConfig feed_cfg;
  feed_cfg.name = "feed";
  feed_cfg.acl = make_acl({{"alice", Privilege::read_only}});
  feed_cfg.step_time = util::milliseconds(1);
  feed_cfg.update_every = 10;  // 100 updates/s
  feed_cfg.interact_every = 0;
  auto& feed = scenario.add_app<app::SyntheticApp>(host, feed_cfg,
                                                   app::SyntheticSpec{});
  app::AppConfig local_cfg = feed_cfg;
  local_cfg.name = "near-local";
  local_cfg.update_every = 0;
  scenario.add_app<app::SyntheticApp>(near, local_cfg, app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return feed.registered() && near.peer_count() == 1 &&
           host.peer_count() == 1;
  }));

  auto& alice = scenario.add_client("alice", near);
  ASSERT_TRUE(workload::sync_login(scenario.net(), alice).value().ok);
  ASSERT_TRUE(
      workload::sync_select(scenario.net(), alice, feed.app_id()).value().ok);
  ASSERT_TRUE(scenario.run_until(
      [&] { return host.stats().peer_events_out > 0; }));

  near.shutdown();
  scenario.run_for(util::milliseconds(500));  // server_down lands
  scenario.net().crash_node(near.node());
  const std::uint64_t pushed = host.stats().peer_events_out;
  scenario.run_for(util::seconds(30));
  EXPECT_EQ(host.stats().peer_events_out, pushed);
  EXPECT_EQ(host.outbox_depth(near.node().value()), 0u);
  EXPECT_EQ(host.peer_count(), 0u);
  EXPECT_FALSE(host.peer_suspect(near.node()));
}

}  // namespace
}  // namespace discover
