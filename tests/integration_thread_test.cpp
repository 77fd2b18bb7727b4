// End-to-end smoke on the real-time ThreadNetwork backend: the same
// middleware code that runs in simulation must behave with one OS thread
// per node and wall-clock timers.
#include <gtest/gtest.h>

#include <future>

#include "app/heat2d.h"
#include "workload/sync_ops.h"
#include "workload/thread_scenario.h"

namespace discover {
namespace {

using security::Privilege;
using workload::make_acl;

TEST(ThreadIntegrationTest, FullSteeringFlow) {
  workload::ThreadScenario scenario;
  auto& server = scenario.add_server("rt-server");

  app::AppConfig cfg;
  cfg.name = "rt-heat";
  cfg.acl = make_acl({{"alice", Privilege::steer}});
  cfg.step_time = util::milliseconds(1);
  cfg.update_every = 5;
  cfg.interact_every = 10;
  cfg.interaction_window = util::milliseconds(1);
  auto& heat = scenario.add_app<app::Heat2DApp>(server, cfg, 16);

  core::ClientConfig ccfg;
  ccfg.poll_period = util::milliseconds(10);
  auto& alice = scenario.add_client("alice", server, ccfg);

  scenario.start();
  ASSERT_TRUE(workload::wait_for(scenario.net(),
                                 [&] { return heat.registered(); },
                                 util::seconds(10)));

  auto login = workload::sync_login(scenario.net(), alice);
  ASSERT_TRUE(login.ok()) << login.error().message;
  ASSERT_TRUE(login.value().ok);
  ASSERT_EQ(login.value().applications.size(), 1u);
  const proto::AppId app_id = login.value().applications[0].id;

  ASSERT_TRUE(workload::sync_select(scenario.net(), alice, app_id)
                  .value().ok);
  ASSERT_TRUE(
      workload::sync_onboard_steerer(scenario.net(), alice, app_id));

  auto ack = workload::sync_command(scenario.net(), alice, app_id,
                                    proto::CommandKind::set_param, "alpha",
                                    proto::ParamValue{0.21});
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value().accepted);
  // Read alpha on the app's own worker (actor model): the command is
  // applied there, so a cross-thread read of the raw member would race.
  const auto read_alpha = [&] {
    std::promise<double> p;
    scenario.net().post(heat.node(), [&] { p.set_value(heat.alpha()); });
    return p.get_future().get();
  };
  ASSERT_TRUE(workload::wait_for(
      scenario.net(), [&] { return std::abs(read_alpha() - 0.21) < 1e-12; },
      util::seconds(10)));

  // Updates flow under real time as well.
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        (void)workload::sync_poll(scenario.net(), alice, app_id,
                                  util::seconds(5));
        return alice.events_of_kind(proto::EventKind::update) > 0;
      },
      util::seconds(10)));

  scenario.stop();
}

TEST(ThreadIntegrationTest, ManyAppsRegisterConcurrently) {
  workload::ThreadScenario scenario;
  auto& server = scenario.add_server("rt-many");
  std::vector<app::Heat2DApp*> apps;
  for (int i = 0; i < 12; ++i) {
    app::AppConfig cfg;
    cfg.name = "app" + std::to_string(i);
    cfg.acl = make_acl({{"alice", Privilege::steer}});
    cfg.step_time = util::milliseconds(2);
    cfg.update_every = 10;
    cfg.interact_every = 0;
    apps.push_back(&scenario.add_app<app::Heat2DApp>(server, cfg, 8));
  }
  scenario.start();
  ASSERT_TRUE(workload::wait_for(
      scenario.net(),
      [&] {
        for (const auto* a : apps) {
          if (!a->registered()) return false;
        }
        return true;
      },
      util::seconds(15)));
  EXPECT_EQ(server.local_app_count(), 12u);
  // Ids are unique and host-scoped.
  std::set<std::string> ids;
  for (const auto* a : apps) ids.insert(a->app_id().to_string());
  EXPECT_EQ(ids.size(), 12u);
  scenario.stop();
}

}  // namespace
}  // namespace discover
