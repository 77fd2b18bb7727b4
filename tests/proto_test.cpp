#include <gtest/gtest.h>

#include "proto/messages.h"
#include "util/rng.h"

namespace discover::proto {
namespace {

TEST(AppIdTest, StringRoundTripAndHostExtraction) {
  AppId id;
  id.host = 17;
  id.local = 3;
  EXPECT_EQ(id.to_string(), "17:3");
  EXPECT_EQ(AppId::parse("17:3"), id);
  // §5.2.1: "the server's IP address can be extracted from this application
  // identifier".
  EXPECT_EQ(id.host_server(), net::NodeId{17});
  EXPECT_EQ(AppId::parse("garbage"), AppId{});
}

TEST(ParamValueTest, AllAlternativesRoundTrip) {
  for (const ParamValue& v :
       {ParamValue{true}, ParamValue{std::int64_t{-9}}, ParamValue{2.75},
        ParamValue{std::string("text")}}) {
    wire::Encoder e;
    encode(e, v);
    wire::Decoder d(e.data());
    EXPECT_EQ(decode_param_value(d), v);
  }
  EXPECT_EQ(param_value_to_string(ParamValue{true}), "true");
  EXPECT_EQ(param_value_to_string(ParamValue{std::int64_t{4}}), "4");
  EXPECT_EQ(param_value_to_string(ParamValue{std::string("x")}), "x");
}

TEST(RequiredPrivilegeTest, MapsCommandsSensibly) {
  EXPECT_EQ(required_privilege(CommandKind::get_param),
            security::Privilege::read_only);
  EXPECT_EQ(required_privilege(CommandKind::query_status),
            security::Privilege::read_only);
  EXPECT_EQ(required_privilege(CommandKind::set_param),
            security::Privilege::read_write);
  EXPECT_EQ(required_privilege(CommandKind::acquire_lock),
            security::Privilege::read_write);
  EXPECT_EQ(required_privilege(CommandKind::stop_app),
            security::Privilege::steer);
  EXPECT_EQ(required_privilege(CommandKind::checkpoint),
            security::Privilege::steer);
}

ClientEvent random_event(util::Rng& rng) {
  ClientEvent ev;
  ev.kind = static_cast<EventKind>(rng.below(7));
  ev.seq = rng.next();
  ev.app.host = static_cast<std::uint32_t>(rng.below(100));
  ev.app.local = static_cast<std::uint32_t>(rng.below(100));
  ev.at = static_cast<util::TimePoint>(rng.below(1'000'000'000));
  ev.user = "user" + std::to_string(rng.below(10));
  ev.text = std::string(rng.below(40), 'x');
  ev.request_id = rng.next();
  ev.param = "param" + std::to_string(rng.below(5));
  ev.value = ParamValue{rng.uniform() * 100};
  for (std::uint64_t i = 0; i < rng.below(5); ++i) {
    ev.metrics["m" + std::to_string(i)] = rng.uniform();
  }
  ev.iteration = rng.next();
  ev.subgroup = rng.chance(0.5) ? "" : "sub";
  ev.shared = rng.chance(0.8);
  return ev;
}

class EventFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventFuzzTest, ClientEventRoundTrips) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const ClientEvent ev = random_event(rng);
    wire::Encoder e;
    encode(e, ev);
    wire::Decoder d(e.data());
    EXPECT_EQ(decode_client_event(d), ev);
    d.finish();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventFuzzTest,
                         ::testing::Values(7, 11, 13, 17, 19));

TEST(FramedTest, EveryVariantRoundTrips) {
  AppRegister reg;
  reg.app_name = "heat";
  reg.description = "desc";
  reg.auth_key = 7;
  reg.params = {ParamSpec{"alpha", ParamValue{0.1}, 0, 1, true, "1"}};
  reg.acl = {{"alice", security::Privilege::steer, 5}};
  reg.update_period = util::milliseconds(5);

  AppRegisterAck ack;
  ack.accepted = true;
  ack.message = "ok";
  ack.app_id = {1, 2};

  AppUpdate update;
  update.app_id = {1, 2};
  update.iteration = 10;
  update.sim_time = 1.5;
  update.phase = AppPhase::interacting;
  update.metrics = {{"t", 3.0}};

  AppPhaseNotice phase;
  phase.app_id = {1, 2};
  phase.phase = AppPhase::finished;

  AppDeregister dereg;
  dereg.app_id = {1, 2};
  dereg.reason = "done";

  AppCommand cmd;
  cmd.app_id = {1, 2};
  cmd.request_id = 42;
  cmd.user = "alice";
  cmd.kind = CommandKind::set_param;
  cmd.param = "alpha";
  cmd.value = ParamValue{0.2};

  AppResponse resp;
  resp.app_id = {1, 2};
  resp.request_id = 42;
  resp.ok = true;
  resp.message = "done";
  resp.param = "alpha";
  resp.value = ParamValue{0.2};
  resp.params = reg.params;

  AppError err;
  err.app_id = {1, 2};
  err.request_id = 9;
  err.message = "boom";

  SystemEvent sys;
  sys.kind = SystemEventKind::app_registered;
  sys.origin_server = 3;
  sys.app = {1, 2};
  sys.text = "hello";

  const std::vector<FramedMessage> all{reg, ack, update, phase, dereg,
                                       cmd, resp, err, sys};
  for (const auto& msg : all) {
    auto decoded = decode_framed(encode_framed(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().index(), msg.index());
  }

  // Spot-check deep equality on a couple of variants.
  const auto reg2 =
      std::get<AppRegister>(decode_framed(encode_framed(reg)).value());
  EXPECT_EQ(reg2.app_name, reg.app_name);
  EXPECT_EQ(reg2.params, reg.params);
  EXPECT_EQ(reg2.acl, reg.acl);
  const auto resp2 =
      std::get<AppResponse>(decode_framed(encode_framed(resp)).value());
  EXPECT_EQ(resp2.value, resp.value);
  EXPECT_EQ(resp2.params, resp.params);
}

TEST(FramedTest, MalformedFramesRejectedGracefully) {
  EXPECT_FALSE(decode_framed({}).ok());
  EXPECT_FALSE(decode_framed({0xFF, 0x01}).ok());
  util::Bytes truncated = encode_framed(FramedMessage{AppUpdate{}});
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(decode_framed(truncated).ok());
  // Trailing garbage also rejected.
  util::Bytes padded = encode_framed(FramedMessage{AppPhaseNotice{}});
  padded.push_back(0);
  padded.push_back(1);
  padded.push_back(2);
  EXPECT_FALSE(decode_framed(padded).ok());
}

TEST(HttpBodyTest, LoginRoundTrip) {
  LoginRequest req;
  req.user = "alice";
  req.password_digest = 99;
  const auto req2 = decode_login_request(encode_body(req));
  EXPECT_EQ(req2.user, "alice");
  EXPECT_EQ(req2.password_digest, 99u);

  LoginReply reply;
  reply.ok = true;
  reply.message = "hi";
  reply.token.user = "alice";
  reply.token.issuer = 4;
  reply.token.mac = 123;
  reply.applications = {AppInfo{{1, 2}, "app", "d",
                                security::Privilege::steer,
                                AppPhase::computing, 7, "bob@4", 2}};
  const auto reply2 = decode_login_reply(encode_body(reply));
  EXPECT_EQ(reply2.token, reply.token);
  EXPECT_EQ(reply2.applications, reply.applications);
}

TEST(HttpBodyTest, CommandAndPollRoundTrip) {
  CommandRequest cmd;
  cmd.token.user = "u";
  cmd.app_id = {5, 6};
  cmd.request_id = 8;
  cmd.kind = CommandKind::acquire_lock;
  cmd.param = "p";
  cmd.value = ParamValue{std::int64_t{3}};
  const auto cmd2 = decode_command_request(encode_body(cmd));
  EXPECT_EQ(cmd2.kind, CommandKind::acquire_lock);
  EXPECT_EQ(cmd2.value, cmd.value);

  PollReply poll;
  poll.ok = true;
  poll.backlog = 12;
  ClientEvent ev;
  ev.kind = EventKind::chat;
  ev.text = "hello";
  poll.events.push_back(ev);
  const auto poll2 = decode_poll_reply(encode_body(poll));
  EXPECT_EQ(poll2.backlog, 12u);
  ASSERT_EQ(poll2.events.size(), 1u);
  EXPECT_EQ(poll2.events[0].text, "hello");
}

TEST(HttpBodyTest, GroupAndHistoryRoundTrip) {
  GroupRequest g;
  g.app_id = {1, 1};
  g.op = GroupOp::disable_collab;
  g.subgroup = "team-a";
  const auto g2 = decode_group_request(encode_body(g));
  EXPECT_EQ(g2.op, GroupOp::disable_collab);
  EXPECT_EQ(g2.subgroup, "team-a");

  HistoryRequest h;
  h.app_id = {1, 1};
  h.from_seq = 5;
  h.max_events = 10;
  const auto h2 = decode_history_request(encode_body(h));
  EXPECT_EQ(h2.from_seq, 5u);
  EXPECT_EQ(h2.max_events, 10u);
}

TEST(NamesTest, EnumNamesAreStable) {
  EXPECT_STREQ(phase_name(AppPhase::interacting), "interacting");
  EXPECT_STREQ(command_name(CommandKind::acquire_lock), "acquire_lock");
  EXPECT_STREQ(event_kind_name(EventKind::lock_notice), "lock_notice");
}

}  // namespace
}  // namespace discover::proto
