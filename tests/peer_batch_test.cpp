// Peer outbox & directory deltas (DESIGN.md "Peer outbox & directory
// deltas"):
//  * wire compatibility — the batch PeerLink::take_batch() splices from
//    pre-encoded standalone events is byte-identical to
//    proto::encode_event_frames;
//  * hardening — absurd wire counts throw DecodeError instead of
//    pre-reserving unbounded memory;
//  * equivalence — a randomized collab round delivers the same per-client
//    chat and update streams whether peer_flush_delay is 0 (legacy
//    singular forward_event calls) or batching is on;
//  * A/B — peer_flush_delay=0 emits zero batches and its runs are
//    byte-identical per seed (the legacy wire path, kept verbatim);
//  * backpressure — a suspect peer's outbox holds events bounded by
//    PeerLink::kOutboxCap, sheds periodic updates first, and drains on heal;
//  * directory — one full snapshot at first contact, deltas afterwards;
//    membership and phase changes propagate without new fulls, even when
//    one app's changes between two refreshes outnumber the change log; an
//    epoch bump forces a full resync.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/synthetic.h"
#include "core/peer_link.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;
using workload::make_acl;

proto::ClientEvent sample_event(std::uint64_t seq, proto::EventKind kind,
                                const std::string& user,
                                const std::string& text) {
  proto::ClientEvent ev;
  ev.kind = kind;
  ev.seq = seq;
  ev.app = proto::AppId{2, 1};
  ev.at = 1000 + seq;
  ev.user = user;
  ev.text = text;
  ev.iteration = seq * 3;
  ev.metrics = {{"residual", 0.5 / static_cast<double>(seq + 1)}};
  return ev;
}

// ---------------------------------------------------------------------------
// Wire compatibility: splice fast path == struct reference encoding
// ---------------------------------------------------------------------------

TEST(PeerBatchWireCompat, SpliceEncodingMatchesStructEncoding) {
  std::vector<proto::EventFrame> frames;
  proto::EventFrame push;
  push.kind = proto::EventFrameKind::push;
  push.app = proto::AppId{2, 1};
  push.seq_first = 7;
  push.seq_last = 9;
  push.events = {sample_event(7, proto::EventKind::update, "", ""),
                 sample_event(8, proto::EventKind::chat, "alice", "hi all"),
                 sample_event(9, proto::EventKind::lock_notice, "alice",
                              "granted")};
  proto::EventFrame relay;
  relay.kind = proto::EventFrameKind::collab_relay;
  relay.app = proto::AppId{2, 3};
  relay.events = {sample_event(0, proto::EventKind::whiteboard, "bob",
                               "circle at (3,4)")};
  frames = {push, relay};

  wire::Encoder reference;
  proto::encode_event_frames(reference, frames);

  // The outbox path: each event CDR-encoded standalone exactly once, queued
  // on a peer link, and spliced into the batch at 8-byte boundaries by
  // take_batch() — the same call the server's flush makes.
  core::ServerStats stats;
  core::PeerLink link(2, stats);
  for (const auto& f : frames) {
    for (const auto& ev : f.events) {
      const std::uint64_t seq =
          f.kind == proto::EventFrameKind::push ? ev.seq : 0;
      (void)link.append({f.kind, f.app, seq, ev.kind,
                         core::encode_event_standalone(ev), {}},
                        orb::ObjectRef{});
    }
  }
  auto batch = link.take_batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->items.size(), 4u);

  const util::Bytes a = std::move(reference).take();
  const util::Bytes b = std::move(batch->args).take();
  ASSERT_EQ(a, b);

  wire::Decoder d(a);
  const auto decoded = proto::decode_event_frames(d);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(static_cast<int>(decoded[0].kind),
            static_cast<int>(proto::EventFrameKind::push));
  EXPECT_EQ(decoded[0].seq_first, 7u);
  EXPECT_EQ(decoded[0].seq_last, 9u);
  ASSERT_EQ(decoded[0].events.size(), 3u);
  EXPECT_EQ(decoded[0].events[0], push.events[0]);
  EXPECT_EQ(decoded[0].events[1], push.events[1]);
  EXPECT_EQ(decoded[0].events[2], push.events[2]);
  ASSERT_EQ(decoded[1].events.size(), 1u);
  EXPECT_EQ(decoded[1].events[0], relay.events[0]);
}

// ---------------------------------------------------------------------------
// Hardening: hostile counts must throw, not reserve
// ---------------------------------------------------------------------------

TEST(PeerBatchDecodeCaps, AbsurdFrameCountThrows) {
  wire::Encoder e;
  e.u32(0xFFFFFFFFu);  // claims 4 billion frames, carries none
  const util::Bytes bytes = std::move(e).take();
  wire::Decoder d(bytes);
  EXPECT_THROW((void)proto::decode_event_frames(d), wire::DecodeError);
}

TEST(PeerBatchDecodeCaps, AbsurdEventCountInsideFrameThrows) {
  wire::Encoder e;
  e.u32(1);  // one frame ...
  e.u8(static_cast<std::uint8_t>(proto::EventFrameKind::push));
  proto::encode(e, proto::AppId{2, 1});
  e.u64(1);
  e.u64(2);
  e.u32(0x7FFFFFFFu);  // ... claiming 2 billion events
  const util::Bytes bytes = std::move(e).take();
  wire::Decoder d(bytes);
  EXPECT_THROW((void)proto::decode_event_frames(d), wire::DecodeError);
}

TEST(PeerBatchDecodeCaps, TruncatedDirectoryUpdateThrows) {
  wire::Encoder e;
  e.u64(42);  // epoch only; version/flag/sequences missing
  const util::Bytes bytes = std::move(e).take();
  wire::Decoder d(bytes);
  EXPECT_THROW((void)proto::decode_directory_update(d), wire::DecodeError);
}

// ---------------------------------------------------------------------------
// Equivalence: batched vs peer_flush_delay=0, randomized collab round
// ---------------------------------------------------------------------------

struct RoundResult {
  std::vector<std::vector<proto::ClientEvent>> per_client;
  core::ServerStats host_stats;
  core::ServerStats near_stats;
  std::uint64_t host_invocations = 0;
  std::string trace;
};

app::AppConfig watched_app(const std::string& name) {
  app::AppConfig cfg;
  cfg.name = name;
  cfg.acl = make_acl({{"u0", Privilege::steer},
                      {"u1", Privilege::read_write},
                      {"u2", Privilege::read_write}});
  cfg.step_time = util::milliseconds(5);
  cfg.update_every = 20;  // an update every 100 ms of sim time
  cfg.interact_every = 0;
  return cfg;
}

RoundResult run_collab_round(util::Duration flush_delay, std::uint64_t seed,
                             bool trace = false) {
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  cfg.server_template.peer_flush_delay = flush_delay;
  workload::Scenario scenario(cfg);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  auto& app = scenario.add_app<app::SyntheticApp>(host, watched_app("shared"),
                                                  app::SyntheticSpec{});
  scenario.add_app<app::SyntheticApp>(near, watched_app("identity"),
                                      app::SyntheticSpec{});
  EXPECT_TRUE(scenario.run_until([&] {
    return app.registered() && near.peer_count() == 1 &&
           host.peer_count() == 1;
  }));
  if (trace) scenario.net().set_trace_enabled(true);
  const proto::AppId id = app.app_id();

  std::vector<core::DiscoverClient*> clients;
  for (int i = 0; i < 3; ++i) {
    auto& c = scenario.add_client("u" + std::to_string(i), near);
    EXPECT_TRUE(workload::sync_login(scenario.net(), c).value().ok);
    EXPECT_TRUE(workload::sync_select(scenario.net(), c, id).value().ok);
    clients.push_back(&c);
  }

  // A randomized interleaving of collab posts, steering commands and idle
  // gaps — the same seed drives the same op sequence in both A/B arms.
  util::Rng rng(seed);
  int chats = 0;
  for (int i = 0; i < 40; ++i) {
    const double dice = rng.uniform();
    core::DiscoverClient& c = *clients[rng.below(clients.size())];
    if (dice < 0.5) {
      (void)workload::sync_collab_post(scenario.net(), c, id,
                                       proto::EventKind::chat,
                                       "msg " + std::to_string(chats++));
    } else if (dice < 0.7) {
      (void)workload::sync_command(scenario.net(), c, id,
                                   proto::CommandKind::query_status, "");
    } else {
      scenario.run_for(util::milliseconds(rng.below(120)));
    }
  }

  // Quiesce: let every outbox flush and every client drain its stream.
  scenario.run_for(util::seconds(2));
  for (int round = 0; round < 5; ++round) {
    for (auto* c : clients) (void)workload::sync_poll(scenario.net(), *c, id);
    scenario.run_for(util::milliseconds(100));
  }

  RoundResult out;
  for (auto* c : clients) out.per_client.push_back(c->received_events());
  out.host_stats = host.stats();
  out.near_stats = near.stats();
  out.host_invocations = host.orb().invocations();
  if (trace) out.trace = scenario.net().trace();
  return out;
}

/// Timing-independent projection: the (user, text) chat stream in arrival
/// order, and the update iterations in arrival order.
std::pair<std::vector<std::pair<std::string, std::string>>,
          std::vector<std::uint64_t>>
project(const std::vector<proto::ClientEvent>& events) {
  std::vector<std::pair<std::string, std::string>> chats;
  std::vector<std::uint64_t> updates;
  for (const auto& ev : events) {
    if (ev.kind == proto::EventKind::chat) chats.emplace_back(ev.user, ev.text);
    if (ev.kind == proto::EventKind::update) updates.push_back(ev.iteration);
  }
  return {std::move(chats), std::move(updates)};
}

TEST(PeerBatchEquivalence, BatchedDeliversSameStreamsAsLegacy) {
  const RoundResult batched =
      run_collab_round(util::milliseconds(5), 0xBA7C4ULL);
  const RoundResult legacy = run_collab_round(0, 0xBA7C4ULL);
  ASSERT_EQ(batched.per_client.size(), legacy.per_client.size());
  for (std::size_t i = 0; i < batched.per_client.size(); ++i) {
    const auto [chats_b, updates_b] = project(batched.per_client[i]);
    const auto [chats_l, updates_l] = project(legacy.per_client[i]);
    // Chats are posted after every subscription is up, so the streams must
    // match exactly: same posts, same order, no duplicates, no losses.
    EXPECT_EQ(chats_b, chats_l) << "client " << i << " chat divergence";
    EXPECT_FALSE(chats_b.empty());
    // A late subscriber's first update is timing-dependent (its baseline is
    // taken when the select lands), so compare updates over the common
    // window; within it the streams must be identical and gap-free.
    EXPECT_TRUE(std::is_sorted(updates_b.begin(), updates_b.end()));
    EXPECT_TRUE(std::is_sorted(updates_l.begin(), updates_l.end()));
    std::vector<std::uint64_t> wb = updates_b;
    std::vector<std::uint64_t> wl = updates_l;
    ASSERT_FALSE(wb.empty());
    ASSERT_FALSE(wl.empty());
    const std::uint64_t start = std::max(wb.front(), wl.front());
    auto trim = [&](std::vector<std::uint64_t>& v) {
      v.erase(v.begin(),
              std::find_if(v.begin(), v.end(),
                           [&](std::uint64_t x) { return x >= start; }));
    };
    trim(wb);
    trim(wl);
    const std::size_t n = std::min(wb.size(), wl.size());
    wb.resize(n);
    wl.resize(n);
    EXPECT_GT(n, 10u) << "client " << i << " common window too small";
    EXPECT_EQ(wb, wl) << "client " << i << " update divergence";
  }

  // The batched arm coalesced (fewer wire calls than events), the legacy
  // arm never batched, and both pushed the same number of events.
  EXPECT_GT(batched.host_stats.peer_batches_out, 0u);
  EXPECT_LT(batched.host_stats.peer_batches_out,
            batched.host_stats.peer_events_out);
  EXPECT_GT(batched.host_stats.flushes_by_timer, 0u);
  EXPECT_EQ(legacy.host_stats.peer_batches_out, 0u);
  EXPECT_GT(legacy.host_stats.peer_events_out, 0u);
}

TEST(PeerBatchLegacyDelay0, RunsAreByteIdenticalAndUnbatched) {
  const RoundResult a = run_collab_round(0, 0xABCDEULL, /*trace=*/true);
  const RoundResult b = run_collab_round(0, 0xABCDEULL, /*trace=*/true);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.host_stats.peer_batches_out, 0u);
  EXPECT_EQ(a.host_stats.flushes_by_timer, 0u);
  EXPECT_EQ(a.host_stats.flushes_by_count, 0u);
  EXPECT_EQ(a.host_stats.flushes_by_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Backpressure: suspect peer -> bounded outbox, update shedding, heal drain
// ---------------------------------------------------------------------------

TEST(PeerBatchBackpressure, SuspectPeerOutboxShedsUpdatesAndDrainsOnHeal) {
  // Only the host runs the aggressive suspicion config; the subscriber
  // keeps suspicion off so it does not withdraw the remote app (and its
  // subscription with it) during the partition — the point here is the
  // host-side outbox, not departure handling.
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  cfg.server_template.peer_suspect_threshold = 0;
  workload::Scenario scenario(cfg);
  auto& near = scenario.add_server("near", 1);
  core::ServerConfig host_cfg = cfg.server_template;
  host_cfg.orb_call_timeout = util::milliseconds(200);
  host_cfg.peer_suspect_threshold = 1;
  auto& host = scenario.add_server("host", 2, host_cfg);
  app::AppConfig chatty = watched_app("shared");
  // An update every 1 ms step: about a second of partition fills the
  // outbox past PeerLink::kOutboxCap.
  chatty.step_time = util::milliseconds(1);
  chatty.update_every = 1;
  auto& app = scenario.add_app<app::SyntheticApp>(host, chatty,
                                                  app::SyntheticSpec{});
  scenario.add_app<app::SyntheticApp>(near, watched_app("identity"),
                                      app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app.registered() && near.peer_count() == 1 &&
           host.peer_count() == 1;
  }));
  const proto::AppId id = app.app_id();

  auto& alice = scenario.add_client("u0", near);
  ASSERT_TRUE(workload::sync_login(scenario.net(), alice).value().ok);
  ASSERT_TRUE(workload::sync_select(scenario.net(), alice, id).value().ok);
  ASSERT_TRUE(scenario.run_until([&] {
    return host.stats().peer_events_out > 0;
  }));

  // Cut the WAN: the host's next flush fails, near goes suspect, and the
  // outbox holds what the app keeps publishing — bounded by the cap, with
  // periodic updates shed first.
  scenario.partition(near, host);
  ASSERT_TRUE(scenario.run_until(
      [&] { return host.peer_suspect(near.node()); }, util::seconds(30)));
  ASSERT_TRUE(scenario.run_until(
      [&] { return host.stats().outbox_dropped > 0; }, util::seconds(30)));
  EXPECT_LE(host.outbox_depth(near.node().value()), core::PeerLink::kOutboxCap);

  // Heal: the probe clears suspicion and the held tail drains; the stream
  // at the watcher resumes with fresh iterations.
  const auto latest_before_heal = [&] {
    std::uint64_t latest = 0;
    for (const auto& ev : alice.received_events()) {
      if (ev.kind == proto::EventKind::update) {
        latest = std::max(latest, ev.iteration);
      }
    }
    return latest;
  }();
  scenario.heal(near, host);
  ASSERT_TRUE(scenario.run_until(
      [&] { return !host.peer_suspect(near.node()); }, util::seconds(30)));
  ASSERT_TRUE(workload::wait_for(scenario.net(), [&] {
    (void)workload::sync_poll(scenario.net(), alice, id);
    const auto evs = alice.received_events();
    return std::any_of(evs.begin(), evs.end(), [&](const auto& ev) {
      return ev.kind == proto::EventKind::update &&
             ev.iteration > latest_before_heal;
    });
  }));
}

// ---------------------------------------------------------------------------
// Versioned directory: full once, deltas after, epoch bump resyncs
// ---------------------------------------------------------------------------

bool directory_has(core::DiscoverServer& at, core::DiscoverServer& of,
                   const std::string& app_name) {
  const auto dir = at.peer_directory(of.node().value());
  return std::any_of(dir.begin(), dir.end(), [&](const proto::AppInfo& a) {
    return a.name == app_name;
  });
}

TEST(PeerDirectory, FullOnceThenDeltasThenEpochBumpResyncs) {
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  workload::Scenario scenario(cfg);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  auto& app = scenario.add_app<app::SyntheticApp>(host, watched_app("shared"),
                                                  app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app.registered() && near.peer_count() == 1 &&
           host.peer_count() == 1;
  }));

  // First contact costs one full snapshot; steady state is all deltas.
  ASSERT_TRUE(scenario.run_until([&] {
    return near.stats().dir_fulls_in >= 1 && directory_has(near, host,"shared");
  }));
  const std::uint64_t fulls = near.stats().dir_fulls_in;
  const std::uint64_t deltas = near.stats().dir_deltas_in;
  EXPECT_GT(near.stats().dir_refresh_bytes, 0u);
  scenario.run_for(util::seconds(1));
  EXPECT_EQ(near.stats().dir_fulls_in, fulls);
  EXPECT_GT(near.stats().dir_deltas_in, deltas);

  // A new app at the host arrives at the peer through a delta, not a full.
  app::AppConfig late_cfg = watched_app("latecomer");
  auto& late = scenario.add_app<app::SyntheticApp>(host, late_cfg,
                                                   app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] { return late.registered(); }));
  ASSERT_TRUE(scenario.run_until([&] {
    return directory_has(near, host,"latecomer");
  }));
  EXPECT_EQ(near.stats().dir_fulls_in, fulls);

  // A deregistration is withdrawn through a delta as well.
  app::AppConfig brief_cfg = watched_app("brief");
  brief_cfg.max_steps = 50;  // registers, runs 250 ms, deregisters
  auto& brief = scenario.add_app<app::SyntheticApp>(host, brief_cfg,
                                                    app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] { return brief.registered(); }));
  ASSERT_TRUE(scenario.run_until([&] {
    return directory_has(near, host,"brief");
  }));
  ASSERT_TRUE(scenario.run_until([&] {
    return !directory_has(near, host,"brief");
  }));
  EXPECT_EQ(near.stats().dir_fulls_in, fulls);
  EXPECT_TRUE(directory_has(near, host,"shared"));
  EXPECT_TRUE(directory_has(near, host,"latecomer"));

  // An epoch bump (host restart / log reset) forces exactly a full resync.
  host.bump_directory_epoch();
  ASSERT_TRUE(scenario.run_until([&] {
    return near.stats().dir_fulls_in > fulls;
  }));
  EXPECT_TRUE(directory_has(near, host,"shared"));
  EXPECT_TRUE(directory_has(near, host,"latecomer"));
}

TEST(PeerDirectory, PhaseChurnBetweenRefreshesStaysADelta) {
  // An app that enters its interaction phase every 1 ms step and leaves it
  // 1 ms later changes the host's directory ~1000 times per 1 s refresh,
  // far more than the host's 128-entry change log.  One entry per app
  // keeps the peer's cursor inside the log, so every refresh after first
  // contact is still a delta.
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::seconds(1);
  workload::Scenario scenario(cfg);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);
  app::AppConfig churn = watched_app("churn");
  churn.step_time = util::milliseconds(1);
  churn.interact_every = 1;
  churn.interaction_window = util::milliseconds(1);
  auto& app = scenario.add_app<app::SyntheticApp>(host, churn,
                                                  app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app.registered() && near.peer_count() == 1 &&
           host.peer_count() == 1;
  }));
  ASSERT_TRUE(scenario.run_until([&] {
    return near.stats().dir_fulls_in >= 1 && directory_has(near, host, "churn");
  }));
  const std::uint64_t fulls = near.stats().dir_fulls_in;
  const std::uint64_t deltas = near.stats().dir_deltas_in;
  const std::uint64_t steps = app.steps();
  scenario.run_for(util::seconds(5));
  // Two phase changes per step: well over 128 per refresh period.
  EXPECT_GT(2 * (app.steps() - steps), 5u * 4 * 128);
  EXPECT_EQ(near.stats().dir_fulls_in, fulls);
  EXPECT_GE(near.stats().dir_deltas_in, deltas + 4);
  EXPECT_TRUE(directory_has(near, host, "churn"));
}

// ---------------------------------------------------------------------------
// Flush trigger counters: count and bytes triggers fire under load
// ---------------------------------------------------------------------------

TEST(PeerBatchStats, CountAndBytesTriggersFire) {
  // Firehose apps (an update every 1 ms step) and a Nagle delay longer than
  // they take to trip PeerLink's triggers: near's small updates fill a
  // 64-item batch in 64 ms, the host's wide ones (64 sensors, ~1.5 KiB
  // each) reach 48 KiB in about 32.
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  cfg.server_template.peer_flush_delay = util::milliseconds(100);
  workload::Scenario scenario(cfg);
  auto& near = scenario.add_server("near", 1);
  auto& host = scenario.add_server("host", 2);

  app::AppConfig firehose = watched_app("shared");
  firehose.step_time = util::milliseconds(1);
  firehose.update_every = 1;
  app::SyntheticSpec wide;
  wide.metric_count = 64;
  auto& app = scenario.add_app<app::SyntheticApp>(host, firehose, wide);
  app::AppConfig firehose2 = firehose;
  firehose2.name = "reverse";
  auto& app2 = scenario.add_app<app::SyntheticApp>(near, firehose2,
                                                   app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app.registered() && app2.registered() && near.peer_count() == 1 &&
           host.peer_count() == 1;
  }));

  // Watch both directions so each server has an outbox under pressure:
  // host flushes on bytes, near flushes on count.
  auto& alice = scenario.add_client("u0", near);
  ASSERT_TRUE(workload::sync_login(scenario.net(), alice).value().ok);
  ASSERT_TRUE(
      workload::sync_select(scenario.net(), alice, app.app_id()).value().ok);
  auto& bob = scenario.add_client("u1", host);
  ASSERT_TRUE(workload::sync_login(scenario.net(), bob).value().ok);
  ASSERT_TRUE(
      workload::sync_select(scenario.net(), bob, app2.app_id()).value().ok);

  ASSERT_TRUE(scenario.run_until([&] {
    return host.stats().flushes_by_bytes > 0 &&
           near.stats().flushes_by_count > 0;
  }));
  EXPECT_GT(host.stats().peer_batch_events_max, 1u);
}

}  // namespace
}  // namespace discover
