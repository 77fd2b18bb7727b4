// The OS-socket transport suite (`ctest -L osnet`): real TCP over loopback.
//
// Three properties are pinned here because in-process backends can never
// exercise them:
//   * arbitrary stream segmentation — every incremental decoder (frame,
//     HTTP, GIOP header peek) must survive 1..N-byte delivery fragments;
//   * short / interrupted writes — a tiny SO_SNDBUF forces EAGAIN and
//     partial writev, and the delivered byte sequence must still be
//     identical to a ThreadNetwork run of the same workload;
//   * process lifecycle — reconnect after a peer restart, and a typed
//     (not fatal) startup error when the listen port is taken;
//   * the coalesced send path — a worker task's burst costs at most two
//     loop wakes and a few writevs, and no mix of senders ever strands a
//     frame;
//   * inline dispatch — the loop runs an idle node's frames itself, so a
//     request/reply costs the replying process no wake, while a node in a
//     long compute step keeps its frames queued, in order, until the step
//     ends and delays no other node.
// Timer hygiene on both real-time backends lives in executor_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "app/heat2d.h"
#include "core/client.h"
#include "core/server.h"
#include "http/http_message.h"
#include "net/frame_codec.h"
#include "net/os_network.h"
#include "net/thread_network.h"
#include "orb/orb.h"
#include "util/rng.h"
#include "workload/scenario.h"  // RegistryNode
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;
using workload::make_acl;

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

// -- fragment fuzz: frame codec ----------------------------------------------

std::vector<net::Frame> make_sample_frames() {
  std::vector<net::Frame> frames;
  util::Rng rng(0xF00DULL);
  const std::size_t sizes[] = {0, 1, 3, 17, 255, 1024, 70000};
  std::uint32_t n = 0;
  for (const std::size_t size : sizes) {
    net::Frame f;
    f.src = net::NodeId{n % 5};
    f.dst = net::NodeId{(n + 1) % 5};
    f.channel_raw = n % 6;
    f.payload.resize(size);
    for (auto& b : f.payload) {
      b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    }
    frames.push_back(std::move(f));
    ++n;
  }
  return frames;
}

util::Bytes concat_wire(const std::vector<net::Frame>& frames) {
  util::Bytes wire;
  for (const auto& f : frames) {
    const util::Bytes one =
        net::encode_frame(f.src, f.dst, f.channel_raw, f.payload);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  return wire;
}

TEST(FrameCodecTest, SurvivesArbitrarySegmentation) {
  const std::vector<net::Frame> expect = make_sample_frames();
  const util::Bytes wire = concat_wire(expect);

  // 64 seeded runs, each delivering the stream in random 1..N-byte pieces,
  // plus the worst case: one byte at a time.
  for (std::uint64_t seed = 0; seed < 65; ++seed) {
    util::Rng rng(seed * 7919 + 1);
    net::FrameDecoder decoder;
    std::vector<net::Frame> got;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      std::size_t take =
          seed == 64 ? 1 : 1 + rng.next() % 4096;
      take = std::min(take, wire.size() - pos);
      ASSERT_TRUE(decoder.feed(wire.data() + pos, take, got).ok());
      pos += take;
    }
    ASSERT_EQ(got.size(), expect.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].src.value(), expect[i].src.value());
      EXPECT_EQ(got[i].dst.value(), expect[i].dst.value());
      EXPECT_EQ(got[i].channel_raw, expect[i].channel_raw);
      EXPECT_EQ(got[i].payload, expect[i].payload);
    }
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(FrameCodecTest, RejectsOversizedLengthBeforeBuffering) {
  // A header declaring a payload over the cap must fail as soon as the
  // length field arrives — no payload byte may ever be buffered.
  net::FrameDecoder decoder(/*max_payload=*/1024);
  const auto header = net::encode_frame_header(
      net::NodeId{0}, net::NodeId{1}, 0, /*payload_size=*/4096);
  std::vector<net::Frame> out;
  const util::Status st = decoder.feed(header.data(), 8, out);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(out.empty());
}

TEST(FrameCodecTest, RejectsBadMagic) {
  net::FrameDecoder decoder;
  const util::Bytes junk = bytes_of("GET / HTTP/1.0\r\n\r\n");
  std::vector<net::Frame> out;
  EXPECT_FALSE(decoder.feed(junk.data(), junk.size(), out).ok());
}

TEST(FrameCodecTest, HelloRoundTrips) {
  net::HelloFrame hello;
  hello.local_nodes = {0, 2, 7};
  hello.listen_addr = "127.0.0.1:4242";
  const auto decoded = net::decode_hello(net::encode_hello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().version, hello.version);
  EXPECT_EQ(decoded.value().local_nodes, hello.local_nodes);
  EXPECT_EQ(decoded.value().listen_addr, hello.listen_addr);
}

// -- fragment fuzz: HTTP stream decoder --------------------------------------

TEST(HttpStreamDecoderTest, SurvivesArbitrarySegmentation) {
  std::vector<util::Bytes> expect;
  http::HttpRequest req;
  req.method = http::Method::post;
  req.path = "/portal/command?app=1";
  req.body = bytes_of(std::string(3000, 'x'));
  expect.push_back(http::serialize(req));
  http::HttpResponse resp;
  resp.status = 200;
  resp.body = bytes_of("ok");
  expect.push_back(http::serialize(resp));
  http::HttpRequest empty_body;
  empty_body.path = "/portal/poll";
  expect.push_back(http::serialize(empty_body));

  util::Bytes wire;
  for (const auto& m : expect) wire.insert(wire.end(), m.begin(), m.end());

  for (std::uint64_t seed = 0; seed < 33; ++seed) {
    util::Rng rng(seed * 31 + 5);
    http::StreamDecoder decoder;
    std::vector<util::Bytes> got;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      std::size_t take = seed == 32 ? 1 : 1 + rng.next() % 512;
      take = std::min(take, wire.size() - pos);
      ASSERT_TRUE(decoder.feed(wire.data() + pos, take).ok());
      while (auto msg = decoder.next()) got.push_back(std::move(*msg));
      pos += take;
    }
    ASSERT_EQ(got.size(), expect.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]) << "seed " << seed << " msg " << i;
    }
    EXPECT_FALSE(decoder.failed());
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(HttpStreamDecoderTest, RejectsOversizedBodyAtHeadCompletion) {
  // The declared Content-Length is judged the moment the head is complete:
  // no body byte is ever awaited, let alone buffered.
  http::StreamDecoder decoder(/*max_head_bytes=*/1024, /*max_body_bytes=*/64);
  const util::Bytes head =
      bytes_of("POST /portal HTTP/1.0\r\nContent-Length: 100000\r\n\r\n");
  EXPECT_FALSE(decoder.feed(head).ok());
  EXPECT_TRUE(decoder.failed());
}

TEST(HttpStreamDecoderTest, RejectsUnterminatedHeadOverCap) {
  http::StreamDecoder decoder(/*max_head_bytes=*/64, /*max_body_bytes=*/64);
  const util::Bytes junk =
      bytes_of("GET /" + std::string(200, 'a') + " HTTP/1.0\r\n");
  EXPECT_FALSE(decoder.feed(junk).ok());
  EXPECT_TRUE(decoder.failed());
}

// -- fragment fuzz: GIOP header peek -----------------------------------------

util::Bytes make_giop_prefix(bool request) {
  // Mirrors the hand-decoded CDR layout the router peeks at: u32 magic @0,
  // u8 kind @4 (pad to 8), u64 request id @8, u64 servant key @16.
  util::Bytes b(24, 0);
  const std::uint32_t magic = 0x47494F50;  // "GIOP"
  std::memcpy(b.data(), &magic, 4);
  b[4] = request ? 0 : 1;
  const std::uint64_t request_id = 0x1122334455667788ULL;
  std::memcpy(b.data() + 8, &request_id, 8);
  const std::uint64_t servant_key = 0x99AABBCCDDEEFF00ULL;
  std::memcpy(b.data() + 16, &servant_key, 8);
  return b;
}

TEST(GiopPeekTest, EveryPrefixOfARequestClassifiesCleanly) {
  const util::Bytes frame = make_giop_prefix(/*request=*/true);
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    orb::GiopHeader h;
    const orb::GiopPeek verdict =
        orb::peek_giop_header(frame.data(), len, h);
    if (len < 24) {
      EXPECT_EQ(verdict, orb::GiopPeek::need_more) << "len " << len;
    } else {
      ASSERT_EQ(verdict, orb::GiopPeek::ok);
      EXPECT_TRUE(h.valid);
      EXPECT_TRUE(h.is_request);
      EXPECT_EQ(h.request_id, 0x1122334455667788ULL);
      EXPECT_EQ(h.servant_key, 0x99AABBCCDDEEFF00ULL);
    }
  }
}

TEST(GiopPeekTest, ReplyCompletesAtSixteenBytes) {
  const util::Bytes frame = make_giop_prefix(/*request=*/false);
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    orb::GiopHeader h;
    const orb::GiopPeek verdict =
        orb::peek_giop_header(frame.data(), len, h);
    if (len < 16) {
      EXPECT_EQ(verdict, orb::GiopPeek::need_more) << "len " << len;
    } else {
      ASSERT_EQ(verdict, orb::GiopPeek::ok) << "len " << len;
      EXPECT_FALSE(h.is_request);
      EXPECT_EQ(h.request_id, 0x1122334455667788ULL);
    }
  }
}

TEST(GiopPeekTest, GarbageIsInvalidNotNeedMore) {
  orb::GiopHeader h;
  const util::Bytes bad_magic = bytes_of("HTTP/1.0 200 OK\r\n");
  EXPECT_EQ(orb::peek_giop_header(bad_magic.data(), bad_magic.size(), h),
            orb::GiopPeek::invalid);

  util::Bytes bad_kind = make_giop_prefix(true);
  bad_kind[4] = 9;  // not a request or reply
  EXPECT_EQ(orb::peek_giop_header(bad_kind.data(), bad_kind.size(), h),
            orb::GiopPeek::invalid);
}

// -- OS transport: capture plumbing ------------------------------------------

class CaptureHandler final : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    received_.emplace_back(static_cast<std::uint32_t>(msg.channel),
                           msg.payload.bytes());
    cv_.notify_all();
  }

  bool wait_count(std::size_t n, util::Duration timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::nanoseconds(timeout),
                        [&] { return received_.size() >= n; });
  }

  std::vector<std::pair<std::uint32_t, util::Bytes>> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return received_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint32_t, util::Bytes>> received_;
};

class NullHandler final : public net::MessageHandler {
 public:
  void on_message(const net::Message&) override {}
};

// The deterministic A/B workload: mixed sizes (several crossing the tiny
// SO_SNDBUF) on rotating channels, all from one src to one sink.
std::vector<std::pair<net::Channel, util::Bytes>> ab_workload() {
  std::vector<std::pair<net::Channel, util::Bytes>> msgs;
  util::Rng rng(0xAB0ULL);
  for (int i = 0; i < 120; ++i) {
    const std::size_t size =
        (i % 10 == 3) ? 150000 + i : 1 + (rng.next() % 2000);
    util::Bytes body(size);
    for (std::size_t j = 0; j < size; ++j) {
      body[j] = static_cast<std::uint8_t>((i * 31 + j) & 0xFF);
    }
    msgs.emplace_back(static_cast<net::Channel>(i % 6), std::move(body));
  }
  return msgs;
}

TEST(OsNetworkTest, ShortWritesDeliverByteIdenticalToThreadNetwork) {
  const auto workload = ab_workload();

  // A: the reference run on ThreadNetwork.
  std::vector<std::pair<std::uint32_t, util::Bytes>> ref;
  {
    net::ThreadNetwork tnet;
    NullHandler src_handler;
    CaptureHandler sink;
    const net::NodeId src = tnet.add_node("src", &src_handler);
    const net::NodeId dst = tnet.add_node("sink", &sink);
    tnet.start();
    for (const auto& [channel, body] : workload) {
      tnet.send(src, dst, channel, util::Bytes(body));
    }
    ASSERT_TRUE(sink.wait_count(workload.size(), util::seconds(30)));
    tnet.stop();
    ref = sink.snapshot();
  }

  // B: the same workload over real TCP with a strangled send buffer, so the
  // coalesced flush hits EAGAIN / partial writev constantly and must
  // re-queue the unsent tail.
  std::vector<std::pair<std::uint32_t, util::Bytes>> got;
  net::OsNetworkStats sender_stats;
  {
    net::OsNetworkConfig sink_cfg;
    net::OsNetwork sink_net(sink_cfg);
    NullHandler remote_src;
    CaptureHandler sink;
    sink_net.add_remote("src", "127.0.0.1", 0);
    const net::NodeId dst_b = sink_net.add_node("sink", &sink);
    ASSERT_TRUE(sink_net.start().ok());

    net::OsNetworkConfig src_cfg;
    src_cfg.listen = false;
    src_cfg.so_sndbuf = 4096;
    net::OsNetwork src_net(src_cfg);
    NullHandler src_handler;
    const net::NodeId src = src_net.add_node("src", &src_handler);
    src_net.add_remote("sink", "127.0.0.1", sink_net.listen_port());
    ASSERT_TRUE(src_net.start().ok());

    for (const auto& [channel, body] : workload) {
      src_net.send(src, dst_b, channel, util::Bytes(body));
    }
    ASSERT_TRUE(sink.wait_count(workload.size(), util::seconds(60)));
    sender_stats = src_net.os_stats();
    src_net.stop();
    sink_net.stop();
    got = sink.snapshot();
  }

  // The strangled buffer must actually have forced the re-queue path.
  EXPECT_GT(sender_stats.partial_writes + sender_stats.eagain_writes, 0u);

  // Byte-identical: same count, same order, same channels, same bytes.
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, ref[i].first) << "message " << i;
    ASSERT_EQ(got[i].second, ref[i].second) << "message " << i;
  }
}

// -- OS transport: end-to-end middleware flow --------------------------------

// Two OsNetwork instances stand in for two OS processes (the two-process
// demo in examples/osnet_demo.cpp runs the same topology with real fork).
// Both build the same global node-id space in the same order: ids 0-2 live
// in the "server process", id 3 in the "client process".
TEST(OsNetworkTest, LoopbackEndToEndSteeringFlow) {
  // Server process: registry, server, app — all local; the client remote.
  net::OsNetwork server_net;
  workload::RegistryNode registry(server_net);
  const net::NodeId registry_node =
      server_net.add_node("registry", &registry, net::DomainId{0});
  registry.attach(registry_node);

  core::ServerConfig scfg;
  scfg.name = "os-server";
  core::DiscoverServer server(server_net, scfg);
  const net::NodeId server_node =
      server_net.add_node("server:os-server", &server, net::DomainId{1});
  server.attach(server_node);
  server.set_registry(registry.naming_ref(), registry.trader_ref());

  app::AppConfig acfg;
  acfg.name = "os-heat";
  acfg.acl = make_acl({{"alice", Privilege::steer}});
  acfg.step_time = util::milliseconds(1);
  acfg.update_every = 5;
  acfg.interact_every = 10;
  acfg.interaction_window = util::milliseconds(1);
  app::Heat2DApp heat(server_net, acfg, 16);
  const net::NodeId app_node =
      server_net.add_node("app:os-heat", &heat, net::DomainId{1});
  heat.attach(app_node);

  // The client never listens, so its address is irrelevant: replies flow
  // back over the connection the client opens (route adoption).
  server_net.add_remote("client:alice", "127.0.0.1", 0, net::DomainId{2});

  ASSERT_TRUE(server_net.start().ok());
  ASSERT_NE(server_net.listen_port(), 0);

  // Client process: same id space, mirrored local/remote split.
  net::OsNetworkConfig ccfg_net;
  ccfg_net.listen = false;
  net::OsNetwork client_net(ccfg_net);
  const std::uint16_t port = server_net.listen_port();
  client_net.add_remote("registry", "127.0.0.1", port, net::DomainId{0});
  client_net.add_remote("server:os-server", "127.0.0.1", port,
                        net::DomainId{1});
  client_net.add_remote("app:os-heat", "127.0.0.1", port, net::DomainId{1});

  core::ClientConfig ccfg;
  ccfg.user = "alice";
  ccfg.poll_period = util::milliseconds(10);
  core::DiscoverClient alice(client_net, ccfg);
  const net::NodeId client_node =
      client_net.add_node("client:alice", &alice, net::DomainId{2});
  alice.attach(client_node);
  alice.set_server(server_node);
  ASSERT_TRUE(client_net.start().ok());

  // Server-side startup runs in each actor's own context, as everywhere.
  server_net.post(server_node, [&] { server.start(); });
  server_net.post(app_node, [&] { heat.connect(server_node); });
  ASSERT_TRUE(workload::wait_for(
      server_net, [&] { return heat.registered(); }, util::seconds(20)));

  // The portal flow, now crossing a real TCP connection.
  auto login = workload::sync_login(client_net, alice);
  ASSERT_TRUE(login.ok()) << login.error().message;
  ASSERT_TRUE(login.value().ok);
  ASSERT_EQ(login.value().applications.size(), 1u);
  const proto::AppId app_id = login.value().applications[0].id;

  auto select = workload::sync_select(client_net, alice, app_id);
  ASSERT_TRUE(select.ok()) << select.error().message;
  ASSERT_TRUE(select.value().ok);
  ASSERT_TRUE(workload::sync_onboard_steerer(client_net, alice, app_id));

  auto ack = workload::sync_command(client_net, alice, app_id,
                                    proto::CommandKind::set_param, "alpha",
                                    proto::ParamValue{0.21});
  ASSERT_TRUE(ack.ok()) << ack.error().message;
  EXPECT_TRUE(ack.value().accepted);
  // Read alpha from the app's own execution context (actor model): the
  // test thread polling the raw field would race the compute loop.
  std::atomic<double> seen_alpha{0.0};
  ASSERT_TRUE(workload::wait_for(
      server_net,
      [&] {
        server_net.post(app_node, [&] { seen_alpha.store(heat.alpha()); });
        return std::abs(seen_alpha.load() - 0.21) < 1e-12;
      },
      util::seconds(20)));

  // Updates flow back over the adopted (inbound) route.
  ASSERT_TRUE(workload::wait_for(
      client_net,
      [&] {
        (void)workload::sync_poll(client_net, alice, app_id,
                                  util::seconds(5));
        return alice.events_of_kind(proto::EventKind::update) > 0;
      },
      util::seconds(20)));

  // Real traffic crossed the wire in both directions.
  const net::OsNetworkStats sstats = server_net.os_stats();
  EXPECT_GT(sstats.frames_in, 0u);
  EXPECT_GT(sstats.frames_out, 0u);
  EXPECT_GE(sstats.accepted, 1u);

  client_net.stop();
  server_net.stop();
  server.drain_shards();
}

// -- OS transport: lifecycle -------------------------------------------------

TEST(OsNetworkTest, ReconnectsAfterPeerRestart) {
  // The sink listens; the source is a pure client (listen=false), so the
  // restarted sink can re-bind the same port without colliding with the
  // source's acceptor.
  auto make_sink = [](std::uint16_t port, CaptureHandler* sink) {
    net::OsNetworkConfig cfg;
    cfg.listen_port = port;
    auto n = std::make_unique<net::OsNetwork>(cfg);
    n->add_remote("src", "127.0.0.1", 0);
    n->add_node("sink", sink);
    return n;
  };

  CaptureHandler sink1;
  auto sink_net = make_sink(0, &sink1);
  ASSERT_TRUE(sink_net->start().ok());
  const std::uint16_t port = sink_net->listen_port();

  net::OsNetworkConfig src_cfg;
  src_cfg.listen = false;
  net::OsNetwork src_net(src_cfg);
  NullHandler src_handler;
  const net::NodeId src = src_net.add_node("src", &src_handler);
  const net::NodeId dst = src_net.add_remote("sink", "127.0.0.1", port);
  ASSERT_TRUE(src_net.start().ok());

  src_net.send(src, dst, net::Channel::main_channel, bytes_of("before"));
  ASSERT_TRUE(sink1.wait_count(1, util::seconds(10)));

  // Peer restart: the old process dies, a new one re-binds the same port.
  sink_net->stop();
  sink_net.reset();
  CaptureHandler sink2;
  sink_net = make_sink(port, &sink2);
  ASSERT_TRUE(sink_net->start().ok());

  // The source notices the dead connection on its next send and retries
  // through the reconnect schedule until the new acceptor answers.
  ASSERT_TRUE(workload::wait_for(
      src_net,
      [&] {
        src_net.send(src, dst, net::Channel::main_channel,
                     bytes_of("after"));
        return sink2.wait_count(1, util::milliseconds(200));
      },
      util::seconds(20)));

  const auto got = sink2.snapshot();
  ASSERT_GE(got.size(), 1u);
  EXPECT_EQ(got[0].second, bytes_of("after"));

  src_net.stop();
  sink_net->stop();
}

TEST(OsNetworkTest, PortInUseIsTypedUnavailable) {
  net::OsNetwork first;
  NullHandler h;
  first.add_node("a", &h);
  ASSERT_TRUE(first.start().ok());

  net::OsNetworkConfig cfg;
  cfg.listen_port = first.listen_port();
  net::OsNetwork second(cfg);
  NullHandler h2;
  second.add_node("a", &h2);
  const util::Status st = second.start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::Errc::unavailable);
  first.stop();
}

TEST(OsNetworkTest, PollFallbackCarriesTraffic) {
  // Force the portable poll(2) event loop on both ends.
  net::OsNetworkConfig cfg_b;
  cfg_b.use_epoll = false;
  net::OsNetwork b(cfg_b);
  b.add_remote("src", "127.0.0.1", 0);
  CaptureHandler sink;
  const net::NodeId dst = b.add_node("sink", &sink);
  ASSERT_TRUE(b.start().ok());

  net::OsNetworkConfig cfg_a;
  cfg_a.use_epoll = false;
  cfg_a.listen = false;
  net::OsNetwork a(cfg_a);
  NullHandler src_handler;
  const net::NodeId src = a.add_node("src", &src_handler);
  a.add_remote("sink", "127.0.0.1", b.listen_port());
  ASSERT_TRUE(a.start().ok());

  for (int i = 0; i < 50; ++i) {
    a.send(src, dst, net::Channel::command,
           bytes_of("poll-fallback " + std::to_string(i)));
  }
  ASSERT_TRUE(sink.wait_count(50, util::seconds(20)));
  const auto got = sink.snapshot();
  EXPECT_EQ(got[49].second, bytes_of("poll-fallback 49"));
  a.stop();
  b.stop();
}

// -- OS transport: the coalesced send path ----------------------------------

// A sink process and a pure-client source process with `sources` local
// nodes, the source already connected (its hello and one frame are out).
// Both build the same id space: the sources first, then the sink.
struct LinkedPair {
  explicit LinkedPair(std::size_t sources) {
    for (std::size_t i = 0; i < sources; ++i) {
      sink_net.add_remote("src" + std::to_string(i), "127.0.0.1", 0);
    }
    dst = sink_net.add_node("sink", &sink);
    EXPECT_TRUE(sink_net.start().ok());

    net::OsNetworkConfig cfg;
    cfg.listen = false;
    src_net = std::make_unique<net::OsNetwork>(cfg);
    for (std::size_t i = 0; i < sources; ++i) {
      src.push_back(src_net->add_node("src" + std::to_string(i), &null));
    }
    src_net->add_remote("sink", "127.0.0.1", sink_net.listen_port());
    EXPECT_TRUE(src_net->start().ok());

    src_net->send(src[0], dst, net::Channel::control, bytes_of("warm-up"));
    EXPECT_TRUE(sink.wait_count(1, util::seconds(10)));
    // The sink can decode a frame before the source counts its writev.
    EXPECT_TRUE(workload::wait_for(
        *src_net, [&] { return src_net->os_stats().frames_out >= 2; },
        util::seconds(10)));
  }
  ~LinkedPair() {
    src_net->stop();
    sink_net.stop();
  }

  net::OsNetwork sink_net;
  CaptureHandler sink;
  NullHandler null;
  net::NodeId dst;
  std::unique_ptr<net::OsNetwork> src_net;
  std::vector<net::NodeId> src;
};

TEST(OsNetworkTest, WorkerTaskBurstCostsAtMostTwoWakes) {
  LinkedPair pair(1);
  net::OsNetwork& net = *pair.src_net;
  std::vector<util::Bytes> burst;
  util::Rng rng(0xB0257ULL);
  for (int i = 0; i < 200; ++i) {
    util::Bytes body(1 + rng.next() % 64);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    burst.push_back(std::move(body));
  }

  const net::OsNetworkStats before = net.os_stats();
  // One task on the source node's worker: the fan-out shape.  Its first
  // send wakes the loop, the rest owe one more wake at the end of the task,
  // and each loop pass puts everything queued in one writev (more only if
  // the kernel pushes back).  Waking per frame would cost 200 pipe writes.
  net.post(pair.src[0], [&] {
    for (const auto& body : burst) {
      net.send(pair.src[0], pair.dst, net::Channel::main_channel, body);
    }
  });
  ASSERT_TRUE(pair.sink.wait_count(1 + burst.size(), util::seconds(10)));
  ASSERT_TRUE(workload::wait_for(
      net,
      [&] {
        return net.os_stats().frames_out >= before.frames_out + burst.size();
      },
      util::seconds(10)));
  const net::OsNetworkStats after = net.os_stats();
  EXPECT_GE(after.wakes - before.wakes, 1u);
  EXPECT_LE(after.wakes - before.wakes, 2u);
  EXPECT_LE(after.writevs - before.writevs, 4u);
  EXPECT_EQ(after.frames_out - before.frames_out, burst.size());

  const auto got = pair.sink.snapshot();
  ASSERT_EQ(got.size(), 1 + burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    ASSERT_EQ(got[1 + i].first,
              static_cast<std::uint32_t>(net::Channel::main_channel));
    ASSERT_EQ(got[1 + i].second, burst[i]) << "frame " << i;
  }
}

TEST(OsNetworkTest, MixedSendersNeverStrandAFrame) {
  // Lost-wakeup hunt.  Four outside threads, tasks on one node's worker and
  // a timer chain on another's all send at once, with random yields, in
  // 200 short rounds of 100 frames; each round must fully arrive before the
  // next starts.  A wake lost at the end of a round strands its tail until
  // the loop's 1 s idle heartbeat, so each round gets well under that: one
  // lost wake fails the test.  All rounds together get at most 10 s.
  constexpr int kRounds = 200;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 15;
  constexpr int kTasks = 2;
  constexpr int kPerTask = 10;
  constexpr int kTicks = 2;
  constexpr int kPerTick = 10;
  constexpr int kPerRound =
      kThreads * kPerThread + kTasks * kPerTask + kTicks * kPerTick;
  static_assert(kRounds * kPerRound == 20000);
  constexpr std::uint32_t kTaskSender = kThreads;
  constexpr std::uint32_t kTimerSender = kThreads + 1;

  LinkedPair pair(2);
  net::OsNetwork& net = *pair.src_net;
  const net::NodeId task_node = pair.src[0];
  const net::NodeId timer_node = pair.src[1];
  // Sender s's next sequence number, touched only from sender s's context.
  std::vector<std::uint32_t> next_seq(kThreads + 2, 0);
  std::vector<util::Rng> rngs;
  for (std::uint32_t s = 0; s < kThreads + 2; ++s) rngs.emplace_back(s + 1);
  auto send_one = [&](net::NodeId from, std::uint32_t sender) {
    std::uint32_t word[2] = {sender, next_seq[sender]++};
    util::Bytes body(sizeof(word));
    std::memcpy(body.data(), word, sizeof(word));
    net.send(from, pair.dst, net::Channel::main_channel, std::move(body));
    if (rngs[sender].next() % 4 == 0) std::this_thread::yield();
  };
  int ticks_left = 0;  // timer_node's worker only
  std::function<void()> tick = [&] {
    for (int i = 0; i < kPerTick; ++i) send_one(timer_node, kTimerSender);
    if (--ticks_left > 0) {
      net.schedule(timer_node,
                   util::microseconds(20 + rngs[kTimerSender].next() % 100),
                   tick);
    }
  };

  // The outside threads start each round together with the test thread and
  // report back once their share is queued.
  std::barrier round_start(kThreads + 1);
  std::barrier round_sent(kThreads + 1);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        round_start.arrive_and_wait();
        for (int i = 0; i < kPerThread; ++i) send_one(task_node, t);
        round_sent.arrive_and_wait();
      }
    });
  }
  constexpr auto kRoundBudget = std::chrono::milliseconds(400);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool stranded = false;
  for (int round = 0; round < kRounds; ++round) {
    net.post(timer_node, [&] {
      ticks_left = kTicks;
      tick();
    });
    for (int k = 0; k < kTasks; ++k) {
      net.post(task_node, [&] {
        for (int i = 0; i < kPerTask; ++i) send_one(task_node, kTaskSender);
      });
    }
    round_start.arrive_and_wait();
    round_sent.arrive_and_wait();
    const auto now = std::chrono::steady_clock::now();
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::min(deadline, now + kRoundBudget) - now);
    if (!stranded &&
        !pair.sink.wait_count(
            1 + static_cast<std::size_t>((round + 1) * kPerRound),
            std::max<util::Duration>(0, left.count()))) {
      ADD_FAILURE() << "round " << round << " stranded frames";
      stranded = true;  // let the threads finish their rounds, then fail
    }
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(stranded);

  // In order per sender, each sender's count complete.
  const auto got = pair.sink.snapshot();
  ASSERT_EQ(got.size(), 1u + kRounds * kPerRound);
  std::vector<std::uint32_t> expect(kThreads + 2, 0);
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_EQ(got[i].second.size(), 2 * sizeof(std::uint32_t));
    std::uint32_t word[2];
    std::memcpy(word, got[i].second.data(), sizeof(word));
    ASSERT_LT(word[0], expect.size());
    ASSERT_EQ(word[1], expect[word[0]]++) << "sender " << word[0];
  }
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(expect[t], static_cast<std::uint32_t>(kRounds * kPerThread));
  }
  EXPECT_EQ(expect[kTaskSender],
            static_cast<std::uint32_t>(kRounds * kTasks * kPerTask));
  EXPECT_EQ(expect[kTimerSender],
            static_cast<std::uint32_t>(kRounds * kTicks * kPerTick));
}

// -- OS transport: inline dispatch on the event loop -------------------------

/// Sends every frame straight back to its sender on the same channel.
class EchoHandler final : public net::MessageHandler {
 public:
  explicit EchoHandler(net::Network& net) : net_(net) {}
  void on_message(const net::Message& msg) override {
    net_.send(msg.dst, msg.src, msg.channel, msg.payload);
  }

 private:
  net::Network& net_;
};

/// A server process with an echo node and a client process with one node,
/// connected (the warm-up round trip is done).  Both build the same id
/// space: the client first, then the echo node, then `extra`.
struct EchoPair {
  explicit EchoPair(net::MessageHandler* extra = nullptr) {
    server_net.add_remote("client", "127.0.0.1", 0);
    echo = server_net.add_node("echo", &echo_handler);
    if (extra != nullptr) other = server_net.add_node("other", extra);
    EXPECT_TRUE(server_net.start().ok());

    net::OsNetworkConfig cfg;
    cfg.listen = false;
    client_net = std::make_unique<net::OsNetwork>(cfg);
    client = client_net->add_node("client", &replies);
    client_net->add_remote("echo", "127.0.0.1", server_net.listen_port());
    if (extra != nullptr) {
      client_net->add_remote("other", "127.0.0.1", server_net.listen_port());
    }
    EXPECT_TRUE(client_net->start().ok());
    EXPECT_TRUE(round_trip(bytes_of("warm-up")));
  }
  ~EchoPair() {
    client_net->stop();
    server_net.stop();
  }

  /// Sends `body` to the echo node and waits for its reply.
  bool round_trip(util::Bytes body) {
    const std::size_t want = ++round_trips;
    client_net->send(client, echo, net::Channel::http, std::move(body));
    return replies.wait_count(want, util::seconds(10));
  }

  net::OsNetwork server_net;
  EchoHandler echo_handler{server_net};
  net::NodeId echo;
  net::NodeId other;
  std::unique_ptr<net::OsNetwork> client_net;
  CaptureHandler replies;
  net::NodeId client;
  std::size_t round_trips = 0;
};

util::Bytes index_bytes(std::uint32_t i) {
  util::Bytes body(sizeof(i));
  std::memcpy(body.data(), &i, sizeof(i));
  return body;
}

TEST(OsNetworkTest, InlineRequestReplyCostsNoWake) {
  // The echo node is idle whenever a request arrives, so the server's loop
  // runs its handler and writes the reply in its next flush: the server
  // side never writes its wake pipe.  (A handoff to the node's worker pays
  // one wake per reply.)
  constexpr std::uint32_t kRoundTrips = 1000;
  EchoPair pair;
  const net::OsNetworkStats before = pair.server_net.os_stats();
  for (std::uint32_t i = 0; i < kRoundTrips; ++i) {
    ASSERT_TRUE(pair.round_trip(index_bytes(i))) << "round trip " << i;
  }
  const net::OsNetworkStats after = pair.server_net.os_stats();
  EXPECT_EQ(after.wakes - before.wakes, 0u);
  EXPECT_EQ(after.frames_in - before.frames_in, kRoundTrips);

  const auto got = pair.replies.snapshot();
  ASSERT_EQ(got.size(), 1u + kRoundTrips);
  for (std::uint32_t i = 0; i < kRoundTrips; ++i) {
    ASSERT_EQ(got[1 + i].first,
              static_cast<std::uint32_t>(net::Channel::http));
    ASSERT_EQ(got[1 + i].second, index_bytes(i)) << "reply " << i;
  }
}

/// A node whose compute step is a timer callback that spins for 50 ms.  Its
/// handler notes whether it ever ran during the step or before it ended.
class SteppingNode final : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    if (stepping.load()) overlapped.store(true);
    if (!stepped.load()) early.store(true);
    frames.on_message(msg);
  }
  void step() {
    stepping.store(true);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (std::chrono::steady_clock::now() < until) {
    }
    stepping.store(false);
    stepped.store(true);
  }

  std::atomic<bool> stepping{false};
  std::atomic<bool> stepped{false};
  std::atomic<bool> overlapped{false};
  std::atomic<bool> early{false};
  CaptureHandler frames;
};

TEST(OsNetworkTest, ComputeStepDoesNotDelayOtherNodes) {
  constexpr std::uint32_t kFrames = 10;
  SteppingNode stepper;
  EchoPair pair(&stepper);
  pair.server_net.schedule(pair.other, util::milliseconds(1),
                           [&] { stepper.step(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!stepper.stepping.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(stepper.stepping.load());

  // Frames for the stepping node wait behind its step; the echo requests
  // sent after them on the same connection are answered meanwhile.
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    pair.client_net->send(pair.client, pair.other, net::Channel::command,
                          index_bytes(i));
  }
  int during_step = 0;
  auto slowest = std::chrono::steady_clock::duration::zero();
  while (stepper.stepping.load()) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(pair.round_trip(bytes_of("ping")));
    slowest = std::max(slowest, std::chrono::steady_clock::now() - t0);
    if (stepper.stepping.load()) ++during_step;
  }
  EXPECT_GE(during_step, 3) << "round trips answered during the step";
  EXPECT_LT(slowest, std::chrono::milliseconds(10));

  ASSERT_TRUE(stepper.frames.wait_count(kFrames, util::seconds(10)));
  EXPECT_FALSE(stepper.overlapped.load());
  EXPECT_FALSE(stepper.early.load());
  const auto got = stepper.frames.snapshot();
  ASSERT_EQ(got.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i].second, index_bytes(i)) << "frame " << i;
  }
}

TEST(OsNetworkTest, RepeatedTimerChainTicks) {
  // Self-rescheduling 1ms timers are how every app drives its compute loop;
  // the chain must keep firing indefinitely.
  net::OsNetworkConfig cfg;
  cfg.listen = false;
  net::OsNetwork onet(cfg);
  NullHandler h;
  const net::NodeId node = onet.add_node("t", &h);
  ASSERT_TRUE(onet.start().ok());

  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    if (++ticks < 100) {
      onet.schedule(node, util::milliseconds(1), tick);
    }
  };
  onet.schedule(node, util::milliseconds(1), tick);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (ticks.load() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ticks.load(), 100);
  onet.stop();
}

}  // namespace
}  // namespace discover
