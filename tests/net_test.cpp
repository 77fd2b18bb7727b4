#include <gtest/gtest.h>

#include <atomic>

#include "net/sim_network.h"
#include "net/thread_network.h"

namespace discover::net {
namespace {

/// Records everything it receives.
class Recorder : public MessageHandler {
 public:
  void on_message(const Message& msg) override {
    received.push_back(msg);
  }
  std::vector<Message> received;
};

TEST(SimNetworkTest, DeliversWithLinkLatency) {
  SimNetwork net;
  net.set_lan_model({util::milliseconds(1), 1e12});
  Recorder a;
  Recorder b;
  const NodeId na = net.add_node("a", &a);
  const NodeId nb = net.add_node("b", &b);
  net.send(na, nb, Channel::main_channel, util::to_bytes("hi"));
  EXPECT_EQ(net.run_until_idle(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(util::to_string(b.received[0].payload), "hi");
  EXPECT_EQ(net.now(), util::milliseconds(1));
}

TEST(SimNetworkTest, WanVsLanLatency) {
  SimNetwork net;
  net.set_lan_model({util::microseconds(100), 1e12});
  net.set_wan_model({util::milliseconds(30), 1e12});
  Recorder a;
  Recorder b;
  Recorder c;
  const NodeId na = net.add_node("a", &a, DomainId{1});
  const NodeId nb = net.add_node("b", &b, DomainId{1});
  const NodeId nc = net.add_node("c", &c, DomainId{2});
  net.send(na, nb, Channel::main_channel, {});  // LAN
  net.run_until_idle();
  EXPECT_EQ(net.now(), util::microseconds(100));
  net.send(na, nc, Channel::main_channel, {});  // WAN
  net.run_until_idle();
  EXPECT_EQ(net.now(), util::microseconds(100) + util::milliseconds(30));
}

TEST(SimNetworkTest, BandwidthAddsSerializationDelay) {
  SimNetwork net;
  net.set_lan_model({0, 1000.0});  // 1000 B/s
  Recorder a;
  Recorder b;
  const NodeId na = net.add_node("a", &a);
  const NodeId nb = net.add_node("b", &b);
  net.send(na, nb, Channel::main_channel, util::Bytes(500, 0));  // 0.5 s
  net.run_until_idle();
  EXPECT_EQ(net.now(), util::kSecond / 2);
}

TEST(SimNetworkTest, FifoPerDirectedPairEvenWithMixedSizes) {
  SimNetwork net;
  net.set_lan_model({util::milliseconds(1), 1000.0});
  Recorder a;
  Recorder b;
  const NodeId na = net.add_node("a", &a);
  const NodeId nb = net.add_node("b", &b);
  // Large message first, tiny second: the tiny one must NOT overtake.
  net.send(na, nb, Channel::main_channel, util::Bytes(900, 1));
  net.send(na, nb, Channel::main_channel, util::Bytes(1, 2));
  net.run_until_idle();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].payload.size(), 900u);
  EXPECT_EQ(b.received[1].payload.size(), 1u);
}

TEST(SimNetworkTest, TimersFireInOrderAndCancel) {
  SimNetwork net;
  Recorder a;
  const NodeId na = net.add_node("a", &a);
  std::vector<int> fired;
  net.schedule(na, util::milliseconds(10), [&] { fired.push_back(2); });
  net.schedule(na, util::milliseconds(5), [&] { fired.push_back(1); });
  const TimerId cancelled =
      net.schedule(na, util::milliseconds(7), [&] { fired.push_back(99); });
  net.cancel(cancelled);
  net.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(SimNetworkTest, CancelAfterFireLeavesNothingPending) {
  // Callers cancel timers that may already have fired (a reply beat its
  // timeout); no id may outlive its timer for the rest of the run.
  SimNetwork net;
  Recorder a;
  const NodeId na = net.add_node("a", &a);
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    const TimerId id =
        net.schedule(na, util::microseconds(1), [&] { ++fired; });
    net.run_until_idle();
    net.cancel(id);
  }
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(net.pending_timer_count(), 0u);

  // Cancelled before it is due: gone at once, never fires, and skipping its
  // queued event does not advance virtual time.
  const util::TimePoint t0 = net.now();
  const TimerId late = net.schedule(na, util::seconds(60), [&] { ++fired; });
  EXPECT_EQ(net.pending_timer_count(), 1u);
  net.cancel(late);
  EXPECT_EQ(net.pending_timer_count(), 0u);
  EXPECT_EQ(net.run_until_idle(), 1u);
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(net.now(), t0);
}

TEST(SimNetworkTest, DeterministicEventOrderAcrossRuns) {
  const auto run = [](std::uint64_t /*seed*/) {
    SimNetwork net;
    net.set_lan_model({util::milliseconds(1), 1e9});
    Recorder recv;
    std::vector<NodeId> senders;
    const NodeId sink = net.add_node("sink", &recv);
    Recorder dummy;
    for (int i = 0; i < 5; ++i) {
      senders.push_back(net.add_node("s" + std::to_string(i), &dummy));
    }
    for (int round = 0; round < 10; ++round) {
      for (std::size_t s = 0; s < senders.size(); ++s) {
        net.send(senders[s], sink, Channel::main_channel,
                 util::to_bytes(std::to_string(round * 10 + s)));
      }
    }
    net.run_until_idle();
    std::string trace;
    for (const auto& m : recv.received) {
      trace += util::to_string(m.payload) + ",";
    }
    return trace;
  };
  EXPECT_EQ(run(1), run(1));
}

TEST(SimNetworkTest, TrafficAccountingSplitsWanAndLan) {
  SimNetwork net;
  Recorder a;
  Recorder b;
  Recorder c;
  const NodeId na = net.add_node("a", &a, DomainId{1});
  const NodeId nb = net.add_node("b", &b, DomainId{1});
  const NodeId nc = net.add_node("c", &c, DomainId{2});
  net.send(na, nb, Channel::main_channel, util::Bytes(10, 0));
  net.send(na, nc, Channel::main_channel, util::Bytes(20, 0));
  net.run_until_idle();
  const TrafficStats t = net.traffic();
  EXPECT_EQ(t.messages, 2u);
  EXPECT_EQ(t.bytes, 30u);
  EXPECT_EQ(t.wan_messages, 1u);
  EXPECT_EQ(t.wan_bytes, 20u);
  net.reset_traffic();
  EXPECT_EQ(net.traffic().messages, 0u);
}

TEST(SimNetworkTest, RunForAdvancesVirtualTimeEvenWhenIdle) {
  SimNetwork net;
  Recorder a;
  net.add_node("a", &a);
  net.run_for(util::seconds(5));
  EXPECT_EQ(net.now(), util::seconds(5));
}

TEST(SimNetworkTest, RunUntilPredicate) {
  SimNetwork net;
  Recorder a;
  const NodeId na = net.add_node("a", &a);
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) net.schedule(na, util::milliseconds(1), tick);
  };
  net.schedule(na, 0, tick);
  EXPECT_TRUE(net.run_until([&] { return count >= 5; }));
  EXPECT_EQ(count, 5);
}

TEST(SimNetworkTest, NodeMetadata) {
  SimNetwork net;
  Recorder a;
  const NodeId na = net.add_node("alpha", &a, DomainId{3});
  EXPECT_EQ(net.node_name(na), "alpha");
  EXPECT_EQ(net.node_domain(na), DomainId{3});
}

// ---------------------------------------------------------------------------
// ThreadNetwork
// ---------------------------------------------------------------------------

class CountingHandler : public MessageHandler {
 public:
  void on_message(const Message&) override {
    count.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<int> count{0};
};

TEST(ThreadNetworkTest, DeliversMessages) {
  ThreadNetwork net;
  CountingHandler a;
  CountingHandler b;
  const NodeId na = net.add_node("a", &a);
  const NodeId nb = net.add_node("b", &b);
  net.start();
  for (int i = 0; i < 100; ++i) {
    net.send(na, nb, Channel::main_channel, util::Bytes(8, 0));
  }
  EXPECT_TRUE(net.wait_idle(util::seconds(5)));
  EXPECT_EQ(b.count.load(), 100);
  net.stop();
}

TEST(ThreadNetworkTest, TimersRun) {
  ThreadNetwork net;
  CountingHandler a;
  const NodeId na = net.add_node("a", &a);
  net.start();
  std::atomic<bool> fired{false};
  net.schedule(na, util::milliseconds(5), [&] { fired.store(true); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load());
  net.stop();
}

TEST(ThreadNetworkTest, CancelledTimerDoesNotFire) {
  ThreadNetwork net;
  CountingHandler a;
  const NodeId na = net.add_node("a", &a);
  net.start();
  std::atomic<bool> fired{false};
  const TimerId id =
      net.schedule(na, util::milliseconds(50), [&] { fired.store(true); });
  net.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(fired.load());
  net.stop();
}

TEST(ThreadNetworkTest, HandlerRunsOnSingleThreadPerNode) {
  // The actor guarantee: no two handler invocations for one node overlap.
  class RaceDetector : public MessageHandler {
   public:
    void on_message(const Message&) override {
      const int in = depth.fetch_add(1, std::memory_order_acq_rel);
      EXPECT_EQ(in, 0);
      // Give a would-be concurrent call a chance to overlap.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      depth.fetch_sub(1, std::memory_order_acq_rel);
      ++handled;
    }
    std::atomic<int> depth{0};
    int handled = 0;
  };
  ThreadNetwork net;
  RaceDetector d;
  CountingHandler src;
  const NodeId ns = net.add_node("src", &src);
  const NodeId nd = net.add_node("dst", &d);
  net.start();
  for (int i = 0; i < 64; ++i) {
    net.send(ns, nd, Channel::main_channel, {});
  }
  EXPECT_TRUE(net.wait_idle(util::seconds(10)));
  EXPECT_EQ(d.handled, 64);
  net.stop();
}

TEST(ThreadNetworkTest, StopIsIdempotentAndSafe) {
  ThreadNetwork net;
  CountingHandler a;
  net.add_node("a", &a);
  net.start();
  net.stop();
  net.stop();
}

}  // namespace
}  // namespace discover::net
