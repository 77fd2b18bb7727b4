// net::Executor, the execution context under ThreadNetwork, OsNetwork and
// the sharded server core (`ctest -L osnet`):
//  * ordering — each owner runs its messages and tasks in post order, on
//    its own worker, and on_owner() is scoped to one executor instance;
//    the after-task hook runs on the worker before the task counts as done;
//  * run_or_deliver — an idle owner's message runs on the calling thread,
//    a busy or queued owner's waits its turn on the worker, and racing
//    callers, tasks and timers never put two threads inside one owner or
//    reorder a caller's messages;
//  * lifecycle — stop() lets the running task finish, drops what is queued
//    and everything posted later, and wait_idle() still returns;
//  * timer hygiene on both real-time backends — cancel() erases at once,
//    a cancel/fire soak leaves nothing pending, and cancelled timers cost
//    no CPU (the OsNetwork loop used to spin through each sub-millisecond
//    deadline, cancelled or not);
//  * the one deadline left on the OsNetwork loop — a sub-millisecond
//    reconnect backoff — sleeps instead of spinning.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/executor.h"
#include "net/os_network.h"
#include "net/thread_network.h"

namespace discover {
namespace {

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

class NullHandler final : public net::MessageHandler {
 public:
  void on_message(const net::Message&) override {}
};

/// Records every message's seq; touched only by its owner's worker.
class SeqRecorder final : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    seen.push_back(msg.seq);
  }
  std::vector<std::uint64_t> seen;
};

// -- ordering ---------------------------------------------------------------

TEST(Executor, EachOwnerRunsItsWorkInPostOrder) {
  net::Executor exec;
  SeqRecorder owners[2];
  exec.add_owner(&owners[0]);
  exec.add_owner(&owners[1]);
  // Messages and tasks share one FIFO per owner; half the work is queued
  // before the workers exist.
  std::uint64_t seq = 0;
  const auto post_round = [&] {
    for (int i = 0; i < 500; ++i) {
      const std::size_t owner = static_cast<std::size_t>(i % 2);
      net::Message msg;
      msg.seq = ++seq;
      exec.deliver(owner, msg);
      const std::uint64_t marker = ++seq;
      exec.post(owner, [&owners, owner, marker] {
        owners[owner].seen.push_back(marker);
      });
    }
  };
  post_round();
  exec.start();
  post_round();
  ASSERT_TRUE(exec.wait_idle(util::seconds(10)));
  for (const SeqRecorder& owner : owners) {
    ASSERT_EQ(owner.seen.size(), 1000u);
    EXPECT_TRUE(std::is_sorted(owner.seen.begin(), owner.seen.end()));
  }
  exec.stop();
}

TEST(Executor, TasksRunOnTheirOwnWorker) {
  constexpr std::size_t kOwners = 4;
  net::Executor exec;
  for (std::size_t i = 0; i < kOwners; ++i) exec.add_owner();
  exec.start();
  std::vector<std::vector<bool>> observed(kOwners,
                                          std::vector<bool>(kOwners));
  for (std::size_t i = 0; i < kOwners; ++i) {
    exec.post(i, [&exec, &observed, i] {
      for (std::size_t k = 0; k < kOwners; ++k) {
        observed[i][k] = exec.on_owner(k);
      }
    });
  }
  ASSERT_TRUE(exec.wait_idle(util::seconds(5)));
  for (std::size_t i = 0; i < kOwners; ++i) {
    for (std::size_t k = 0; k < kOwners; ++k) {
      EXPECT_EQ(observed[i][k], i == k) << "task " << i << " owner " << k;
    }
    EXPECT_FALSE(exec.on_owner(i));  // the test thread owns nothing
  }
  exec.stop();
}

TEST(Executor, NetworkWorkerIsNotAShardExecutorsOwner) {
  // The sharded server's inline check: node 0's network worker must not
  // pass for shard 0 just because both are owner 0 of some executor.
  net::ThreadNetwork tnet;
  NullHandler h;
  const net::NodeId node = tnet.add_node("server", &h);
  net::Executor shards;
  shards.add_owner();
  tnet.start();
  shards.start();
  std::promise<bool> from_network;
  std::promise<bool> from_shard;
  tnet.post(node, [&] { from_network.set_value(shards.on_owner(0)); });
  shards.post(0, [&] { from_shard.set_value(shards.on_owner(0)); });
  EXPECT_FALSE(from_network.get_future().get());
  EXPECT_TRUE(from_shard.get_future().get());
  shards.stop();
  tnet.stop();
}

TEST(Executor, AfterTaskHookRunsOnTheWorkerBeforeIdle) {
  // OsNetwork pays the loop wake a task's later sends deferred in this hook,
  // so it must run on the worker after each task and before wait_idle() can
  // return.
  net::Executor exec;
  exec.add_owner();
  exec.add_owner();
  std::atomic<int> hooks{0};
  std::atomic<int> off_worker{0};
  exec.set_after_task([&] {
    if (!exec.on_worker()) off_worker.fetch_add(1);
    hooks.fetch_add(1);
  });
  exec.start();
  EXPECT_THROW(exec.set_after_task({}), std::logic_error);
  for (int i = 0; i < 10; ++i) exec.post(i % 2, [] {});
  ASSERT_TRUE(exec.wait_idle(util::seconds(5)));
  EXPECT_EQ(hooks.load(), 10);
  EXPECT_EQ(off_worker.load(), 0);
  EXPECT_FALSE(exec.on_worker());  // the test thread is no worker
  exec.stop();
}

// -- run_or_deliver ---------------------------------------------------------

/// Records the thread each message ran on.
class ThreadRecorder final : public net::MessageHandler {
 public:
  void on_message(const net::Message&) override {
    threads.push_back(std::this_thread::get_id());
  }
  std::vector<std::thread::id> threads;
};

TEST(Executor, RunOrDeliverRunsOnlyAnIdleOwnersMessageHere) {
  net::Executor exec;
  ThreadRecorder h;
  exec.add_owner(&h);
  const auto here = std::this_thread::get_id();
  // Queued work (before start() no worker drains it) keeps its turn: the
  // message queues behind it and runs on the worker.
  exec.post(0, [] {});
  EXPECT_FALSE(exec.run_or_deliver(0, net::Message{}));
  exec.start();
  ASSERT_TRUE(exec.wait_idle(util::seconds(5)));
  ASSERT_EQ(h.threads.size(), 1u);
  EXPECT_NE(h.threads[0], here);

  // A running task holds the owner, and so does one queued behind it.
  std::promise<void> entered;
  std::atomic<bool> release{false};
  exec.post(0, [&] {
    entered.set_value();
    while (!release.load()) std::this_thread::yield();
  });
  entered.get_future().wait();
  EXPECT_FALSE(exec.run_or_deliver(0, net::Message{}));
  exec.post(0, [] {});
  EXPECT_FALSE(exec.run_or_deliver(0, net::Message{}));
  release.store(true);
  ASSERT_TRUE(exec.wait_idle(util::seconds(5)));
  ASSERT_EQ(h.threads.size(), 3u);
  EXPECT_NE(h.threads[1], here);
  EXPECT_NE(h.threads[2], here);

  // Idle: the message runs here, and counts until it has run.
  EXPECT_TRUE(exec.run_or_deliver(0, net::Message{}));
  ASSERT_EQ(h.threads.size(), 4u);
  EXPECT_EQ(h.threads[3], here);
  EXPECT_TRUE(exec.wait_idle(util::seconds(1)));

  exec.stop();
  EXPECT_FALSE(exec.run_or_deliver(0, net::Message{}));
  EXPECT_TRUE(exec.wait_idle(util::seconds(1)));
  EXPECT_EQ(h.threads.size(), 4u);
}

TEST(Executor, RunOrDeliverNeverOverlapsTheOwnersTasks) {
  // Callers race run_or_deliver (as the OsNetwork loop calls it) against
  // posted tasks and timers on one owner.  Every handler and task counts
  // itself in and out: two threads inside the owner at once would lift the
  // count above one.  Each caller's messages must also run in its order,
  // whichever path each one took.
  constexpr std::uint32_t kCallers = 3;
  constexpr std::uint64_t kPerCaller = 3000;
  struct Guarded final : net::MessageHandler {
    std::atomic<int> inside{0};
    std::atomic<int> max_inside{0};
    // Touched only inside the owner.
    std::vector<std::uint64_t> next = std::vector<std::uint64_t>(kCallers);
    std::uint64_t messages = 0;
    std::uint64_t tasks = 0;
    bool reordered = false;

    void enter() {
      const int n = inside.fetch_add(1) + 1;
      int seen = max_inside.load();
      while (n > seen && !max_inside.compare_exchange_weak(seen, n)) {
      }
    }
    void leave() { inside.fetch_sub(1); }
    void on_message(const net::Message& msg) override {
      enter();
      if (msg.seq != next[msg.src.value()]++) reordered = true;
      ++messages;
      leave();
    }
    void task() {
      enter();
      ++tasks;
      leave();
    }
  };
  Guarded g;
  net::Executor exec;
  exec.add_owner(&g);
  exec.start();

  std::atomic<std::uint64_t> inline_runs{0};
  std::atomic<std::uint64_t> queued{0};
  std::vector<std::thread> callers;
  for (std::uint32_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::uint64_t k = 0; k < kPerCaller; ++k) {
        net::Message msg;
        msg.src = net::NodeId{c};
        msg.seq = k;
        if (exec.run_or_deliver(0, std::move(msg))) {
          inline_runs.fetch_add(1);
        } else {
          queued.fetch_add(1);
        }
        if (k % 16 == 0) exec.post(0, [&g] { g.task(); });
        if (k % 256 == 0) {
          exec.schedule(0, util::microseconds(50), [&g] { g.task(); });
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (exec.pending_timer_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(exec.wait_idle(util::seconds(10)));
  exec.stop();

  EXPECT_LE(g.max_inside.load(), 1);
  EXPECT_FALSE(g.reordered);
  EXPECT_EQ(g.messages, kCallers * kPerCaller);
  EXPECT_EQ(g.tasks, kCallers * (kPerCaller / 16 + 1 + kPerCaller / 256 + 1));
  // Both paths ran.
  EXPECT_GT(inline_runs.load(), 0u);
  EXPECT_GT(queued.load(), 0u);
}

// -- lifecycle --------------------------------------------------------------

TEST(Executor, StopFinishesTheRunningTaskAndDropsTheRest) {
  net::Executor exec;
  exec.add_owner();
  exec.start();
  std::promise<void> entered;
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  exec.post(0, [&] {
    entered.set_value();
    while (!release.load()) std::this_thread::yield();
    ++ran;
  });
  exec.post(0, [&] { ++ran; });  // queued behind the running task
  exec.schedule(0, util::seconds(60), [&] { ++ran; });
  entered.get_future().wait();

  std::thread stopper([&] { exec.stop(); });
  // stop() empties the timer map right after raising its flag, so an empty
  // map means nothing queued can run any more.
  while (exec.pending_timer_count() != 0) std::this_thread::yield();
  release.store(true);
  stopper.join();
  EXPECT_EQ(ran.load(), 1);

  exec.post(0, [&] { ++ran; });
  exec.schedule(0, util::milliseconds(1), [&] { ++ran; });
  EXPECT_EQ(exec.pending_timer_count(), 0u);
  EXPECT_TRUE(exec.wait_idle(util::seconds(1)));
  EXPECT_EQ(ran.load(), 1);
}

// -- timer hygiene on both backends -----------------------------------------

/// One started network with one local node, ThreadNetwork or OsNetwork.
template <typename Net>
struct Backend {
  Backend() {
    if constexpr (std::is_same_v<Net, net::OsNetwork>) {
      EXPECT_TRUE(net.start().ok());
    } else {
      net.start();
    }
  }
  ~Backend() { net.stop(); }
  NullHandler handler;
  Net net;
  net::NodeId node = net.add_node("t", &handler);
};

template <typename Net>
class TimerHygiene : public ::testing::Test {};
using Backends = ::testing::Types<net::ThreadNetwork, net::OsNetwork>;
TYPED_TEST_SUITE(TimerHygiene, Backends);

TYPED_TEST(TimerHygiene, CancelErasesAtOnce) {
  Backend<TypeParam> b;
  std::atomic<bool> fired{false};
  const net::TimerId id =
      b.net.schedule(b.node, util::seconds(60), [&] { fired = true; });
  EXPECT_EQ(b.net.pending_timer_count(), 1u);
  b.net.cancel(id);
  EXPECT_EQ(b.net.pending_timer_count(), 0u);
  b.net.cancel(id);  // cancelling twice (or after firing) is harmless
  EXPECT_EQ(b.net.pending_timer_count(), 0u);
  EXPECT_FALSE(fired.load());
}

TYPED_TEST(TimerHygiene, CancelFireSoakLeavesNothingPending) {
  Backend<TypeParam> b;
  std::atomic<int> fired{0};
  constexpr int kRounds = 50;
  constexpr int kPerRound = 100;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<net::TimerId> ids;
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(b.net.schedule(b.node, util::milliseconds(1 + i % 5),
                                   [&] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) b.net.cancel(ids[i]);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (b.net.pending_timer_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(b.net.pending_timer_count(), 0u);
  ASSERT_TRUE(b.net.wait_idle(util::seconds(10)));
  // Every uncancelled timer fired; a cancel can only lose a race with a
  // timer that was already due.
  EXPECT_GE(fired.load(), kRounds * kPerRound / 2);
  EXPECT_LE(fired.load(), kRounds * kPerRound);
}

TYPED_TEST(TimerHygiene, CancelledTimersCostNoCpu) {
  // The ORB's pattern: call timeouts, 0.5 ms apart, all cancelled on reply.
  Backend<TypeParam> b;
  for (int i = 1; i <= 4000; ++i) {
    b.net.cancel(b.net.schedule(b.node, i * util::microseconds(500), [] {}));
  }
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const double cpu = process_cpu_seconds() - before;
  EXPECT_LT(cpu, 0.4) << "process CPU seconds over the cancelled deadlines";
}

// -- the OsNetwork loop's own deadline ---------------------------------------

TEST(OsNetworkLoop, SubMillisecondReconnectBackoffDoesNotSpin) {
  // A port nothing listens on: bind an ephemeral one, then release it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ::close(probe);

  // A fixed 2 ms backoff: every wait ends in a sub-millisecond remainder.
  net::OsNetworkConfig cfg;
  cfg.listen = false;
  cfg.reconnect = net::RetryPolicy{1u << 30, util::milliseconds(2), 1.0,
                                   util::milliseconds(2), 0.0};
  net::OsNetwork onet(cfg);
  NullHandler h;
  const net::NodeId src = onet.add_node("src", &h);
  const net::NodeId dst =
      onet.add_remote("nobody", "127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(onet.start().ok());
  onet.send(src, dst, net::Channel::command, util::Bytes{1, 2, 3});

  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu = process_cpu_seconds() - before;
  EXPECT_GT(onet.os_stats().reconnects, 10u);
  onet.stop();
  EXPECT_LT(cpu, 0.3) << "process CPU seconds in one second of retries";
}

}  // namespace
}  // namespace discover
