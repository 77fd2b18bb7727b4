// Real-time threaded network backend.
//
// Every node is an owner of one net::Executor (actor model: a node's
// handler and timers run only on its own worker).  No link model: message
// delivery cost is whatever the machine does, which is exactly what the
// saturation experiments (E1, E2, E3) need to measure.
#pragma once

#include <deque>
#include <mutex>
#include <set>
#include <string>

#include "net/executor.h"
#include "net/fault.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/rng.h"

namespace discover::net {

class ThreadNetwork final : public Network {
 public:
  ThreadNetwork();
  ~ThreadNetwork() override;

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// All nodes must be added before start().
  NodeId add_node(std::string name, MessageHandler* handler,
                  DomainId domain = DomainId{0}) override;

  /// Spawns one worker per node plus the timer thread.
  void start();
  /// Stops dispatching, drops queued work, joins all threads.  Idempotent.
  void stop();

  void send(NodeId from, NodeId to, Channel channel,
            Payload payload) override;
  TimerId schedule(NodeId node, util::Duration delay,
                   std::function<void()> fn) override;
  void cancel(TimerId id) override;
  [[nodiscard]] util::TimePoint now() const override {
    return exec_.clock().now();
  }
  [[nodiscard]] const util::Clock& clock() const override {
    return exec_.clock();
  }
  [[nodiscard]] TrafficStats traffic() const override;
  void reset_traffic() override;
  [[nodiscard]] const std::string& node_name(NodeId id) const override;
  [[nodiscard]] DomainId node_domain(NodeId id) const override;
  /// Real threads already back every node; a node may shard internally.
  [[nodiscard]] bool supports_sharding() const override { return true; }

  /// Blocks until no task is queued or executing anywhere (future-dated
  /// timers do not count), or until `timeout` elapses.  Returns true when
  /// idle was reached.
  bool wait_idle(util::Duration timeout);

  // -- fault injection (cheap subset) --------------------------------------
  // Under real time there is no jitter model (the scheduler supplies plenty
  // of its own); only seeded drop/duplicate plus explicit partitions.
  void set_fault_seed(std::uint64_t seed);
  /// One global plan applied to every link; jitter_max is ignored.
  void set_fault_plan(FaultPlan p);
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  [[nodiscard]] FaultStats fault_stats() const;

  /// Timers scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending_timer_count() const {
    return exec_.pending_timer_count();
  }

 private:
  struct NodeInfo {
    std::string name;
    DomainId domain{0};
  };

  // Index = node id = executor owner; a deque keeps node_name() references
  // valid while later nodes are added.
  std::deque<NodeInfo> nodes_;

  mutable std::mutex traffic_mutex_;
  TrafficStats traffic_;

  mutable std::mutex fault_mutex_;
  util::Rng fault_rng_{0x5eedULL};
  FaultPlan fault_plan_{};
  std::set<std::pair<std::uint32_t, std::uint32_t>> node_partitions_;
  FaultStats faults_;

  Executor exec_;
};

}  // namespace discover::net
