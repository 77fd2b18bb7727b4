// The transport abstraction every middleware component is written against.
//
// Execution model: each node is an actor.  Its MessageHandler::on_message
// and any scheduled timer callbacks run on a single logical thread, so node
// state needs no locking.  Two backends implement the contract:
//
//  * SimNetwork    - deterministic discrete-event simulation, virtual time.
//  * ThreadNetwork - one OS thread per node, real time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/message.h"
#include "util/clock.h"

namespace discover::net {

class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  /// Invoked in the destination node's execution context.
  virtual void on_message(const Message& msg) = 0;
};

/// Aggregate traffic counters kept by both backends.  WAN figures count
/// messages whose endpoints live in different domains — the quantity the
/// paper's collaboration-traffic argument (§5.2.3) is about.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wan_messages = 0;
  std::uint64_t wan_bytes = 0;
};

class Network {
 public:
  virtual ~Network() = default;

  /// Registers a node.  The handler must outlive the network (or be removed
  /// before destruction).  `domain` groups nodes into sites.
  virtual NodeId add_node(std::string name, MessageHandler* handler,
                          DomainId domain = DomainId{0}) = 0;

  /// FIFO send; payload is consumed.  Delivery is reliable by default but
  /// subject to the backend's fault plan: a backend configured with drop,
  /// duplication, jitter, partitions, or node crashes may lose, repeat, or
  /// delay the message.  Layers needing end-to-end reliability must retry
  /// (see net/retry.h).
  ///
  /// Payload converts implicitly from util::Bytes; broadcast call sites can
  /// instead build one Payload and pass the same instance to every send, in
  /// which case all copies (queueing, fault duplicates, fan-out) share one
  /// underlying buffer.
  virtual void send(NodeId from, NodeId to, Channel channel,
                    Payload payload) = 0;

  /// Runs `fn` in `node`'s execution context after `delay`.
  virtual TimerId schedule(NodeId node, util::Duration delay,
                           std::function<void()> fn) = 0;
  /// Best-effort cancel; a timer already fired (or firing) is unaffected.
  virtual void cancel(TimerId id) = 0;

  /// Runs `fn` in `node`'s context as soon as possible.
  TimerId post(NodeId node, std::function<void()> fn) {
    return schedule(node, 0, std::move(fn));
  }

  /// True when nodes on this backend may run multi-threaded internals
  /// (shard executors).  The simulated backend must stay false: its
  /// determinism contract assumes one logical thread for everything, so a
  /// sharded node would break byte-identical replays.
  [[nodiscard]] virtual bool supports_sharding() const { return false; }

  [[nodiscard]] virtual util::TimePoint now() const = 0;
  [[nodiscard]] virtual const util::Clock& clock() const = 0;

  [[nodiscard]] virtual TrafficStats traffic() const = 0;
  virtual void reset_traffic() = 0;

  [[nodiscard]] virtual const std::string& node_name(NodeId id) const = 0;
  [[nodiscard]] virtual DomainId node_domain(NodeId id) const = 0;
};

}  // namespace discover::net
