// Deterministic discrete-event network backend.
//
// Virtual time, explicit link models (propagation latency + serialization
// bandwidth), per-directed-pair FIFO, seeded determinism: two runs with the
// same inputs produce byte-identical event orders.  This backend drives the
// topology/latency/traffic experiments (E4, E5, E6, E7, E8) and all
// integration tests.
//
// Fault injection: each link class (LAN/WAN, or a per-node-pair override)
// can carry a FaultPlan (seeded drop/duplicate/jitter), node pairs or whole
// domain pairs can be partitioned and healed, and nodes can crash and
// restart.  All fault decisions draw from one seeded Rng in send order, so
// a chaos run is exactly reproducible from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/fault.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/rng.h"

namespace discover::net {

/// One directed link's cost model.  Transfer of an n-byte message occupies
/// the link for n/bytes_per_sec, then propagates for `latency`.
struct LinkModel {
  util::Duration latency = 0;
  double bytes_per_sec = 1e9;  // effectively infinite by default

  [[nodiscard]] util::Duration transfer_time(std::size_t bytes) const {
    if (bytes_per_sec <= 0) return 0;
    return static_cast<util::Duration>(
        static_cast<double>(bytes) / bytes_per_sec * 1e9);
  }
};

class SimNetwork final : public Network {
 public:
  SimNetwork();

  // -- topology ------------------------------------------------------------
  NodeId add_node(std::string name, MessageHandler* handler,
                  DomainId domain = DomainId{0}) override;
  /// Link model used between nodes of the same domain.
  void set_lan_model(LinkModel m) { lan_ = m; }
  /// Default link model between nodes of different domains.
  void set_wan_model(LinkModel m) { wan_ = m; }
  /// Overrides the model for one ordered domain pair (applied both ways).
  void set_domain_link(DomainId a, DomainId b, LinkModel m);

  // -- fault injection -----------------------------------------------------
  /// Reseeds the fault RNG; chaos runs replay exactly from the same seed.
  void set_fault_seed(std::uint64_t seed) { fault_rng_ = util::Rng(seed); }
  /// Fault plan for links within one domain.
  void set_lan_faults(FaultPlan p) { lan_faults_ = p; }
  /// Fault plan for links between different domains.
  void set_wan_faults(FaultPlan p) { wan_faults_ = p; }
  /// Overrides the plan for one unordered node pair (both directions).
  void set_link_faults(NodeId a, NodeId b, FaultPlan p);
  /// Cuts / restores both directions between two nodes.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  /// Cuts / restores all traffic between two domains (both directions).
  void partition_domains(DomainId a, DomainId b);
  void heal_domains(DomainId a, DomainId b);
  /// Whole-node crash: messages to/from the node are lost and its pending
  /// timers are consumed without firing (a real crash loses its timers).
  /// restart_node only re-opens the network; components must re-initialize
  /// themselves.
  void crash_node(NodeId node);
  void restart_node(NodeId node);
  [[nodiscard]] bool node_crashed(NodeId node) const;

  [[nodiscard]] const FaultStats& fault_stats() const { return faults_; }

  /// Event-trace recording: when enabled, every delivery, timer firing and
  /// fault decision appends one line.  Two same-seed runs must produce
  /// byte-identical traces — the determinism oracle of the chaos suite.
  void set_trace_enabled(bool on) { trace_enabled_ = on; }
  [[nodiscard]] const std::string& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  // -- Network interface ---------------------------------------------------
  void send(NodeId from, NodeId to, Channel channel,
            Payload payload) override;
  TimerId schedule(NodeId node, util::Duration delay,
                   std::function<void()> fn) override;
  void cancel(TimerId id) override;
  [[nodiscard]] util::TimePoint now() const override { return clock_.now(); }
  [[nodiscard]] const util::Clock& clock() const override { return clock_; }
  [[nodiscard]] TrafficStats traffic() const override { return traffic_; }
  void reset_traffic() override { traffic_ = {}; }
  [[nodiscard]] const std::string& node_name(NodeId id) const override;
  [[nodiscard]] DomainId node_domain(NodeId id) const override;

  // -- event loop ----------------------------------------------------------
  /// Processes events until the queue is empty.  Returns events processed.
  /// Only terminates if the protocol quiesces (no self-rescheduling timers).
  std::size_t run_until_idle();
  /// Processes events with timestamp <= now+window; virtual time advances to
  /// now+window even if the queue empties early.  Returns events processed.
  std::size_t run_for(util::Duration window);
  /// Processes a single event.  Returns false if the queue is empty.
  bool step();
  /// Processes events until `pred()` is true (checked after each event) or
  /// the queue empties.  Returns true if the predicate fired.
  bool run_until(const std::function<bool()>& pred);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Timers scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending_timer_count() const {
    return pending_timers_.size();
  }

 private:
  struct Event {
    util::TimePoint at;
    std::uint64_t seq;  // tie-break: FIFO among simultaneous events
    // Exactly one of the two is active.
    Message msg;
    std::function<void()> timer_fn;
    std::uint64_t timer_id = 0;  // nonzero for timers
    NodeId node;                 // destination / timer owner
  };

  /// What actually sits in the heap: Events are >100 bytes (embedded
  /// std::function + Message), so sifting them directly dominates the
  /// delivery hot path under broadcast fan-out.  The heap orders 24-byte
  /// handles instead; the Event body stays put in `slots_`.  Ordering is
  /// the same (at, seq) total order, so event traces are unchanged.
  struct EventRef {
    util::TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;

    bool operator>(const EventRef& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  struct NodeInfo {
    std::string name;
    MessageHandler* handler;
    DomainId domain;
    bool crashed = false;
  };

  [[nodiscard]] const LinkModel& link_between(NodeId a, NodeId b) const;
  [[nodiscard]] const FaultPlan& faults_between(NodeId a, NodeId b) const;
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;
  void enqueue_message(NodeId from, NodeId to, Channel channel,
                       const Payload& payload, util::TimePoint arrive);
  void trace_line(const char* what, NodeId from, NodeId to, Channel channel,
                  std::uint64_t seq_or_size);
  void dispatch(Event& ev);
  void push_event(Event&& ev);

  util::ManualClock clock_;
  std::vector<NodeInfo> nodes_;
  LinkModel lan_{};
  LinkModel wan_{};
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkModel> domain_links_;
  // Directed (src,dst) -> time the link is busy until (serialization).
  std::unordered_map<std::uint64_t, util::TimePoint> link_busy_until_;
  std::priority_queue<EventRef, std::vector<EventRef>, std::greater<>> queue_;
  std::vector<Event> slots_;              // Event bodies, indexed by EventRef
  std::vector<std::uint32_t> free_slots_;  // reusable slot indices
  // Ids of timers neither fired nor cancelled; a queued timer event whose
  // id is gone was cancelled.
  std::unordered_set<std::uint64_t> pending_timers_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_timer_ = 1;
  TrafficStats traffic_;

  // Fault state.  std::set keeps lookup order deterministic.
  util::Rng fault_rng_{0x5eedULL};
  FaultPlan lan_faults_{};
  FaultPlan wan_faults_{};
  std::map<std::pair<std::uint32_t, std::uint32_t>, FaultPlan> link_faults_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> node_partitions_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> domain_partitions_;
  FaultStats faults_;
  bool trace_enabled_ = false;
  std::string trace_;
};

}  // namespace discover::net
