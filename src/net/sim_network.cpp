#include "net/sim_network.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace discover::net {

namespace {

std::pair<std::uint32_t, std::uint32_t> unordered_pair(std::uint32_t a,
                                                       std::uint32_t b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

const char* channel_name(Channel c) {
  switch (c) {
    case Channel::main_channel: return "main";
    case Channel::command: return "command";
    case Channel::response: return "response";
    case Channel::control: return "control";
    case Channel::http: return "http";
    case Channel::giop: return "giop";
  }
  return "?";
}

SimNetwork::SimNetwork() = default;

NodeId SimNetwork::add_node(std::string name, MessageHandler* handler,
                            DomainId domain) {
  nodes_.push_back(NodeInfo{std::move(name), handler, domain, false});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void SimNetwork::set_domain_link(DomainId a, DomainId b, LinkModel m) {
  domain_links_[unordered_pair(a.value(), b.value())] = m;
}

void SimNetwork::set_link_faults(NodeId a, NodeId b, FaultPlan p) {
  link_faults_[unordered_pair(a.value(), b.value())] = p;
}

void SimNetwork::partition(NodeId a, NodeId b) {
  node_partitions_.insert(unordered_pair(a.value(), b.value()));
}

void SimNetwork::heal(NodeId a, NodeId b) {
  node_partitions_.erase(unordered_pair(a.value(), b.value()));
}

void SimNetwork::partition_domains(DomainId a, DomainId b) {
  domain_partitions_.insert(unordered_pair(a.value(), b.value()));
}

void SimNetwork::heal_domains(DomainId a, DomainId b) {
  domain_partitions_.erase(unordered_pair(a.value(), b.value()));
}

void SimNetwork::crash_node(NodeId node) {
  nodes_.at(node.value()).crashed = true;
}

void SimNetwork::restart_node(NodeId node) {
  nodes_.at(node.value()).crashed = false;
}

bool SimNetwork::node_crashed(NodeId node) const {
  return nodes_.at(node.value()).crashed;
}

const LinkModel& SimNetwork::link_between(NodeId a, NodeId b) const {
  const DomainId da = nodes_[a.value()].domain;
  const DomainId db = nodes_[b.value()].domain;
  if (da == db) return lan_;
  const auto it = domain_links_.find(unordered_pair(da.value(), db.value()));
  return it != domain_links_.end() ? it->second : wan_;
}

const FaultPlan& SimNetwork::faults_between(NodeId a, NodeId b) const {
  const auto it =
      link_faults_.find(unordered_pair(a.value(), b.value()));
  if (it != link_faults_.end()) return it->second;
  return nodes_[a.value()].domain == nodes_[b.value()].domain ? lan_faults_
                                                              : wan_faults_;
}

bool SimNetwork::partitioned(NodeId a, NodeId b) const {
  if (node_partitions_.count(unordered_pair(a.value(), b.value())) != 0) {
    return true;
  }
  const DomainId da = nodes_[a.value()].domain;
  const DomainId db = nodes_[b.value()].domain;
  return domain_partitions_.count(unordered_pair(da.value(), db.value())) !=
         0;
}

void SimNetwork::trace_line(const char* what, NodeId from, NodeId to,
                            Channel channel, std::uint64_t seq_or_size) {
  if (!trace_enabled_) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%lld %s %u>%u %s %llu\n",
                static_cast<long long>(now()), what, from.value(), to.value(),
                channel_name(channel),
                static_cast<unsigned long long>(seq_or_size));
  trace_ += buf;
}

void SimNetwork::push_event(Event&& ev) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(ev);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(ev));
  }
  queue_.push(EventRef{slots_[slot].at, slots_[slot].seq, slot});
}

void SimNetwork::enqueue_message(NodeId from, NodeId to, Channel channel,
                                 const Payload& payload,
                                 util::TimePoint arrive) {
  Event ev;
  ev.at = arrive;
  ev.seq = next_seq_++;
  ev.node = to;
  ev.msg.src = from;
  ev.msg.dst = to;
  ev.msg.channel = channel;
  ev.msg.payload = payload;
  ev.msg.sent_at = now();
  ev.msg.seq = ev.seq;
  push_event(std::move(ev));
}

void SimNetwork::send(NodeId from, NodeId to, Channel channel,
                      Payload payload) {
  assert(from.value() < nodes_.size() && to.value() < nodes_.size());
  const LinkModel& link = link_between(from, to);
  const std::size_t size = payload.size();

  // FIFO per directed pair: the message can start serializing only once the
  // previous one finished; arrival = departure + transfer + propagation.
  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  util::TimePoint& busy_until = link_busy_until_[pair_key];
  const util::TimePoint depart = std::max(now(), busy_until);
  busy_until = depart + link.transfer_time(size);
  util::TimePoint arrive = busy_until + link.latency;

  traffic_.messages++;
  traffic_.bytes += size;
  if (nodes_[from.value()].domain != nodes_[to.value()].domain) {
    traffic_.wan_messages++;
    traffic_.wan_bytes += size;
  }

  // Fault pipeline.  A crashed endpoint or an active partition beats the
  // probabilistic plan (no RNG draw, so toggling partitions does not shift
  // the random sequence of surviving links).
  if (nodes_[from.value()].crashed || nodes_[to.value()].crashed) {
    ++faults_.crash_drops;
    trace_line("crashdrop", from, to, channel, size);
    return;
  }
  if (partitioned(from, to)) {
    ++faults_.partition_drops;
    trace_line("partdrop", from, to, channel, size);
    return;
  }
  const FaultPlan& plan = faults_between(from, to);
  if (plan.active()) {
    // Fixed draw order (drop, jitter, duplicate, duplicate-jitter) keeps
    // the RNG stream identical for identical scenario programs.
    if (plan.drop_prob > 0 && fault_rng_.chance(plan.drop_prob)) {
      ++faults_.dropped;
      trace_line("drop", from, to, channel, size);
      return;
    }
    if (plan.jitter_max > 0) {
      arrive += static_cast<util::Duration>(
          fault_rng_.below(static_cast<std::uint64_t>(plan.jitter_max) + 1));
    }
    if (plan.duplicate_prob > 0 && fault_rng_.chance(plan.duplicate_prob)) {
      util::TimePoint dup_arrive = arrive;
      if (plan.jitter_max > 0) {
        dup_arrive += static_cast<util::Duration>(fault_rng_.below(
            static_cast<std::uint64_t>(plan.jitter_max) + 1));
      }
      ++faults_.duplicated;
      trace_line("dup", from, to, channel, size);
      enqueue_message(from, to, channel, payload, dup_arrive);
    }
  }
  enqueue_message(from, to, channel, payload, arrive);
}

TimerId SimNetwork::schedule(NodeId node, util::Duration delay,
                             std::function<void()> fn) {
  assert(node.value() < nodes_.size());
  Event ev;
  ev.at = now() + std::max<util::Duration>(delay, 0);
  ev.seq = next_seq_++;
  ev.node = node;
  ev.timer_fn = std::move(fn);
  ev.timer_id = next_timer_++;
  const TimerId id{ev.timer_id};
  pending_timers_.insert(ev.timer_id);
  push_event(std::move(ev));
  return id;
}

void SimNetwork::cancel(TimerId id) { pending_timers_.erase(id.value()); }

const std::string& SimNetwork::node_name(NodeId id) const {
  return nodes_.at(id.value()).name;
}

DomainId SimNetwork::node_domain(NodeId id) const {
  return nodes_.at(id.value()).domain;
}

void SimNetwork::dispatch(Event& ev) {
  if (ev.timer_id != 0) {
    if (pending_timers_.erase(ev.timer_id) == 0) {
      // Cancelled timers are consumed without advancing virtual time, so a
      // far-future cancelled deadline left in the queue cannot drag the
      // clock forward during run_until_idle().
      return;
    }
    clock_.advance_to(ev.at);
    if (nodes_[ev.node.value()].crashed) {
      // A crashed node's timers are lost, exactly like its in-flight
      // messages: the crash wiped its execution context.
      ++faults_.crash_drops;
      trace_line("crashtimer", ev.node, ev.node, Channel::control,
                 ev.timer_id);
      return;
    }
    trace_line("timer", ev.node, ev.node, Channel::control, ev.timer_id);
    ev.timer_fn();
  } else {
    clock_.advance_to(ev.at);
    if (nodes_[ev.node.value()].crashed) {
      ++faults_.crash_drops;
      trace_line("crashdrop", ev.msg.src, ev.msg.dst, ev.msg.channel,
                 ev.msg.payload.size());
      return;
    }
    trace_line("deliver", ev.msg.src, ev.msg.dst, ev.msg.channel, ev.seq);
    MessageHandler* handler = nodes_[ev.node.value()].handler;
    if (handler != nullptr) handler->on_message(ev.msg);
  }
}

bool SimNetwork::step() {
  if (queue_.empty()) return false;
  const EventRef ref = queue_.top();
  queue_.pop();
  // Move the body out before dispatching: the handler may enqueue new
  // events, which can reuse or reallocate slots.
  Event ev = std::move(slots_[ref.slot]);
  free_slots_.push_back(ref.slot);
  dispatch(ev);
  return true;
}

std::size_t SimNetwork::run_until_idle() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t SimNetwork::run_for(util::Duration window) {
  const util::TimePoint deadline = now() + window;
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    step();
    ++n;
  }
  clock_.advance_to(deadline);
  return n;
}

bool SimNetwork::run_until(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (step()) {
    if (pred()) return true;
  }
  return false;
}

}  // namespace discover::net
