#include "net/thread_network.h"

#include <algorithm>
#include <cassert>

namespace discover::net {

namespace {

std::pair<std::uint32_t, std::uint32_t> unordered_pair(std::uint32_t a,
                                                       std::uint32_t b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

ThreadNetwork::ThreadNetwork() = default;

ThreadNetwork::~ThreadNetwork() { stop(); }

NodeId ThreadNetwork::add_node(std::string name, MessageHandler* handler,
                               DomainId domain) {
  exec_.add_owner(handler);
  nodes_.push_back(NodeInfo{std::move(name), domain});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void ThreadNetwork::start() { exec_.start(); }

void ThreadNetwork::stop() { exec_.stop(); }

void ThreadNetwork::send(NodeId from, NodeId to, Channel channel,
                         Payload payload) {
  assert(to.value() < nodes_.size());
  const std::size_t size = payload.size();
  Message msg;
  msg.src = from;
  msg.dst = to;
  msg.channel = channel;
  msg.payload = std::move(payload);
  msg.sent_at = now();
  {
    const std::lock_guard<std::mutex> lock(traffic_mutex_);
    traffic_.messages++;
    traffic_.bytes += size;
    if (nodes_[from.value()].domain != nodes_[to.value()].domain) {
      traffic_.wan_messages++;
      traffic_.wan_bytes += size;
    }
    msg.seq = traffic_.messages;
  }
  bool duplicate = false;
  {
    const std::lock_guard<std::mutex> lock(fault_mutex_);
    if (node_partitions_.count(unordered_pair(from.value(), to.value())) !=
        0) {
      ++faults_.partition_drops;
      return;
    }
    if (fault_plan_.drop_prob > 0 &&
        fault_rng_.chance(fault_plan_.drop_prob)) {
      ++faults_.dropped;
      return;
    }
    if (fault_plan_.duplicate_prob > 0 &&
        fault_rng_.chance(fault_plan_.duplicate_prob)) {
      ++faults_.duplicated;
      duplicate = true;
    }
  }
  if (duplicate) exec_.deliver(to.value(), msg);
  exec_.deliver(to.value(), std::move(msg));
}

void ThreadNetwork::set_fault_seed(std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_rng_ = util::Rng(seed);
}

void ThreadNetwork::set_fault_plan(FaultPlan p) {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_plan_ = p;
}

void ThreadNetwork::partition(NodeId a, NodeId b) {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  node_partitions_.insert(unordered_pair(a.value(), b.value()));
}

void ThreadNetwork::heal(NodeId a, NodeId b) {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  node_partitions_.erase(unordered_pair(a.value(), b.value()));
}

FaultStats ThreadNetwork::fault_stats() const {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  return faults_;
}

TimerId ThreadNetwork::schedule(NodeId node, util::Duration delay,
                                std::function<void()> fn) {
  assert(node.value() < nodes_.size());
  return exec_.schedule(node.value(), delay, std::move(fn));
}

void ThreadNetwork::cancel(TimerId id) { exec_.cancel(id); }

TrafficStats ThreadNetwork::traffic() const {
  const std::lock_guard<std::mutex> lock(traffic_mutex_);
  return traffic_;
}

void ThreadNetwork::reset_traffic() {
  const std::lock_guard<std::mutex> lock(traffic_mutex_);
  traffic_ = {};
}

const std::string& ThreadNetwork::node_name(NodeId id) const {
  return nodes_.at(id.value()).name;
}

DomainId ThreadNetwork::node_domain(NodeId id) const {
  return nodes_.at(id.value()).domain;
}

bool ThreadNetwork::wait_idle(util::Duration timeout) {
  return exec_.wait_idle(timeout);
}

}  // namespace discover::net
