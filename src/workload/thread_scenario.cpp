#include "workload/thread_scenario.h"

namespace discover::workload {

ThreadScenario::ThreadScenario(core::ServerConfig server_template)
    : server_template_(std::move(server_template)) {
  registry_ = std::make_unique<RegistryNode>(net_);
  const net::NodeId node =
      net_.add_node("registry", registry_.get(), net::DomainId{0});
  registry_->attach(node);
}

ThreadScenario::~ThreadScenario() { stop(); }

core::DiscoverServer& ThreadScenario::add_server(const std::string& name,
                                                 std::uint32_t domain) {
  core::ServerConfig cfg = server_template_;
  cfg.name = name;
  auto server = std::make_unique<core::DiscoverServer>(net_, std::move(cfg));
  core::DiscoverServer& ref = *server;
  const net::NodeId node =
      net_.add_node("server:" + name, server.get(), net::DomainId{domain});
  ref.attach(node);
  ref.set_registry(registry_->naming_ref(), registry_->trader_ref());
  servers_.push_back(std::move(server));
  return ref;
}

core::DiscoverClient& ThreadScenario::add_client(const std::string& user,
                                                 core::DiscoverServer& server,
                                                 core::ClientConfig config) {
  config.user = user;
  auto client = std::make_unique<core::DiscoverClient>(net_, std::move(config));
  core::DiscoverClient& ref = *client;
  const net::NodeId node = net_.add_node(
      "client:" + user, client.get(), net_.node_domain(server.node()));
  ref.attach(node);
  ref.set_server(server.node());
  clients_.push_back(std::move(client));
  return ref;
}

void ThreadScenario::start() {
  if (started_) return;
  started_ = true;
  net_.start();
  for (auto& server : servers_) {
    // Start on the server's own worker (actor model): the worker may
    // already be dispatching, and start() touches ORB/timer state that
    // must only ever be owned by that thread.  Inbox FIFO order puts the
    // start ahead of any client traffic sent afterwards.
    core::DiscoverServer* s = server.get();
    net_.post(s->node(), [s] { s->start(); });
  }
  for (auto& [app, server_node] : pending_connects_) {
    // Connect from the app's own context to respect the actor model.
    app::SteerableApp* a = app;
    const net::NodeId target = server_node;
    net_.post(a->node(), [a, target] { a->connect(target); });
  }
  pending_connects_.clear();
}

void ThreadScenario::stop() {
  if (!started_) return;
  started_ = false;
  // Join the network workers first so no new messages route into the shard
  // queues, then drain and join each server's shard executor — after this,
  // stats()/stats_sum() reads are ordered by the thread joins.
  net_.stop();
  for (auto& server : servers_) server->drain_shards();
}

}  // namespace discover::workload
