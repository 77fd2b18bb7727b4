// DiscoverServer: lifecycle, channel demux, the daemon-servlet side
// (application registration/updates/responses), event distribution and
// command admission.  Servlets live in server_servlets.cpp; the ORB
// servants and peer logic live in server_remote.cpp.
#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "util/log.h"

namespace discover::core {

namespace {

/// Newest events each hosted app's log keeps (§5.2.5).
constexpr std::size_t kArchiveCapPerApp = 4096;
/// Spans each core's trace ring keeps for /discover/trace.
constexpr std::size_t kTraceRingCap = 2048;

}  // namespace

DiscoverServer::DiscoverServer(net::Network& network, ServerConfig config)
    : network_(network),
      config_(std::move(config)),
      tokens_(0, config_.token_secret),
      sessions_(tokens_, config_.client_fifo_cap,
                config_.client_fifo_max_bytes, config_.fifo_overflow,
                stats_),
      archive_(kArchiveCapPerApp,
               config_.mirror_archive_to_db ? &db_ : nullptr) {}

DiscoverServer::~DiscoverServer() {
  // Shard workers capture `this` and the inner cores; join them before
  // members start destructing.
  if (pool_) pool_->stop();
}

void DiscoverServer::attach(net::NodeId self) {
  self_ = self;
  // Shard resolution (DESIGN.md §5i): every server is a group of cores
  // sharing one node id, with this user-facing instance as core 0.  A
  // shard_count > 1 adds a dispatcher and shard_count - 1 inner cores;
  // otherwise — or on a backend that cannot shard — the group has one core
  // and no executor.  Inner cores arrive here already configured.
  if (group_ == nullptr) {
    group_ = this;
    if (config_.shard_count > 1 && !network_.supports_sharding()) {
      DISCOVER_LOG(warn, "server")
          << config_.name << ": shard_count=" << config_.shard_count
          << " ignored: network backend is single-threaded per node";
    } else if (config_.shard_count > 1) {
      group_shards_ = config_.shard_count;
      shard_index_ = 0;
      while ((1u << shard_bits_) < group_shards_) ++shard_bits_;
      for (std::uint32_t i = 1; i < group_shards_; ++i) {
        auto core = std::make_unique<DiscoverServer>(network_, config_);
        core->configure_shard(i, shard_bits_, this);
        cores_.push_back(std::move(core));
      }
      pool_ = std::make_unique<net::Executor>();
      for (std::uint32_t i = 0; i < group_shards_; ++i) {
        pool_->add_owner(&core_at(i));
      }
    }
  }
  // Directory epoch: distinct per node and bumpable within a lifetime, so
  // peers can tell "same server, newer state" from "don't trust your cache".
  dir_epoch_ = (static_cast<std::uint64_t>(self.value()) << 32) | 1;
  tokens_ = security::TokenAuthority(self.value(), config_.token_secret);
  container_ = std::make_unique<http::ServletContainer>(network_, self_);
  orb_ = std::make_unique<orb::Orb>(network_, self_);
  orb_->set_retry_policy(config_.orb_retry);
  orb_->set_retry_seed(0x9e37 + self.value());
  if (sharded()) {
    // Sharded federation (DESIGN.md §5j): tag every id this core's ORB
    // mints with its shard index (the dispatcher routes inbound GIOP by
    // those low bits), run ORB timers on this core's own shard queue, and
    // bounce collocated calls through the dispatcher so the core owning
    // the target servant serves them.  Must precede activate_servants().
    orb_->set_id_partition(shard_index_, shard_bits_);
    orb_->set_scheduler([this](util::Duration d, std::function<void()> fn) {
      return schedule_self(d, std::move(fn));
    });
    orb_->set_loopback(
        [grp = group_](net::Message msg) { grp->route_message(msg); });
  }
  tracer_.configure(self.value(), config_.trace_sample_every, kTraceRingCap,
                    shard_index_, shard_bits_);
  container_->set_tracer(&tracer_);
  orb_->set_tracer(&tracer_);
  register_metrics();
  mount_servlets();
  activate_servants();
  if (pool_) {
    routed_ = &metrics_.sharded_counter("shard_routed_total", group_shards_);
    for (auto& core : cores_) core->attach(self);
    pool_->start();
  }
}

void DiscoverServer::register_metrics() {
  for (const StatField& f : server_stat_fields()) {
    if (f.peak) {
      metrics_.register_peak(f.name, &(stats_.*f.member));
    } else {
      metrics_.register_counter(f.name, &(stats_.*f.member));
    }
  }

  // Live state sampled at scrape time.
  const auto gauge = [this](const char* name,
                            std::function<std::int64_t()> fn) {
    metrics_.register_gauge(name, std::move(fn));
  };
  gauge("apps", [this] {
    return static_cast<std::int64_t>(local_app_count());
  });
  gauge("sessions", [this] {
    return static_cast<std::int64_t>(sessions_.all().size());
  });
  gauge("peers", [this] {
    return static_cast<std::int64_t>(peer_count());
  });
  gauge("fifo_backlog", [this] {
    return static_cast<std::int64_t>(sessions_.fifo_entries());
  });
  gauge("fifo_backlog_bytes", [this] {
    return static_cast<std::int64_t>(sessions_.fifo_bytes());
  });
  gauge("http_requests_served", [this] {
    return static_cast<std::int64_t>(container_->requests_served());
  });
  gauge("http_dedup_hits", [this] {
    return static_cast<std::int64_t>(container_->dedup_hits());
  });
  gauge("orb_invocations", [this] {
    return static_cast<std::int64_t>(orb_->invocations());
  });
  gauge("orb_bytes_marshalled", [this] {
    return static_cast<std::int64_t>(orb_->bytes_marshalled());
  });
  gauge("orb_pending_calls", [this] {
    return static_cast<std::int64_t>(orb_->pending_calls());
  });
  gauge("orb_retries", [this] {
    return static_cast<std::int64_t>(orb_->retries());
  });
  gauge("lock_grants", [this] {
    return static_cast<std::int64_t>(locks_.grants());
  });
  gauge("lock_releases", [this] {
    return static_cast<std::int64_t>(locks_.releases());
  });
  gauge("lock_renewals", [this] {
    return static_cast<std::int64_t>(locks_.renewals());
  });
  gauge("trace_spans_recorded", [this] {
    return static_cast<std::int64_t>(tracer_.spans_recorded());
  });
  gauge("trace_spans_evicted", [this] {
    return static_cast<std::int64_t>(tracer_.spans_evicted());
  });

  // Cumulative subsystem latency (owned by container/orb; exposition only).
  metrics_.register_histogram("http_service_ns",
                              &container_->service_latency());
  metrics_.register_histogram("orb_call_ns", &orb_->call_latency());

  // Per-stage latency, owned by the registry and fed through the stage_*
  // pointers (gated by stage_sample()).
  stage_login_ = &metrics_.histogram("stage_login_ns");
  stage_select_ = &metrics_.histogram("stage_select_ns");
  stage_poll_ = &metrics_.histogram("stage_poll_ns");
  stage_deliver_ = &metrics_.histogram("stage_deliver_ns");
  stage_flush_rtt_ = &metrics_.histogram("stage_peer_flush_rtt_ns");
  stage_lock_grant_ = &metrics_.histogram("stage_lock_grant_ns");
}

std::string DiscoverServer::describe() const {
  return config_.name + "@" + std::to_string(self_.value());
}

void DiscoverServer::on_message(const net::Message& msg) {
  // Sharded: the node's network worker is a pure dispatcher; all state
  // (including core 0's) is touched only from shard workers, which reach
  // this handler as executor owners.
  if (pool_ && !pool_->on_owner(0)) {
    route_message(msg);
    return;
  }
  dispatch_message(msg);
}

void DiscoverServer::spin_for(util::Duration cost) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(cost);
  while (std::chrono::steady_clock::now() < until) {
  }
}

void DiscoverServer::dispatch_message(const net::Message& msg) {
  switch (msg.channel) {
    case net::Channel::http:
      if (config_.servlet_cpu_cost > 0) spin_for(config_.servlet_cpu_cost);
      container_->handle(msg);
      live_requests_.fetch_add(1, std::memory_order_relaxed);
      return;
    case net::Channel::giop:
      orb_->handle(msg);
      return;
    case net::Channel::main_channel:
      // The app-event burn models the per-update ingest + fan-out work that
      // sharding parallelizes, paid on the owning core.
      if (config_.app_event_cpu_cost > 0) spin_for(config_.app_event_cpu_cost);
      handle_app_channel(msg);
      return;
    case net::Channel::response:
      handle_app_channel(msg);
      return;
    case net::Channel::control:
      handle_control_channel(msg);
      return;
    case net::Channel::command:
      // Servers send commands; they do not receive them.
      DISCOVER_LOG(warn, "server") << describe()
                                   << ": unexpected command-channel message";
      return;
  }
}

// ---------------------------------------------------------------------------
// Daemon servlet: the application gateway (paper §4.1)
// ---------------------------------------------------------------------------

void DiscoverServer::handle_app_channel(const net::Message& msg) {
  auto decoded = proto::decode_framed(msg.payload);
  if (!decoded.ok()) {
    DISCOVER_LOG(warn, "server")
        << describe() << ": bad app frame: " << decoded.error();
    return;
  }
  const proto::FramedMessage& frame = decoded.value();
  // Any traffic from the application's node refreshes its liveness clock.
  if (const auto by_node = apps_by_node_.find(msg.src.value());
      by_node != apps_by_node_.end()) {
    if (ApplicationProxy* entry = find_hosted(by_node->second)) {
      entry->last_seen = network_.now();
    }
  }
  if (const auto* reg = std::get_if<proto::AppRegister>(&frame)) {
    handle_app_register(msg.src, *reg);
  } else if (const auto* update = std::get_if<proto::AppUpdate>(&frame)) {
    handle_app_update(*update);
  } else if (const auto* phase = std::get_if<proto::AppPhaseNotice>(&frame)) {
    handle_app_phase(*phase);
  } else if (const auto* dereg = std::get_if<proto::AppDeregister>(&frame)) {
    handle_app_deregister(*dereg);
  } else if (const auto* resp = std::get_if<proto::AppResponse>(&frame)) {
    handle_app_response(*resp);
  } else if (const auto* err = std::get_if<proto::AppError>(&frame)) {
    handle_app_error(*err);
  }
}

void DiscoverServer::handle_app_register(net::NodeId src,
                                         const proto::AppRegister& reg) {
  proto::AppRegisterAck ack;
  if (!config_.accept_any_app &&
      config_.accepted_app_keys.count(reg.auth_key) == 0) {
    ack.accepted = false;
    ack.message = "application key not accepted";
    network_.send(self_, src, net::Channel::main_channel,
                  proto::encode_framed(proto::FramedMessage{ack}));
    return;
  }

  // Globally unique id: host server "address" + local counter (§5.2.1).
  // On a sharded node each core mints ids with its shard index in the low
  // shard_bits_ — cores never collide and shard_of_app() recovers the
  // owner.  shard_bits_ == 0 reduces to the original plain counter.
  proto::AppId id;
  id.host = self_.value();
  id.local = (++app_counter_ << shard_bits_) | shard_index_;

  ApplicationProxy entry;
  entry.id = id;
  entry.name = reg.app_name;
  entry.description = reg.description;
  entry.app_node = src;
  entry.acl = security::AccessControlList(reg.acl);
  entry.params = reg.params;
  entry.phase = proto::AppPhase::computing;
  entry.last_seen = network_.now();
  entry.advertised_period = reg.update_period;
  // Record ownership (§6.3): the application's owner is its most privileged
  // registered user.
  security::Privilege best = security::Privilege::none;
  for (const auto& e : reg.acl) {
    if (static_cast<int>(e.privilege) > static_cast<int>(best)) {
      best = e.privilege;
      entry.owner = e.user;
    }
  }
  if (entry.owner.empty()) entry.owner = reg.app_name;

  auto [it, inserted] = hosted_.emplace(id, std::move(entry));
  assert(inserted);
  apps_by_node_[src.value()] = id;
  bump_directory(id);
  ++stats_.apps_registered;
  live_registrations_.fetch_add(1, std::memory_order_relaxed);

  // Export the level-2 interface: activate a CorbaProxy servant and bind it
  // in the naming service under the application id (§5.1.2).
  ApplicationProxy& stored = it->second;
  stored.corba_proxy = activate_corba_proxy(stored);
  if (naming_.configured()) {
    naming_.rebind(id.to_string(), stored.corba_proxy, [this](util::Status s) {
      if (!s.ok()) {
        DISCOVER_LOG(warn, "server")
            << describe() << ": naming bind failed: " << s.error();
      }
    });
  }

  ack.accepted = true;
  ack.app_id = id;
  ack.message = "registered with " + config_.name;
  network_.send(self_, src, net::Channel::main_channel,
                proto::encode_framed(proto::FramedMessage{ack}));

  broadcast_system_event(proto::SystemEventKind::app_registered, id,
                         reg.app_name);

  proto::ClientEvent ev;
  ev.kind = proto::EventKind::system;
  ev.app = id;
  ev.text = "application " + reg.app_name + " registered";
  publish_event(stored, std::move(ev));

  DISCOVER_LOG(info, "server")
      << describe() << ": registered " << reg.app_name << " as "
      << id.to_string();
}

void DiscoverServer::handle_app_update(const proto::AppUpdate& update) {
  ApplicationProxy* entry = find_hosted(update.app_id);
  if (entry == nullptr) return;
  entry->phase = update.phase;
  ++stats_.updates_processed;
  live_updates_.fetch_add(1, std::memory_order_relaxed);

  proto::ClientEvent ev;
  ev.kind = proto::EventKind::update;
  ev.app = update.app_id;
  ev.metrics = update.metrics;
  ev.iteration = update.iteration;
  publish_event(*entry, std::move(ev));
}

void DiscoverServer::handle_app_phase(const proto::AppPhaseNotice& notice) {
  ApplicationProxy* entry = find_hosted(notice.app_id);
  if (entry == nullptr) return;
  if (entry->phase != notice.phase) bump_directory(notice.app_id);
  entry->phase = notice.phase;
  if (notice.phase == proto::AppPhase::interacting) {
    flush_buffered_commands(*entry);
  }
}

void DiscoverServer::flush_buffered_commands(ApplicationProxy& entry) {
  while (!entry.buffered.empty()) {
    proto::AppCommand cmd = std::move(entry.buffered.front());
    entry.buffered.pop_front();
    network_.send(self_, entry.app_node, net::Channel::command,
                  proto::encode_framed(proto::FramedMessage{cmd}));
  }
}

void DiscoverServer::handle_app_deregister(const proto::AppDeregister& msg) {
  ApplicationProxy* entry = find_hosted(msg.app_id);
  if (entry == nullptr) return;
  bump_directory(msg.app_id);
  ++stats_.apps_departed;

  proto::ClientEvent ev;
  ev.kind = proto::EventKind::system;
  ev.app = msg.app_id;
  ev.text = "application departed: " + msg.reason;
  publish_event(*entry, std::move(ev));

  broadcast_system_event(proto::SystemEventKind::app_departed, msg.app_id,
                         msg.reason);
  if (naming_.configured()) {
    naming_.unbind(msg.app_id.to_string(), [](util::Status) {});
  }
  if (const auto evicted = locks_.drop_app(msg.app_id)) {
    // Waiter callbacks above already published their "denied" notices; the
    // evicted holder gets an explicit one before the entry disappears.
    publish_lock_notice(msg.app_id, evicted->user, 0,
                        "released: application departed");
  }
  if (entry->servant_key != 0) orb_->deactivate(entry->servant_key);
  apps_by_node_.erase(entry->app_node.value());
  hosted_.erase(msg.app_id);
  // Client subs keep their FIFOs so the departure event can still be polled.
}

void DiscoverServer::handle_app_response(const proto::AppResponse& resp) {
  ApplicationProxy* entry = find_hosted(resp.app_id);
  if (entry == nullptr) return;
  ++stats_.responses_processed;

  const auto pending = pending_cmds_.find(resp.request_id);
  proto::ClientEvent ev;
  ev.kind = proto::EventKind::response;
  ev.app = resp.app_id;
  ev.param = resp.param;
  ev.value = resp.value;
  ev.text = resp.ok ? resp.message : "error: " + resp.message;
  if (!resp.ok) ev.kind = proto::EventKind::error;
  if (pending != pending_cmds_.end()) {
    ev.user = pending->second.user;
    ev.request_id = pending->second.client_rid;
    ev.shared = pending->second.shared;
    ev.subgroup = pending->second.subgroup;
    pending_cmds_.erase(pending);
  }
  // Cache parameter changes on the proxy so later interface queries and
  // archive replay agree with the application.
  if (resp.ok && !resp.param.empty()) {
    for (auto& spec : entry->params) {
      if (spec.name == resp.param) spec.value = resp.value;
    }
  }
  if (!resp.params.empty()) entry->params = resp.params;
  publish_event(*entry, std::move(ev));
}

void DiscoverServer::handle_app_error(const proto::AppError& err) {
  ApplicationProxy* entry = find_hosted(err.app_id);
  if (entry == nullptr) return;
  proto::ClientEvent ev;
  ev.kind = proto::EventKind::error;
  ev.app = err.app_id;
  ev.request_id = err.request_id;
  ev.text = err.message;
  publish_event(*entry, std::move(ev));
}

// ---------------------------------------------------------------------------
// Event distribution (collaboration handler, paper §4.1/§5.2.3)
// ---------------------------------------------------------------------------

void DiscoverServer::publish_event(ApplicationProxy& entry,
                                   proto::ClientEvent event) {
  event.seq = ++entry.event_seq;
  event.at = network_.now();
  archive_.log_app_event(event, entry.owner);
  deliver_local(entry.id, event);
  if (config_.remote_update_mode == RemoteUpdateMode::push) {
    push_to_subscribers(entry, event);
  }
  // Sharded: sessions on other cores that selected this app get the event
  // through one queue hop per watching shard (DESIGN.md §5i).
  fan_out_to_watcher_shards(entry.id, event);
}

namespace {

/// Builds the push-extension HTTP message for one event and returns its wire
/// bytes.  should_deliver gates only WHO receives an event, never what it
/// looks like, so every recipient shares this single serialization.
util::Bytes serialize_push_message(const proto::ClientEvent& ev) {
  proto::PollReply push_body;
  push_body.ok = true;
  push_body.events.push_back(ev);
  http::HttpResponse push_msg;
  push_msg.status = 200;
  push_msg.headers.set("X-Push", "1");
  push_msg.body = proto::encode_body(push_body);
  return http::serialize(push_msg);
}

}  // namespace

void DiscoverServer::deliver_local(const proto::AppId& app,
                                   const proto::ClientEvent& ev) {
  // Observability shell around the fan-out: a stage-histogram sample and,
  // when an ambient trace context exists (HTTP or ORB ingress), a span —
  // the remote end of a cross-server delivery records here under the trace
  // id minted at the origin server.
  const bool sampled = stage_sample() && stage_deliver_ != nullptr;
  const bool traced = tracer_.current().valid();
  if (!sampled && !traced) {
    deliver_local_impl(app, ev);
    return;
  }
  const util::TimePoint t0 = network_.now();
  deliver_local_impl(app, ev);
  const util::Duration elapsed = network_.now() - t0;
  if (sampled) stage_deliver_->record(elapsed);
  if (traced) {
    tracer_.record(tracer_.child_of(tracer_.current()), "core.deliver", t0,
                   elapsed, "app=" + app.to_string());
  }
}

void DiscoverServer::deliver_local_impl(const proto::AppId& app,
                                        const proto::ClientEvent& ev) {
  net::Payload push_wire;  // encode-once wire bytes (push recipients)
  bool push_encoded = false;
  // Interaction log (§5.2.5): the client's own command results, kept at
  // the server the client is connected to.
  const bool result = ev.kind == proto::EventKind::response ||
                      ev.kind == proto::EventKind::error;
  // Sessions whose FIFO overflowed under the disconnect policy; dropped
  // only after the fan-out, since drop_session edits the index it walks.
  std::vector<std::uint64_t> overflowed;
  sessions_.deliver(
      app, ev, overflowed, [&](const ClientSession& session, bool push) {
        if (push) {
          // Server-push extension: deliver immediately, no FIFO memory
          // cost.  Every push recipient gets the same refcounted buffer.
          if (!push_encoded) {
            push_wire = serialize_push_message(ev);
            push_encoded = true;
          }
          network_.send(self_, session.client_node, net::Channel::http,
                        push_wire);
        }
        ++stats_.events_delivered;
        if (result && session.user == ev.user) {
          archive_.log_interaction(session.user, ev);
        }
      });
  for (const std::uint64_t key : overflowed) {
    ++stats_.overflow_disconnects;
    drop_session(key);
  }
}

// ---------------------------------------------------------------------------
// Command handler (paper §4.1): admission, locks, buffering
// ---------------------------------------------------------------------------

proto::CommandAck DiscoverServer::admit_command(
    ApplicationProxy& entry, const std::string& user,
    std::uint32_t origin_server, std::uint64_t client_rid,
    proto::CommandKind kind, const std::string& param,
    const proto::ParamValue& value, bool shared, const std::string& subgroup) {
  proto::CommandAck ack;
  ack.request_id = client_rid;

  // Authoritative privilege check at the host (§5.2.2).
  const security::Privilege have = entry.acl.privilege_of(user);
  if (!security::allows(have, proto::required_privilege(kind))) {
    ack.accepted = false;
    ack.message = std::string("privilege ") + security::privilege_name(have) +
                  " does not allow " + proto::command_name(kind);
    ++stats_.commands_rejected;
    return ack;
  }

  if (kind == proto::CommandKind::acquire_lock ||
      kind == proto::CommandKind::release_lock) {
    handle_lock_command(entry, user, origin_server, client_rid,
                        kind == proto::CommandKind::acquire_lock);
    ack.accepted = true;
    ack.message = "lock request processed";
    ++stats_.commands_accepted;
    return ack;
  }

  // Mutating commands require the steering lock (§5.2.4: one driver).
  if (proto::required_privilege(kind) != security::Privilege::read_only) {
    const auto holder = locks_.holder(entry.id);
    const LockIdentity me{user, origin_server};
    if (!holder || !(*holder == me)) {
      ack.accepted = false;
      ack.message = holder ? "steering lock held by " + holder->user
                           : "steering lock not held; acquire it first";
      ++stats_.commands_rejected;
      return ack;
    }
  }

  proto::AppCommand cmd;
  cmd.app_id = entry.id;
  cmd.request_id = next_host_rid_++;
  cmd.user = user;
  cmd.kind = kind;
  cmd.param = param;
  cmd.value = value;
  pending_cmds_[cmd.request_id] =
      PendingCmd{user, client_rid, shared, subgroup};

  // Interaction log entry for the command itself (§5.2.5).
  proto::ClientEvent cmd_ev;
  cmd_ev.kind = proto::EventKind::system;
  cmd_ev.app = entry.id;
  cmd_ev.user = user;
  cmd_ev.request_id = client_rid;
  cmd_ev.param = param;
  cmd_ev.value = value;
  cmd_ev.text = std::string("command ") + proto::command_name(kind);
  cmd_ev.at = network_.now();
  archive_.log_interaction(user, cmd_ev);

  forward_to_app(entry, cmd);
  ack.accepted = true;
  ack.message = entry.phase == proto::AppPhase::interacting
                    ? "forwarded to application"
                    : "buffered until interaction phase";
  ++stats_.commands_accepted;
  return ack;
}

void DiscoverServer::forward_to_app(ApplicationProxy& entry,
                                    const proto::AppCommand& cmd) {
  // The daemon servlet "buffers all client requests and sends them to the
  // application when the application is in the interaction phase" (§4.1).
  if (entry.phase == proto::AppPhase::interacting) {
    network_.send(self_, entry.app_node, net::Channel::command,
                  proto::encode_framed(proto::FramedMessage{cmd}));
  } else {
    entry.buffered.push_back(cmd);
    ++stats_.commands_buffered;
  }
}

void DiscoverServer::handle_lock_command(const ApplicationProxy& entry,
                                         const std::string& user,
                                         std::uint32_t origin_server,
                                         std::uint64_t client_rid,
                                         bool acquire) {
  const LockIdentity who{user, origin_server};
  const proto::AppId app = entry.id;
  if (acquire) {
    // Acquire->grant latency: sampled at request time so queued grants
    // measure their full wait, not just the promotion callback.
    const bool sampled = stage_sample() && stage_lock_grant_ != nullptr;
    const util::TimePoint requested_at = network_.now();
    const LockRequest req = locks_.request(
        app, who,
        [this, app, who, user, client_rid, sampled,
         requested_at](bool granted) {
          if (granted && sampled) {
            stage_lock_grant_->record(network_.now() - requested_at);
          }
          publish_lock_notice(app, user, client_rid,
                              granted ? "granted" : "denied");
          if (granted) arm_lock_lease(app, who);
        });
    // Queued requests produce no immediate notice; the grant arrives later.
    // A waiter deadline bounds that wait: if the ticket is still queued
    // when the timer fires, the waiter is expired and its callback above
    // publishes the "denied" notice.
    if (!req.granted && config_.lock_wait_deadline > 0) {
      const std::uint64_t ticket = req.ticket;
      schedule_self(config_.lock_wait_deadline, [this, app, ticket] {
        if (locks_.expire_ticket(app, ticket)) {
          ++stats_.lock_waiters_expired;
        }
      });
    }
  } else {
    const util::Status s = locks_.release(app, who);
    publish_lock_notice(app, user, client_rid,
                        s.ok() ? "released" : "release failed: " +
                                                  s.error().message);
  }
}

void DiscoverServer::publish_lock_notice(const proto::AppId& app,
                                         const std::string& user,
                                         std::uint64_t client_rid,
                                         const std::string& what) {
  ApplicationProxy* entry = find_hosted(app);
  if (entry == nullptr) return;
  proto::ClientEvent ev;
  ev.kind = proto::EventKind::lock_notice;
  ev.app = app;
  ev.user = user;
  ev.request_id = client_rid;
  ev.text = what;
  ++stats_.lock_notices;
  publish_event(*entry, std::move(ev));
}

void DiscoverServer::reap_server_locks(std::uint32_t node,
                                       const std::string& why) {
  for (const auto& reap : locks_.reap_server(node)) {
    stats_.lock_waiters_reaped += reap.dropped_waiters.size();
    // Dropped waiters' callbacks already published "denied" notices, and a
    // promoted waiter's callback published "granted" and armed its lease.
    if (reap.evicted_holder) {
      ++stats_.lock_holders_reaped;
      publish_lock_notice(reap.app, reap.evicted_holder->user, 0,
                          "holder reaped: " + why);
    }
  }
}

// ---------------------------------------------------------------------------
// Housekeeping: liveness, leases, idle sessions
// ---------------------------------------------------------------------------

void DiscoverServer::arm_lock_lease(const proto::AppId& app,
                                    const LockIdentity& who) {
  if (config_.lock_lease <= 0) return;
  const std::uint64_t generation = locks_.generation(app);
  schedule_self(config_.lock_lease, [this, app, who, generation] {
    const auto holder = locks_.holder(app);
    if (!holder || !(*holder == who) ||
        locks_.generation(app) != generation) {
      return;  // released (or re-granted) in the meantime
    }
    locks_.forget(app, who);  // releases + promotes the next waiter
    ++stats_.lock_leases_expired;
    publish_lock_notice(app, who.user, 0, "lease expired");
  });
}

void DiscoverServer::sweep_app_liveness() {
  if (!started_) return;
  if (config_.app_liveness_factor > 0) {
    const util::TimePoint now = network_.now();
    std::vector<proto::AppId> dead;
    for (const auto& [id, entry] : hosted_) {
      if (entry.advertised_period <= 0) continue;
      const util::Duration budget =
          entry.advertised_period *
          static_cast<util::Duration>(config_.app_liveness_factor);
      if (now - entry.last_seen > budget) dead.push_back(id);
    }
    for (const proto::AppId& id : dead) {
      DISCOVER_LOG(warn, "server")
          << describe() << ": application " << id.to_string()
          << " missed its liveness budget; deregistering";
      proto::AppDeregister msg;
      msg.app_id = id;
      msg.reason = "liveness timeout";
      handle_app_deregister(msg);
    }
  }
  liveness_timer_ = schedule_self(config_.app_liveness_sweep,
                                  [this] { sweep_app_liveness(); });
}

void DiscoverServer::sweep_idle_sessions() {
  if (!started_) return;
  if (config_.session_max_idle > 0) {
    container_->expire_sessions(config_.session_max_idle);
    std::vector<std::uint64_t> gone;
    for (const auto& [key, _] : sessions_.all()) {
      if (!container_->has_session(key)) gone.push_back(key);
    }
    for (const std::uint64_t key : gone) drop_session(key);
  }
  session_timer_ = schedule_self(
      std::max<util::Duration>(config_.session_max_idle / 4,
                               util::seconds(1)),
      [this] { sweep_idle_sessions(); });
}

// ---------------------------------------------------------------------------
// Security handler (paper §4.1/§5.2.2)
// ---------------------------------------------------------------------------

bool DiscoverServer::authenticate_local(const std::string& user,
                                        std::uint64_t password_digest) const {
  // Level 1: the user must appear on at least one local application's ACL
  // (§5.2.2 / §6.3: identities belong to applications, not servers).
  for (const auto& [_, entry] : hosted_) {
    if (entry.acl.knows(user) &&
        entry.acl.check_password(user, password_digest)) {
      return true;
    }
  }
  // §6.3's suggested alternative: a global GIS-style identity directory,
  // pulled into a local cache, so users without a local application can
  // still reach their remote ones through this server.
  const auto it = identity_cache_.find(user);
  return it != identity_cache_.end() &&
         (it->second == 0 || it->second == password_digest);
}

void DiscoverServer::gather_user(const std::string& user,
                                 std::uint64_t password_digest,
                                 std::function<void(UserView&)> done) {
  // Applications — and with them the user ACLs — are striped across cores.
  auto view = std::make_shared<UserView>();
  gather_across_cores(
      [view, user, password_digest](DiscoverServer& core) {
        view->known |= core.authenticate_local(user, password_digest);
        for (auto& info : core.visible_apps(user)) {
          view->apps.push_back(std::move(info));
        }
        view->sessions += core.sessions_.all().size();
      },
      [view, done = std::move(done)] {
        std::sort(view->apps.begin(), view->apps.end(),
                  [](const proto::AppInfo& a, const proto::AppInfo& b) {
                    return a.id < b.id;
                  });
        done(*view);
      });
}

std::vector<proto::AppInfo> DiscoverServer::visible_apps(
    const std::string& user) const {
  std::vector<proto::AppInfo> out;
  for (const auto& [id, entry] : hosted_) {
    const security::Privilege p = entry.acl.privilege_of(user);
    if (p == security::Privilege::none) continue;
    proto::AppInfo info = app_info_of(entry);
    info.privilege = p;
    out.push_back(std::move(info));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

void DiscoverServer::drop_session(std::uint64_t key) {
  const auto session = sessions_.take(key);
  if (!session) return;
  // The app's owner forgets the session's lock interest (§5.2.4) and its
  // watcher; a remote app nobody watches any more is unsubscribed at its
  // host.
  for (const auto& [app_id, _] : session->apps) {
    const std::uint32_t owner = shard_owner_of(app_id);
    post_shard(owner, [group = group_, owner, app_id, user = session->user,
                       me = shard_index_] {
      group->core_at(owner).release_watcher(app_id, user, me);
    });
  }
}

void DiscoverServer::send_forget_locks(const proto::AppId& app,
                                       const std::string& user,
                                       std::uint32_t attempt) {
  RemoteApp* entry = find_remote(app);
  // Remote entry gone (host suspect/departed): the host's own
  // lease/reaping reclaims the lock, nothing left to relay.
  if (entry == nullptr) return;
  wire::Encoder args;
  args.str(user);
  args.u32(self_.value());
  invoke_peer(
      entry->corba_proxy.node, entry->corba_proxy, "forget_locks",
      std::move(args),
      [this, app, user, attempt](util::Result<util::Bytes> r) {
        if (r.ok()) return;
        if (attempt >= config_.forget_locks_attempts) {
          ++stats_.forget_locks_abandoned;  // lease expiry is the backstop
          return;
        }
        ++stats_.forget_locks_retries;
        const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 16);
        const util::Duration delay =
            config_.forget_locks_backoff * (util::Duration{1} << shift);
        schedule_self(delay, [this, app, user, attempt] {
          send_forget_locks(app, user, attempt + 1);
        });
      },
      config_.orb_call_timeout);
}

bool DiscoverServer::app_remote_subscribed(const proto::AppId& app) const {
  const auto it = remote_.find(app);
  return it != remote_.end() && it->second.subscribed;
}

DiscoverServer::ApplicationProxy* DiscoverServer::find_hosted(
    const proto::AppId& id) {
  const auto it = hosted_.find(id);
  return it != hosted_.end() ? &it->second : nullptr;
}

DiscoverServer::RemoteApp* DiscoverServer::find_remote(const proto::AppId& id) {
  const auto it = remote_.find(id);
  return it != remote_.end() ? &it->second : nullptr;
}

}  // namespace discover::core
