// Peer-to-peer side of DiscoverServer: the DiscoverCorbaServer (level-1)
// and CorbaProxy (level-2) servants, trader-based peer discovery, remote
// application access, event push/poll and the control channel.
#include "core/server.h"

#include <algorithm>
#include <iterator>
#include <ranges>

#include "util/log.h"

namespace discover::core {

namespace {

template <typename Apps>
void encode_app_info_seq(wire::Encoder& e, const Apps& apps) {
  e.u32(static_cast<std::uint32_t>(std::ranges::size(apps)));
  for (const proto::AppInfo& a : apps) proto::encode(e, a);
}

/// Changed apps core 0's directory log keeps; peers further behind get a
/// full snapshot.
constexpr std::size_t kDirLogCap = 128;

/// Refresh cadence of the optional global identity directory (§6.3).
constexpr util::Duration kIdentityRefreshPeriod = util::seconds(1);

}  // namespace

// ---------------------------------------------------------------------------
// Level-1 interface: DiscoverCorbaServer (paper §5.1.1)
// ---------------------------------------------------------------------------

class DiscoverServer::DiscoverCorbaServerServant final : public orb::Servant {
 public:
  explicit DiscoverCorbaServerServant(DiscoverServer& server)
      : server_(server) {}

  [[nodiscard]] std::string interface_name() const override {
    return "DiscoverCorbaServer";
  }

  void dispatch(const std::string& method, wire::Decoder& args,
                wire::Encoder& out, orb::DispatchContext& ctx) override {
    DiscoverServer& s = server_;
    if (method == "authenticate") {
      // Cross-server level-1 authentication: checks the user against local
      // application ACLs and returns the applications they may access
      // (paper §5.2.2).  Apps are striped across cores, so the answer is a
      // gather; its reply goes out from this core, which owns the ORB
      // request.
      const std::string user = args.str();
      const std::uint64_t pw = args.u64();
      const auto deferred = ctx.defer();
      s.gather_user(user, pw, [deferred](UserView& view) {
        wire::Encoder reply;
        reply.boolean(view.known);
        encode_app_info_seq(
            reply, view.known ? view.apps : std::vector<proto::AppInfo>{});
        deferred->reply(std::move(reply));
      });
    } else if (method == "list_users") {
      auto users = std::make_shared<std::vector<std::string>>();
      const auto deferred = ctx.defer();
      s.gather_across_cores(
          [users](DiscoverServer& core) {
            for (const auto& [_, session] : core.sessions_.all()) {
              users->push_back(session.user);
            }
          },
          [users, deferred] {
            wire::Encoder reply;
            reply.u32(static_cast<std::uint32_t>(users->size()));
            for (const auto& u : *users) reply.str(u);
            deferred->reply(std::move(reply));
          });
    } else if (method == "list_services") {
      const auto deferred = ctx.defer();
      s.gather_app_info(
          [deferred](std::map<proto::AppId, proto::AppInfo>& apps) {
            wire::Encoder reply;
            encode_app_info_seq(reply, std::views::values(apps));
            deferred->reply(std::move(reply));
          });
    } else if (method == "forward_event") {
      // Push-mode delivery from an application's host server in the
      // peer_flush_delay==0 legacy wire format (one event per call).  The
      // remote entry lives on shard_of_app's core.
      const proto::AppId app = proto::decode_app_id(args);
      auto events = proto::decode_events(args);
      const std::uint32_t owner = s.shard_owner_of(app);
      DiscoverServer* core = &s.group_->core_at(owner);
      s.post_shard(owner, [core, app, events = std::move(events)] {
        if (RemoteApp* entry = core->find_remote(app)) {
          core->ingest_remote_events(*entry, events);
        }
      });
    } else if (method == "forward_events") {
      // Batched peer outbox flush: push frames for apps hosted at the
      // caller plus collab posts relayed toward apps hosted here.
      if (ctx.requester != s.self_ &&
          !s.admit_peer(ctx.requester.value(), args.remaining())) {
        throw orb::OrbException{util::Errc::resource_exhausted,
                                "peer rate limit exceeded"};
      }
      s.ingest_event_frames(proto::decode_event_frames(args));
    } else if (method == "list_apps_since") {
      // Versioned directory fetch: delta against the caller's cached
      // (epoch, version), or a full snapshot when it is out of range.  The
      // directory is node-wide and kept on core 0.
      const std::uint64_t epoch = args.u64();
      const std::uint64_t since = args.u64();
      const auto deferred = ctx.defer();
      DiscoverServer* group = s.group_;
      s.post_shard(0, [group, epoch, since, deferred] {
        group->directory_update_since(
            epoch, since, [deferred](proto::DirectoryUpdate upd) {
              wire::Encoder reply;
              encode(reply, upd);
              deferred->reply(std::move(reply));
            });
      });
    } else if (method == "ping") {
      out.str(s.config_.name);
    } else {
      throw orb::OrbException{util::Errc::invalid_argument,
                              "DiscoverCorbaServer has no method " + method};
    }
  }

 private:
  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Level-2 interface: CorbaProxy, one per local application (paper §5.1.2)
// ---------------------------------------------------------------------------

class DiscoverServer::CorbaProxyServant final : public orb::Servant {
 public:
  CorbaProxyServant(DiscoverServer& server, proto::AppId app)
      : server_(server), app_(app) {}

  [[nodiscard]] std::string interface_name() const override {
    return "CorbaProxy";
  }

  void dispatch(const std::string& method, wire::Decoder& args,
                wire::Encoder& out, orb::DispatchContext& ctx) override {
    DiscoverServer& s = server_;
    ApplicationProxy* entry = s.find_hosted(app_);
    if (entry == nullptr) {
      throw orb::OrbException{util::Errc::not_found,
                              "application " + app_.to_string() + " is gone"};
    }
    // Resource-usage policy per peer server (§6.3).
    if (ctx.requester != s.self_ &&
        !s.admit_peer(ctx.requester.value(), args.remaining())) {
      throw orb::OrbException{util::Errc::resource_exhausted,
                              "peer rate limit exceeded"};
    }

    if (method == "get_interface") {
      // Level-2 authentication: customized steering interface based on the
      // client's privileges (§5.2.2).
      const std::string user = args.str();
      const security::Privilege p = entry->acl.privilege_of(user);
      if (p == security::Privilege::none) {
        throw orb::OrbException{util::Errc::permission_denied,
                                user + " has no access to " + entry->name};
      }
      out.u8(static_cast<std::uint8_t>(p));
      proto::encode_param_specs(out, entry->params);
      out.u64(entry->event_seq);
    } else if (method == "send_command") {
      const std::string user = args.str();
      const std::uint64_t client_rid = args.u64();
      const auto kind = static_cast<proto::CommandKind>(args.u8());
      const std::string param = args.str();
      const proto::ParamValue value = proto::decode_param_value(args);
      const bool shared = args.boolean();
      const std::string subgroup = args.str();
      ++s.stats_.remote_commands_in;
      const proto::CommandAck ack =
          s.admit_command(*entry, user, ctx.requester.value(), client_rid,
                          kind, param, value, shared, subgroup);
      out.boolean(ack.accepted);
      out.str(ack.message);
      out.u64(ack.request_id);
    } else if (method == "poll_events") {
      const std::uint64_t since = args.u64();
      const std::uint32_t max = args.u32();
      proto::encode_events(out, s.archive_.app_history(app_, since, max));
    } else if (method == "subscribe") {
      const std::uint32_t node = args.u32();
      const orb::ObjectRef ref = orb::decode_object_ref(args);
      entry->subscribers[node] = ref;
      out.u64(entry->event_seq);
    } else if (method == "unsubscribe") {
      entry->subscribers.erase(args.u32());
    } else if (method == "forward_collab") {
      // Collaboration event relayed from a peer whose local client posted
      // it; the host stamps, archives and redistributes (§5.2.3).
      proto::ClientEvent ev = proto::decode_client_event(args);
      ev.app = app_;
      s.publish_event(*entry, ev);
      out.u64(entry->event_seq);
    } else if (method == "get_status") {
      encode(out, s.app_info_of(*entry));
    } else if (method == "forget_locks") {
      const std::string user = args.str();
      const std::uint32_t origin = args.u32();
      s.locks_.forget(app_, LockIdentity{user, origin});
    } else {
      throw orb::OrbException{util::Errc::invalid_argument,
                              "CorbaProxy has no method " + method};
    }
  }

 private:
  DiscoverServer& server_;
  proto::AppId app_;
};

void DiscoverServer::activate_servants() {
  own_server_ref_ =
      orb_->activate(std::make_shared<DiscoverCorbaServerServant>(*this));
}

orb::ObjectRef DiscoverServer::activate_corba_proxy(ApplicationProxy& entry) {
  auto servant = std::make_shared<CorbaProxyServant>(*this, entry.id);
  const orb::ObjectRef ref = orb_->activate(std::move(servant));
  entry.servant_key = ref.key;
  return ref;
}

// ---------------------------------------------------------------------------
// Registry / peer discovery (paper §5.2.1)
// ---------------------------------------------------------------------------

void DiscoverServer::set_registry(orb::ObjectRef naming,
                                  orb::ObjectRef trader) {
  // Sharded federation (DESIGN.md §5j): every core gets the naming service
  // — app rebinds and remote resolves happen on the owning core — while
  // trader discovery, export and monitoring stay on core 0, the federation
  // coordinator.  Registry calls must not wait forever: a lost reply on a
  // faulty link would otherwise wedge the refresh loop (its reschedule
  // lives in the query callback).  With a deadline the loop self-heals, and
  // the ORB retry policy (if enabled) rides each call through transient
  // loss.
  for_each_core([naming](DiscoverServer& core) {
    core.naming_ = orb::NamingClient(*core.orb_, naming);
    core.naming_.set_call_timeout(core.config_.orb_call_timeout);
  });
  post_shard(0, [this, trader] {
    trader_ = orb::TraderClient(*orb_, trader);
    trader_.set_call_timeout(config_.orb_call_timeout);
  });
}

void DiscoverServer::start() {
  if (started_) return;
  started_ = true;
  // Each core starts its own sweeps — and its own half of federation — on
  // its own worker.  Core 0 owns trader export/refresh, the identity pull
  // and monitoring; the other cores' trader_ / identity_directory_ are
  // unset, so those branches no-op there.
  for_each_core([](DiscoverServer& core) {
    core.started_ = true;
    core.start_core();
  });
}

void DiscoverServer::start_core() {
  sweep_app_liveness();
  sweep_idle_sessions();
  if (identity_directory_.valid()) refresh_identities();
  if (config_.report_to_monitoring && trader_.configured()) {
    monitor_timer_ = schedule_self(config_.monitoring_period,
                                   [this] { report_monitoring(); });
  }
  if (trader_.configured()) refresh_peers();
}

void DiscoverServer::shutdown() {
  if (!started_) return;
  started_ = false;
  // Peers are known to every core, so only core 0 (this instance) says
  // goodbye — once for the node.
  for_each_core([this](DiscoverServer& core) {
    core.started_ = false;
    core.shutdown_core(/*farewell=*/&core == this);
  });
  drain_shards();
}

void DiscoverServer::shutdown_core(bool farewell) {
  if (refresh_timer_.value() != 0) network_.cancel(refresh_timer_);
  if (liveness_timer_.value() != 0) network_.cancel(liveness_timer_);
  if (session_timer_.value() != 0) network_.cancel(session_timer_);
  if (monitor_timer_.value() != 0) network_.cancel(monitor_timer_);
  if (identity_timer_.value() != 0) network_.cancel(identity_timer_);
  // Best-effort: a batch in flight already carries its items; what is
  // still queued goes out in one final batch.
  for (auto& [_, link] : links_) {
    if (link.flush_timer.value() != 0) {
      network_.cancel(std::exchange(link.flush_timer, net::TimerId{0}));
    }
    flush_outbox(link, FlushTrigger::drain);
  }
  if (farewell) {
    broadcast_system_event(proto::SystemEventKind::server_down,
                           proto::AppId{}, config_.name + " shutting down");
  }
  if (trader_.configured() && trader_offer_id_ != 0) {
    trader_.withdraw(std::exchange(trader_offer_id_, 0),
                     [](util::Status) {});
  }
}

void DiscoverServer::schedule_refresh() {
  if (!started_) return;
  refresh_timer_ = schedule_self(config_.peer_refresh_period,
                                 [this] { refresh_peers(); });
}

void DiscoverServer::refresh_peers() {
  if (!trader_.configured()) {
    schedule_refresh();
    return;
  }
  // Export until an offer id is confirmed, one attempt at a time: the
  // trader files every export as a new offer, and shutdown withdraws only
  // the one whose id came back.  A lost reply still leaves a stray offer.
  if (started_ && trader_offer_id_ == 0 && !trader_exporting_) {
    trader_exporting_ = true;
    const std::map<std::string, std::string> props = {
        {"name", config_.name},
        {"domain", std::to_string(network_.node_domain(self_).value())}};
    trader_.export_offer("DISCOVER", own_server_ref_, props,
                         [this](util::Result<std::uint64_t> r) {
                           trader_exporting_ = false;
                           if (!r.ok()) return;
                           if (started_) {
                             trader_offer_id_ = r.value();
                           } else {  // shut down while it was in flight
                             trader_.withdraw(r.value(), [](util::Status) {});
                           }
                         });
  }
  trader_.query(
      "DISCOVER", "",
      [this](util::Result<std::vector<orb::ServiceOffer>> r) {
        if (r.ok()) {
          for (const auto& offer : r.value()) {
            const PeerLink* known = find_link(offer.ref.node);
            if (offer.ref.node == self_.value() ||
                (known != nullptr && known->listed())) {
              continue;
            }
            const auto& props = offer.properties;
            const std::string name =
                props.count("name") != 0 ? props.at("name") : "server";
            DISCOVER_LOG(info, "server")
                << describe() << ": discovered peer " << name << "@"
                << offer.ref.node;
            for_each_core([node = offer.ref.node, name,
                           ref = offer.ref](DiscoverServer& core) {
              core.add_peer(node, name, ref);
            });
          }
        }
        // Re-probe suspect peers each refresh round; a successful ping
        // heals them and routing resumes.  Live peers get a versioned
        // directory fetch instead.
        for (auto& [_, link] : links_) {
          if (link.suspect) {
            probe_suspect_peer(link);
          } else {
            refresh_peer_directory(link);
          }
        }
        schedule_refresh();
      });
}

void DiscoverServer::set_identity_directory(orb::ObjectRef directory) {
  // Core 0 owns the refresh loop; each pull updates every core's cache
  // (every core authenticates its share of a login gather).
  post_shard(0, [this, directory] {
    identity_directory_ = directory;
    if (started_) refresh_identities();
  });
}

void DiscoverServer::refresh_identities() {
  if (!started_ || !identity_directory_.valid()) return;
  orb_->invoke(
      identity_directory_, "list_identities", wire::Encoder{},
      [this](util::Result<util::Bytes> r) {
        if (r.ok()) {
          try {
            wire::Decoder d(r.value());
            const auto cache = d.map<std::string, std::uint64_t>(
                [](wire::Decoder& dd) { return dd.str(); },
                [](wire::Decoder& dd) { return dd.u64(); });
            for_each_core([cache](DiscoverServer& core) {
              core.identity_cache_ = cache;
            });
          } catch (const wire::DecodeError&) {
            // Keep the stale cache on malformed replies.
          }
        }
        identity_timer_ = schedule_self(kIdentityRefreshPeriod,
                                        [this] { refresh_identities(); });
      },
      config_.orb_call_timeout);
}

void DiscoverServer::report_monitoring() {
  if (!started_) return;
  const auto reschedule = [this] {
    monitor_timer_ = schedule_self(config_.monitoring_period,
                                   [this] { report_monitoring(); });
  };
  if (!monitoring_ref_.valid()) {
    // Availability "must be determined at runtime" (§3): discover (or
    // re-discover) the monitoring service through the trader.
    trader_.query(
        "MONITORING", "",
        [this, reschedule](util::Result<std::vector<orb::ServiceOffer>> r) {
          if (r.ok() && !r.value().empty()) {
            monitoring_ref_ = r.value().front().ref;
          }
          reschedule();
        });
    return;
  }
  // One report for the whole node: gather each core's snapshot on its own
  // thread, merge, and push from core 0 — the same union the
  // /discover/metrics scrape serves.
  auto snaps =
      std::make_shared<std::vector<util::MetricsRegistry::Snapshot>>();
  gather_across_cores(
      [snaps](DiscoverServer& core) {
        snaps->push_back(core.metrics_.snapshot());
      },
      [this, snaps, reschedule] {
        send_monitoring_report(util::MetricsRegistry::monitoring_map(
                                   util::MetricsRegistry::merge(*snaps)),
                               reschedule);
      });
}

void DiscoverServer::send_monitoring_report(
    std::map<std::string, std::int64_t> metrics,
    std::function<void()> reschedule) {
  wire::Encoder args;
  args.str(config_.name);
  // The report is the registry's flat snapshot — every counter, gauge and
  // histogram summary registered in register_metrics() — plus legacy key
  // aliases older MONITORING consumers pin.  The aliases read from the
  // merged map rather than this core's stats_ so a sharded node reports
  // node-wide totals.
  metrics["updates"] = metrics["updates_processed"];
  metrics["commands"] = metrics["commands_accepted"];
  metrics["events_shed"] = metrics["events_dropped"];
  args.map(metrics, [](wire::Encoder& e, const std::string& k) { e.str(k); },
           [](wire::Encoder& e, std::int64_t v) { e.i64(v); });
  orb_->invoke(monitoring_ref_, "report", std::move(args),
               [this, reschedule](util::Result<util::Bytes> r) {
                 if (!r.ok()) {
                   // Count the failure and warn with backoff (streaks log
                   // at 1, 2, 4, 8, ... to keep a dead service from
                   // flooding the log), then forget and re-discover.
                   ++stats_.monitoring_failures;
                   ++monitoring_fail_streak_;
                   if ((monitoring_fail_streak_ &
                        (monitoring_fail_streak_ - 1)) == 0) {
                     DISCOVER_LOG(warn, "server")
                         << describe() << ": monitoring report failed ("
                         << r.error().message << "); streak "
                         << monitoring_fail_streak_ << ", re-discovering";
                   }
                   monitoring_ref_ = orb::ObjectRef{};
                 } else {
                   ++stats_.monitoring_reports;
                   monitoring_fail_streak_ = 0;
                 }
                 reschedule();
               },
               config_.orb_call_timeout);
}

PeerLink* DiscoverServer::find_link(std::uint32_t node) {
  const auto it = links_.find(node);
  return it != links_.end() ? &it->second : nullptr;
}

bool DiscoverServer::peer_suspect(net::NodeId node) const {
  const auto it = links_.find(node.value());
  return it != links_.end() && it->second.suspect;
}

// ---------------------------------------------------------------------------
// Peer health (suspect / re-probe / heal)
// ---------------------------------------------------------------------------

void DiscoverServer::invoke_peer(std::uint32_t node,
                                 const orb::ObjectRef& ref,
                                 const std::string& method,
                                 wire::Encoder args,
                                 orb::Orb::ResultCallback cb,
                                 util::Duration timeout) {
  if (const PeerLink* link = find_link(node);
      link != nullptr && link->suspect) {
    // Fail fast instead of waiting out a timeout against a peer already
    // known to be unreachable; the refresh loop re-probes it.
    cb(util::Error{util::Errc::unavailable,
                   "peer " + link->name + " is suspect"});
    return;
  }
  orb_->invoke(
      ref, method, std::move(args),
      [this, node, cb = std::move(cb)](util::Result<util::Bytes> r) {
        // Health is judged on core 0 — one failure counter per peer, not
        // shard_count divergent ones.
        const bool timed_out =
            !r.ok() && r.error().code == util::Errc::timeout;
        post_shard(0, [group = group_, node, timed_out] {
          group->judge_peer_call(node, timed_out, "healed");
        });
        cb(std::move(r));
      },
      timeout);
}

void DiscoverServer::judge_peer_call(std::uint32_t node, bool timed_out,
                                     const char* how) {
  PeerLink* link = find_link(node);
  if (link == nullptr || !link->listed()) return;
  if (!timed_out) {
    // Any response — even an application error — proves the peer is alive.
    link->consecutive_failures = 0;
    if (!link->suspect) return;
    DISCOVER_LOG(info, "server")
        << describe() << ": peer " << link->name << "@" << node << " " << how;
    for_each_core([node](DiscoverServer& core) { core.apply_peer_heal(node); });
    return;
  }
  if (config_.peer_suspect_threshold == 0 || link->suspect ||
      ++link->consecutive_failures < config_.peer_suspect_threshold) {
    return;
  }
  link->suspect = true;
  DISCOVER_LOG(warn, "server")
      << describe() << ": peer " << link->name << "@" << node
      << " suspect after " << link->consecutive_failures
      << " consecutive timeouts";
  for_each_core([this, node](DiscoverServer& core) {
    core.apply_peer_suspect(node, /*announce=*/&core == this);
  });
}

void DiscoverServer::add_peer(std::uint32_t node, const std::string& name,
                              const orb::ObjectRef& ref) {
  PeerLink& link = links_.try_emplace(node, node, stats_).first->second;
  if (link.listed()) return;
  link.name = name;
  link.server_ref = ref;
  link.limiter = std::make_unique<security::RateLimiter>(config_.peer_policy);
  peer_count_cache_.fetch_add(1);
}

void DiscoverServer::probe_suspect_peer(PeerLink& link) {
  orb_->invoke(
      link.server_ref, "ping", wire::Encoder{},
      [this, node = link.node](util::Result<util::Bytes> r) {
        if (r.ok()) judge_peer_call(node, false, "healed (probe)");
      },
      config_.orb_call_timeout);
}

void DiscoverServer::apply_peer_suspect(std::uint32_t node, bool announce) {
  PeerLink* link = find_link(node);
  const std::string name = link != nullptr ? link->name : "server";
  if (link != nullptr) link->suspect = true;
  // Its applications are unreachable: withdraw the ones this core owns
  // from the directory (their watchers get an "application departed" event
  // inside remove_remote_app) and, announcing, tell the other servers
  // through the control channel.
  std::vector<proto::AppId> gone;
  for (const auto& [id, _] : remote_) {
    if (id.host == node) gone.push_back(id);
  }
  for (const auto& id : gone) {
    remove_remote_app(id, "host server unreachable");
    if (announce) {
      broadcast_system_event(proto::SystemEventKind::error, id,
                             config_.name + ": application " +
                                 id.to_string() + " unreachable (host " +
                                 name + ")");
    }
  }
  if (announce && gone.empty()) {
    broadcast_system_event(proto::SystemEventKind::error, proto::AppId{},
                           config_.name + ": peer " + name + " unreachable");
  }
  // Steering locks held or awaited via the dead server would otherwise
  // strand until the lease fires (or forever without one): reap them now
  // so a surviving waiter is promoted.
  reap_server_locks(node, "origin server " + name + " unreachable");
}

void DiscoverServer::apply_peer_heal(std::uint32_t node) {
  PeerLink* link = find_link(node);
  if (link == nullptr) return;
  link->consecutive_failures = 0;
  link->suspect = false;
  // Move what queued while the peer was unreachable now.
  flush_outbox(*link, FlushTrigger::drain);
}

bool DiscoverServer::admit_peer(std::uint32_t node, std::size_t bytes) {
  const PeerLink* link = find_link(node);
  if (link == nullptr || !link->limiter) return true;
  const bool ok = link->limiter->admit(network_.now(),
                                       static_cast<std::uint64_t>(bytes));
  if (!ok) ++stats_.peer_rate_limited;
  return ok;
}

// ---------------------------------------------------------------------------
// Control channel (paper §5.1): error messages and system events
// ---------------------------------------------------------------------------

void DiscoverServer::broadcast_system_event(proto::SystemEventKind kind,
                                            const proto::AppId& app,
                                            const std::string& text) {
  proto::SystemEvent ev;
  ev.kind = kind;
  ev.origin_server = self_.value();
  ev.app = app;
  ev.text = text;
  // One serialization shared by every peer (refcounted, not copied).
  const net::Payload payload{proto::encode_framed(proto::FramedMessage{ev})};
  for (const auto& [node, link] : links_) {
    if (!link.listed()) continue;
    network_.send(self_, net::NodeId{node}, net::Channel::control, payload);
  }
  ++stats_.system_events;
}

void DiscoverServer::handle_control_channel(const net::Message& msg) {
  auto decoded = proto::decode_framed(msg.payload);
  if (!decoded.ok()) return;
  const auto* ev = std::get_if<proto::SystemEvent>(&decoded.value());
  if (ev == nullptr) return;
  ++stats_.system_events;
  switch (ev->kind) {
    case proto::SystemEventKind::app_departed: {
      // Control framing lands on core 0 (route_message); the remote entry
      // for this app lives on shard_of_app's core.
      const std::uint32_t owner = shard_owner_of(ev->app);
      DiscoverServer* core = &group_->core_at(owner);
      post_shard(owner, [core, app = ev->app, text = ev->text] {
        core->remove_remote_app(app, text);
      });
      break;
    }
    case proto::SystemEventKind::server_down: {
      // Every core knows the peer; each forgets its copy and withdraws its
      // own share of the dead server's apps.
      const std::uint32_t origin = ev->origin_server;
      for_each_core(
          [origin](DiscoverServer& core) { core.handle_peer_down(origin); });
      break;
    }
    case proto::SystemEventKind::server_up:
      refresh_peers();
      break;
    case proto::SystemEventKind::app_registered:
    case proto::SystemEventKind::error:
      break;  // informational
  }
}

void DiscoverServer::handle_peer_down(std::uint32_t origin) {
  if (const PeerLink* link = find_link(origin)) {
    if (link->flush_timer.value() != 0) network_.cancel(link->flush_timer);
    if (link->listed()) peer_count_cache_.fetch_sub(1);
    links_.erase(origin);
  }
  // Nothing more is pushed to it; the reply to a batch in flight is dropped.
  for (auto& [_, entry] : hosted_) entry.subscribers.erase(origin);
  // Every remote application hosted there is now unreachable.
  std::vector<proto::AppId> gone;
  for (const auto& [id, _] : remote_) {
    if (id.host == origin) gone.push_back(id);
  }
  for (const auto& id : gone) {
    remove_remote_app(id, "host server down");
  }
  reap_server_locks(origin, "origin server down");
}

// ---------------------------------------------------------------------------
// Remote applications (paper §5.1.2): resolve, subscribe, ingest
// ---------------------------------------------------------------------------

void DiscoverServer::with_remote_app(const proto::AppId& app,
                                     std::function<void(RemoteApp*)> ready) {
  if (RemoteApp* existing = find_remote(app)) {
    ready(existing);
    return;
  }
  // A local id we don't know, no registry to resolve through, or a host
  // known to be unreachable (don't re-resolve until it heals).
  if (app.host == self_.value() || !naming_.configured() ||
      peer_suspect(net::NodeId{app.host})) {
    ready(nullptr);
    return;
  }
  naming_.resolve(
      app.to_string(),
      [this, app, ready = std::move(ready)](util::Result<orb::ObjectRef> r) {
        if (!r.ok()) {
          ready(nullptr);
          return;
        }
        if (RemoteApp* raced = find_remote(app)) {
          ready(raced);
          return;
        }
        RemoteApp entry;
        entry.id = app;
        entry.corba_proxy = r.value();
        auto [it, _] = remote_.emplace(app, std::move(entry));
        ready(&it->second);
      });
}

void DiscoverServer::subscribe_remote(RemoteApp& entry) {
  if (entry.subscribed) return;
  entry.subscribed = true;
  wire::Encoder args;
  args.u32(self_.value());
  encode(args, own_server_ref_);
  const proto::AppId id = entry.id;
  invoke_peer(entry.corba_proxy.node, entry.corba_proxy, "subscribe",
              std::move(args),
              [this, id](util::Result<util::Bytes> r) {
                RemoteApp* e = find_remote(id);
                if (e == nullptr) return;
                if (!r.ok()) {
                  // A lost subscription would silently starve every local
                  // watcher; keep re-trying while the entry exists (it is
                  // removed when the host goes suspect or the app departs,
                  // which ends this loop).  Failed attempts still feed the
                  // peer failure detector through invoke_peer.
                  e->subscribed = false;
                  schedule_self(config_.remote_poll_period, [this, id] {
                    if (RemoteApp* e2 = find_remote(id)) subscribe_remote(*e2);
                  });
                  return;
                }
                wire::Decoder d(r.value());
                const std::uint64_t host_seq = d.u64();
                if (config_.remote_update_mode == RemoteUpdateMode::poll) {
                  start_remote_poll(*e);
                } else if (host_seq > e->remote_known_seq &&
                           e->backfill_upto == 0) {
                  // Events published between the level-2 handshake and this
                  // subscribe landing (or while a re-subscribe was down)
                  // were never pushed to us; fetch them once rather than
                  // silently adopting the host's sequence.
                  backfill_remote_gap(*e, host_seq);
                }
              },
              config_.orb_call_timeout);
}

void DiscoverServer::backfill_remote_gap(RemoteApp& entry,
                                         std::uint64_t upto) {
  const proto::AppId id = entry.id;
  const std::uint64_t since = entry.remote_known_seq;
  entry.backfill_upto = upto;
  wire::Encoder args;
  args.u64(since);
  args.u32(256);
  invoke_peer(
      entry.corba_proxy.node, entry.corba_proxy, "poll_events",
      std::move(args),
      [this, id, since, upto](util::Result<util::Bytes> r) {
        RemoteApp* e = find_remote(id);
        if (e == nullptr || e->backfill_upto == 0) return;
        if (r.ok()) {
          wire::Decoder d(r.value());
          for (const auto& ev : proto::decode_events(d)) {
            // Only the gap itself: pushes never carried (since, upto], so
            // this cannot double-deliver, and anything past upto is the
            // push stream's job.
            if (ev.seq <= since || ev.seq > upto) continue;
            e->remote_known_seq = std::max(e->remote_known_seq, ev.seq);
            deliver_remote(*e, ev);
          }
        }
        // Whatever the archive couldn't give us is gone; don't stall the
        // push stream waiting for it.
        e->remote_known_seq = std::max(e->remote_known_seq, upto);
        e->backfill_upto = 0;
        const auto held = std::move(e->backfill_buffer);
        e->backfill_buffer.clear();
        ingest_remote_events(*e, held);
      },
      config_.orb_call_timeout);
}

void DiscoverServer::unsubscribe_remote(RemoteApp& entry) {
  if (!entry.subscribed) return;
  entry.subscribed = false;
  if (entry.poll_timer.value() != 0) {
    network_.cancel(entry.poll_timer);
    entry.poll_timer = net::TimerId{0};
  }
  wire::Encoder args;
  args.u32(self_.value());
  invoke_peer(entry.corba_proxy.node, entry.corba_proxy, "unsubscribe",
              std::move(args), [](util::Result<util::Bytes>) {},
              config_.orb_call_timeout);
}

void DiscoverServer::start_remote_poll(RemoteApp& entry) {
  const proto::AppId id = entry.id;
  entry.poll_timer =
      schedule_self(config_.remote_poll_period, [this, id] {
        RemoteApp* e = find_remote(id);
        if (e == nullptr || !e->subscribed) return;
        wire::Encoder args;
        args.u64(e->remote_known_seq);
        args.u32(256);
        invoke_peer(e->corba_proxy.node, e->corba_proxy, "poll_events",
                    std::move(args),
                    [this, id](util::Result<util::Bytes> r) {
                      RemoteApp* e2 = find_remote(id);
                      if (e2 == nullptr || !e2->subscribed) return;
                      if (r.ok()) {
                        wire::Decoder d(r.value());
                        ingest_remote_events(*e2, proto::decode_events(d));
                      }
                      start_remote_poll(*e2);  // next round after the reply
                    },
                    config_.orb_call_timeout);
      });
}

void DiscoverServer::ingest_remote_events(
    RemoteApp& entry, const std::vector<proto::ClientEvent>& events) {
  if (entry.backfill_upto != 0) {
    // A subscribe-gap fetch is in flight; hold pushed events so the gap
    // events still land first (bounded — an overflow abandons ordering
    // rather than memory).
    entry.backfill_buffer.insert(entry.backfill_buffer.end(), events.begin(),
                                 events.end());
    if (entry.backfill_buffer.size() <= wire::kMaxSequencePrereserve) return;
    entry.backfill_upto = 0;
    const auto held = std::move(entry.backfill_buffer);
    entry.backfill_buffer.clear();
    ingest_remote_events(entry, held);
    return;
  }
  for (const auto& ev : events) {
    if (ev.seq <= entry.remote_known_seq) continue;  // de-dup push+poll
    entry.remote_known_seq = ev.seq;
    deliver_remote(entry, ev);
  }
}

void DiscoverServer::deliver_remote(RemoteApp& entry,
                                    const proto::ClientEvent& ev) {
  ++stats_.peer_events_in;
  live_peer_events_.fetch_add(1, std::memory_order_relaxed);
  // The per-event ingest burn is paid on the owning core: the federation
  // bench prices how inbound peer traffic parallelises across shards.
  if (config_.app_event_cpu_cost > 0) spin_for(config_.app_event_cpu_cost);
  deliver_local(entry.id, ev);
  fan_out_to_watcher_shards(entry.id, ev);
}

void DiscoverServer::push_to_subscribers(ApplicationProxy& entry,
                                         const proto::ClientEvent& ev) {
  if (entry.subscribers.empty()) return;
  if (config_.peer_flush_delay == 0) {
    // Legacy per-event path (A/B baseline): one forward_event ORB call per
    // event per subscribed peer, byte-for-byte the pre-outbox wire format.
    for (const auto& [node, ref] : entry.subscribers) {
      // One message per remote server, not per remote client (§5.2.3).
      wire::Encoder args;
      proto::encode(args, entry.id);
      proto::encode_events(args, {ev});
      invoke_peer(node, ref, "forward_event", std::move(args),
                  [](util::Result<util::Bytes>) {}, config_.orb_call_timeout);
      ++stats_.peer_events_out;
    }
    return;
  }
  // Outbox path: encode once, share the bytes across every subscriber's
  // outbox (a subscriber the trader has not listed gets a link for it).
  const auto encoded = encode_event_standalone(ev);
  for (const auto& [node, ref] : entry.subscribers) {
    queue_for_peer(links_.try_emplace(node, node, stats_).first->second, ref,
                   {proto::EventFrameKind::push, entry.id, ev.seq, ev.kind,
                    encoded, {}});
    ++stats_.peer_events_out;
  }
}

// ---------------------------------------------------------------------------
// Peer outbox I/O (DESIGN.md §5e; the policy lives in PeerLink)
// ---------------------------------------------------------------------------

void DiscoverServer::relay_collab_to_host(RemoteApp& entry,
                                          const proto::ClientEvent& ev) {
  const std::uint32_t host = entry.corba_proxy.node;
  PeerLink* link = find_link(host);
  if (config_.peer_flush_delay == 0 || link == nullptr || !link->listed()) {
    // Legacy wire behaviour: direct forward_collab to the app's CorbaProxy.
    wire::Encoder args;
    proto::encode(args, ev);
    invoke_peer(host, entry.corba_proxy, "forward_collab", std::move(args),
                [](util::Result<util::Bytes>) {}, config_.orb_call_timeout);
    return;
  }
  queue_for_peer(*link, link->server_ref,
                 {proto::EventFrameKind::collab_relay, entry.id, 0, ev.kind,
                  encode_event_standalone(ev), {}});
}

void DiscoverServer::queue_for_peer(PeerLink& link, const orb::ObjectRef& ref,
                                    OutboxItem item) {
  // Queueing decouples the event from its ingress context (the flush fires
  // from a timer); remember the ambient trace so the batch can rejoin it.
  item.trace = tracer_.current();
  const auto fired = link.append(std::move(item), ref);
  if (fired == FlushTrigger::timer) {
    schedule_flush(link, FlushTrigger::timer);
  } else if (fired) {
    flush_outbox(link, *fired);
  }
}

void DiscoverServer::schedule_flush(PeerLink& link, FlushTrigger trigger) {
  link.flush_timer = schedule_self(
      config_.peer_flush_delay, [this, node = link.node, trigger] {
        PeerLink* l = find_link(node);
        if (l == nullptr) return;
        l->flush_timer = net::TimerId{0};
        flush_outbox(*l, trigger);
      });
}

void DiscoverServer::flush_outbox(PeerLink& link, FlushTrigger trigger) {
  auto batch = link.take_batch();
  if (!batch) return;
  if (link.flush_timer.value() != 0) {
    network_.cancel(std::exchange(link.flush_timer, net::TimerId{0}));
  }
  ++stats_.peer_batches_out;
  stats_.peer_batch_events_max = std::max<std::uint64_t>(
      stats_.peer_batch_events_max, batch->items.size());
  switch (trigger) {
    case FlushTrigger::count: ++stats_.flushes_by_count; break;
    case FlushTrigger::bytes: ++stats_.flushes_by_bytes; break;
    case FlushTrigger::timer: ++stats_.flushes_by_timer; break;
    case FlushTrigger::drain: break;
  }

  // Flush RTT (send -> peer ack) and trace continuity: the batched call
  // runs under the first traced item's context, so the forward_events span
  // lands in the trace that queued the event at this server.
  const auto traced = std::find_if(
      batch->items.begin(), batch->items.end(),
      [](const OutboxItem& item) { return item.trace.valid(); });
  const bool rtt_sampled = stage_sample() && stage_flush_rtt_ != nullptr;
  const util::TimePoint flushed_at = network_.now();
  util::Tracer::Scope trace_scope(
      tracer_, traced != batch->items.end() ? traced->trace
                                            : util::TraceContext{});
  invoke_peer(
      link.node, batch->ref, "forward_events", std::move(batch->args),
      [this, node = link.node, alive = link.token(), rtt_sampled, flushed_at,
       sent = std::move(batch->items)](util::Result<util::Bytes> r) mutable {
        if (rtt_sampled) {
          stage_flush_rtt_->record(network_.now() - flushed_at);
        }
        PeerLink* l = find_link(node);
        if (l == nullptr || alive.expired()) return;
        if (r.ok()) {
          // Traffic that queued behind the batch leaves now.
          if (l->landed()) flush_outbox(*l, FlushTrigger::drain);
          return;
        }
        // Undelivered (timeout / suspect fail-fast): retry what is kept.
        l->requeue(std::move(sent));
        if (l->depth() > 0 && l->flush_timer.value() == 0) {
          schedule_flush(*l, FlushTrigger::drain);
        }
      },
      config_.orb_call_timeout);
}

void DiscoverServer::ingest_event_frames(
    std::vector<proto::EventFrame> frames) {
  // A peer batches per destination NODE, so one forward_events call mixes
  // apps owned by different cores.  Scatter each frame to shard_of_app's
  // core: frames for one app always land on one core, through one FIFO
  // queue, so per-app order is preserved.
  std::map<std::uint32_t, std::vector<proto::EventFrame>> by_owner;
  for (auto& f : frames) {
    by_owner[shard_owner_of(f.app)].push_back(std::move(f));
  }
  for (auto& [owner, batch] : by_owner) {
    DiscoverServer* core = &group_->core_at(owner);
    post_shard(owner, [core, batch = std::move(batch)] {
      core->apply_event_frames(batch);
    });
  }
}

void DiscoverServer::apply_event_frames(
    const std::vector<proto::EventFrame>& frames) {
  for (const auto& f : frames) {
    if (f.kind == proto::EventFrameKind::push) {
      RemoteApp* entry = find_remote(f.app);
      // Frame-level fast dedup: a retried batch whose whole range is
      // already known needs no per-event scan.
      if (entry == nullptr ||
          (f.seq_last != 0 && f.seq_last <= entry->remote_known_seq)) {
        continue;
      }
      ingest_remote_events(*entry, f.events);
    } else if (ApplicationProxy* entry = find_hosted(f.app)) {
      for (const auto& ev : f.events) {
        proto::ClientEvent stamped = ev;
        stamped.app = f.app;
        publish_event(*entry, std::move(stamped));
      }
    }
  }
}

std::size_t DiscoverServer::outbox_depth(std::uint32_t node) const {
  const auto it = links_.find(node);
  return it != links_.end() ? it->second.depth() : 0;
}

// ---------------------------------------------------------------------------
// Versioned directory (DESIGN.md "Peer outbox & directory deltas")
// ---------------------------------------------------------------------------

proto::AppInfo DiscoverServer::app_info_of(
    const ApplicationProxy& entry) const {
  proto::AppInfo info;
  info.id = entry.id;
  info.name = entry.name;
  info.description = entry.description;
  info.phase = entry.phase;
  info.update_seq = entry.event_seq;
  // Steering-lock state rides the directory so remote servers and clients
  // can see who drives and how deep the wait is (§5.2.4).
  if (const auto h = locks_.holder(entry.id)) {
    info.lock_holder = h->user + "@" + std::to_string(h->server);
  }
  info.lock_queue = static_cast<std::uint32_t>(locks_.queue_length(entry.id));
  return info;
}

void DiscoverServer::bump_directory(const proto::AppId& app) {
  DiscoverServer* group = group_;
  post_shard(0, [group, app] {
    auto& log = group->dir_log_;
    log[app] = ++group->dir_version_;
    if (log.size() > kDirLogCap) {
      const auto oldest = std::min_element(
          log.begin(), log.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      group->dir_log_floor_ = oldest->second;
      log.erase(oldest);
    }
  });
}

void DiscoverServer::bump_directory_epoch() {
  // The node-wide (epoch, version) sequence lives on core 0.
  post_shard(0, [this] {
    ++dir_epoch_;
    dir_log_.clear();
    dir_log_floor_ = dir_version_;
  });
}

void DiscoverServer::directory_update_since(
    std::uint64_t epoch, std::uint64_t since,
    std::function<void(proto::DirectoryUpdate)> done) {
  auto upd = std::make_shared<proto::DirectoryUpdate>();
  upd->epoch = dir_epoch_;
  upd->version = dir_version_;
  // Delta only when the caller is on our epoch, not ahead of us (a host
  // restart resets the version), and not behind the bounded change log.
  upd->full = !(epoch == dir_epoch_ && since <= dir_version_ &&
                since >= dir_log_floor_);
  // A delta names each app changed since the caller's version once, latest
  // change first; an app no core hosts any more is reported removed.
  std::vector<proto::AppId> touched;
  if (!upd->full) {
    std::vector<std::pair<std::uint64_t, proto::AppId>> changed;
    for (const auto& [app, version] : dir_log_) {
      if (version > since) changed.emplace_back(version, app);
    }
    std::sort(changed.rbegin(), changed.rend());
    for (auto& [_, app] : changed) touched.push_back(std::move(app));
  }
  gather_app_info(
      [upd, touched = std::move(touched),
       done = std::move(done)](std::map<proto::AppId, proto::AppInfo>& found) {
        if (upd->full) {
          for (auto& [_, info] : found) upd->apps.push_back(std::move(info));
        }
        for (const proto::AppId& id : touched) {
          if (const auto it = found.find(id); it != found.end()) {
            upd->apps.push_back(std::move(it->second));
          } else {
            upd->removed.push_back(id);
          }
        }
        done(std::move(*upd));
      });
}

void DiscoverServer::gather_app_info(
    std::function<void(std::map<proto::AppId, proto::AppInfo>&)> done) {
  auto found = std::make_shared<std::map<proto::AppId, proto::AppInfo>>();
  gather_across_cores(
      [found](DiscoverServer& core) {
        for (const auto& [id, entry] : core.hosted_) {
          (*found)[id] = core.app_info_of(entry);
        }
      },
      [found, done = std::move(done)] { done(*found); });
}

void DiscoverServer::refresh_peer_directory(PeerLink& link) {
  if (link.dir_inflight || !link.listed()) return;
  link.dir_inflight = true;
  wire::Encoder args;
  args.u64(link.dir_epoch);
  args.u64(link.dir_version);
  invoke_peer(
      link.node, link.server_ref, "list_apps_since", std::move(args),
      [this, node = link.node](util::Result<util::Bytes> r) {
        PeerLink* l = find_link(node);
        if (l == nullptr) return;
        l->dir_inflight = false;
        if (!r.ok()) return;
        stats_.dir_refresh_bytes += r.value().size();
        proto::DirectoryUpdate upd;
        try {
          wire::Decoder d(r.value());
          upd = proto::decode_directory_update(d);
        } catch (const wire::DecodeError&) {
          return;  // keep the stale view on malformed replies
        }
        ++(upd.full ? stats_.dir_fulls_in : stats_.dir_deltas_in);
        for (const auto& id : l->apply(upd)) {
          // Backup departure signal behind the control channel: only touch
          // remote entries actually hosted at this peer.
          if (id.host == node && find_remote(id) != nullptr) {
            remove_remote_app(id, "withdrawn from host directory");
          }
        }
      },
      config_.orb_call_timeout);
}

std::vector<proto::AppInfo> DiscoverServer::peer_directory(
    std::uint32_t node) const {
  const auto it = links_.find(node);
  if (it == links_.end()) return {};
  const auto apps = std::views::values(it->second.directory);
  return {apps.begin(), apps.end()};
}

void DiscoverServer::remove_remote_app(const proto::AppId& app,
                                       const std::string& reason) {
  RemoteApp* entry = find_remote(app);
  if (entry == nullptr) return;
  if (entry->poll_timer.value() != 0) network_.cancel(entry->poll_timer);

  // Tell local watchers the application is gone.
  proto::ClientEvent ev;
  ev.kind = proto::EventKind::system;
  ev.app = app;
  ev.seq = entry->remote_known_seq + 1;
  ev.at = network_.now();
  ev.text = "application departed: " + reason;
  deliver_local(app, ev);
  // Watchers on other shard cores hear the departure too (not counted as a
  // peer event — it is synthesized here, not received).
  fan_out_to_watcher_shards(app, ev);
  remote_.erase(app);
}

}  // namespace discover::core
