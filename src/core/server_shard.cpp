// Multi-core server internals (DESIGN.md §5i).
//
// Every DiscoverServer is a group of full server cores sharing one node
// id, with the user-facing instance as core 0.  With shard_count > 1 on a
// sharding-capable network core 0 also owns the dispatcher, the shard
// executor and the inner cores; every core is one executor owner with its
// own queue and worker, so all per-core state stays lock-free.  An
// unsharded server is a group of one and runs the same code: the hops
// implemented here — owner work for an app, lock forgets, event fan-out,
// login/scrape gathers — are then direct calls.
#include "core/server.h"

#include <algorithm>

#include "util/log.h"

namespace discover::core {

std::span<const StatField> server_stat_fields() {
  // The exposition name is the member's name.  Peaks are per-core
  // high-water marks — one core's peak is not the node's — so they merge by
  // max; everything else sums.
#define SUM(field) StatField{#field, &ServerStats::field, false}
#define PEAK(field) StatField{#field, &ServerStats::field, true}
  static constexpr StatField kFields[] = {
      SUM(logins_ok), SUM(logins_failed), SUM(selects_ok),
      SUM(selects_failed), SUM(commands_accepted), SUM(commands_rejected),
      SUM(commands_buffered), SUM(updates_processed),
      SUM(responses_processed), SUM(events_delivered), SUM(events_dropped),
      SUM(resync_markers), SUM(overflow_disconnects),
      SUM(admission_rejected_logins), SUM(admission_rejected_selects),
      PEAK(peak_fifo_backlog), PEAK(peak_fifo_backlog_bytes),
      SUM(polls_served), SUM(collab_posts), SUM(remote_commands_in),
      SUM(remote_commands_out), SUM(peer_events_in), SUM(peer_events_out),
      SUM(peer_rate_limited), SUM(peer_batches_out),
      PEAK(peer_batch_events_max), SUM(flushes_by_count),
      SUM(flushes_by_bytes), SUM(flushes_by_timer), SUM(outbox_dropped),
      SUM(dir_deltas_in), SUM(dir_fulls_in), SUM(dir_refresh_bytes),
      SUM(system_events), SUM(apps_registered), SUM(apps_departed),
      SUM(lock_notices), SUM(lock_leases_expired), SUM(lock_waiters_expired),
      SUM(lock_holders_reaped), SUM(lock_waiters_reaped),
      SUM(forget_locks_retries), SUM(forget_locks_abandoned),
      SUM(monitoring_reports), SUM(monitoring_failures),
  };
#undef SUM
#undef PEAK
  return kFields;
}

void ServerStats::add(const ServerStats& other) {
  for (const StatField& f : server_stat_fields()) {
    this->*f.member = f.peak ? std::max(this->*f.member, other.*f.member)
                             : this->*f.member + other.*f.member;
  }
}

ServerStats DiscoverServer::stats_sum() const {
  ServerStats out = stats_;
  for (const auto& core : cores_) out.add(core->stats_);
  return out;
}

void DiscoverServer::configure_shard(std::uint32_t index, std::uint32_t bits,
                                     DiscoverServer* group) {
  group_ = group;
  shard_index_ = index;
  shard_bits_ = bits;
  group_shards_ = group->config_.shard_count;
}

void DiscoverServer::route_message(const net::Message& msg) {
  std::uint32_t shard = 0;
  switch (msg.channel) {
    case net::Channel::http:
    case net::Channel::main_channel:
    case net::Channel::response:
    case net::Channel::command:
      // Client and application traffic follows the source node's affinity
      // hash; the core that accepted an app's registration owns all of its
      // channel traffic (and minted its app id accordingly).
      shard = shard_of_node(msg.src.value(), group_shards_);
      break;
    case net::Channel::giop: {
      // Every core runs its own ORB, and every id an ORB mints (servant
      // keys and request ids) carries its core index in the low shard
      // bits.  Peeking the frame header is therefore enough to route:
      // requests go to the core that activated the target servant, replies
      // to the core that issued the call.  Ids minted by OTHER nodes never
      // appear in these positions — an inbound request's servant key is
      // ours, an inbound reply's request id is ours.  The transports hand
      // dispatch complete frames, so a need_more verdict here means a
      // truncated (hence malformed) frame; both it and invalid fall back
      // to core 0, whose ORB logs and drops them.
      orb::GiopHeader h;
      const orb::GiopPeek verdict = orb::peek_giop_header(
          msg.payload.bytes().data(), msg.payload.size(), h);
      if (verdict == orb::GiopPeek::ok) {
        const std::uint64_t id = h.is_request ? h.servant_key : h.request_id;
        shard = static_cast<std::uint32_t>(id & ((1u << shard_bits_) - 1u)) %
                group_shards_;
      }
      break;
    }
    case net::Channel::control:
      // Control framing stays on core 0 (the federation coordinator); it
      // fans membership transitions out to the owning cores explicitly.
      shard = 0;
      break;
  }
  if (routed_ != nullptr) routed_->inc(shard);
  pool_->deliver(shard, msg);
}

void DiscoverServer::post_shard(std::uint32_t idx, std::function<void()> fn) {
  net::Executor* pool = group_->pool_.get();
  if (pool == nullptr || pool->on_owner(idx)) {
    fn();
    return;
  }
  pool->post(idx, std::move(fn));
}

void DiscoverServer::for_each_core(
    const std::function<void(DiscoverServer&)>& fn) {
  DiscoverServer* group = group_;
  for (std::uint32_t i = 0; i < group_shards_; ++i) {
    post_shard(i, [group, i, fn] { fn(group->core_at(i)); });
  }
}

net::TimerId DiscoverServer::schedule_self(util::Duration delay,
                                           std::function<void()> fn) {
  if (group_->pool_ == nullptr) {
    return network_.schedule(self_, delay, std::move(fn));
  }
  // The network timer fires on the node's home worker; hop onto this
  // core's shard queue so the callback touches core state safely.
  DiscoverServer* group = group_;
  const std::uint32_t idx = shard_index_;
  return network_.schedule(
      self_, delay, [group, idx, fn = std::move(fn)]() mutable {
        group->pool_->post(idx, std::move(fn));
      });
}

void DiscoverServer::gather_across_cores(
    std::function<void(DiscoverServer&)> visit, std::function<void()> done) {
  if (group_->pool_ == nullptr) {
    visit(*this);
    done();
    return;
  }
  auto job = std::make_shared<GatherJob>();
  job->visit = std::move(visit);
  job->done = std::move(done);
  job->origin = shard_index_;
  group_->gather_step(job, 0);
}

void DiscoverServer::gather_step(const std::shared_ptr<GatherJob>& job,
                                 std::uint32_t idx) {
  pool_->post(idx, [this, job, idx] {
    job->visit(core_at(idx));
    if (idx + 1 < group_shards_) {
      gather_step(job, idx + 1);
    } else {
      pool_->post(job->origin, [job] { job->done(); });
    }
  });
}

void DiscoverServer::select_on_owner(const proto::AppId& app,
                                     const std::string& user,
                                     std::uint32_t client_shard,
                                     bool already_selected,
                                     std::function<void(SelectGrant)> done) {
  // A session on another core is counted once, when it first selects.
  const bool new_watcher = !already_selected && client_shard != shard_index_;
  if (app.host == self_.value()) {
    SelectGrant grant;
    const ApplicationProxy* entry = find_hosted(app);
    if (entry == nullptr) {
      done(std::move(grant));
      return;
    }
    grant.found = true;
    // Admission first (new subscribers only), then level-2 authentication.
    if (!admits(app, already_selected)) {
      grant.admission_rejected = true;
      done(std::move(grant));
      return;
    }
    grant.privilege = entry->acl.privilege_of(user);
    if (grant.privilege == security::Privilege::none) {
      grant.error = user + " has no access to " + entry->name;
    } else {
      if (new_watcher) sessions_.watch(app, client_shard);
      grant.params = entry->params;
      grant.history_seq = entry->event_seq;
    }
    done(std::move(grant));
    return;
  }
  // Remote application (§5j): level-2 authentication at the host through
  // its CorbaProxy, then subscribe this core to its event stream.
  with_remote_app(app, [this, app, user, client_shard, already_selected,
                        new_watcher,
                        done = std::move(done)](RemoteApp* entry) {
    SelectGrant grant;
    if (entry == nullptr) {
      done(std::move(grant));
      return;
    }
    grant.found = true;
    if (!admits(app, already_selected)) {
      grant.admission_rejected = true;
      done(std::move(grant));
      return;
    }
    wire::Encoder args;
    args.str(user);
    invoke_peer(
        entry->corba_proxy.node, entry->corba_proxy, "get_interface",
        std::move(args),
        [this, app, client_shard, already_selected, new_watcher,
         done](util::Result<util::Bytes> r) {
          SelectGrant g;
          RemoteApp* remote = find_remote(app);
          if (remote == nullptr) {
            done(std::move(g));
            return;
          }
          g.found = true;
          if (!r.ok()) {
            g.error = r.error().message;
            done(std::move(g));
            return;
          }
          wire::Decoder d(r.value());
          g.privilege = static_cast<security::Privilege>(d.u8());
          g.params = proto::decode_param_specs(d);
          g.history_seq = d.u64();
          // Authoritative re-check: concurrent selects may have filled the
          // app while our get_interface was in flight.
          if (!admits(app, already_selected)) {
            g.admission_rejected = true;
            done(std::move(g));
            return;
          }
          if (!remote->subscribed && remote->remote_known_seq == 0) {
            // First subscription: events up to the level-2 handshake are
            // history the watcher never asked for.  Anything the host
            // publishes after this point must reach us — the subscribe
            // reply backfills the gap instead of skipping over it.
            remote->remote_known_seq = g.history_seq;
          }
          if (new_watcher) sessions_.watch(app, client_shard);
          subscribe_remote(*remote);
          done(std::move(g));
        },
        config_.orb_call_timeout);
  });
}

bool DiscoverServer::admits(const proto::AppId& app,
                            bool already_selected) const {
  // Sessions that already selected the app pass: their re-select is
  // idempotent.
  return config_.max_sessions_per_app == 0 || already_selected ||
         sessions_.watchers(app) < config_.max_sessions_per_app;
}

void DiscoverServer::release_watcher(const proto::AppId& app,
                                     const std::string& user,
                                     std::uint32_t client_shard) {
  if (app.host != self_.value()) {
    // The lock interest of a remote app lives at its host server.
    send_forget_locks(app, user, 1);
  } else if (find_hosted(app) != nullptr) {
    locks_.forget(app, LockIdentity{user, self_.value()});
  }
  release_shard_watcher(app, client_shard);
}

void DiscoverServer::release_shard_watcher(const proto::AppId& app,
                                           std::uint32_t client_shard) {
  sessions_.unwatch(app, client_shard);
  if (RemoteApp* entry = find_remote(app);
      entry != nullptr && sessions_.watchers(app) == 0) {
    unsubscribe_remote(*entry);
  }
}

void DiscoverServer::fan_out_to_watcher_shards(const proto::AppId& app,
                                               const proto::ClientEvent& ev) {
  const auto* cores = sessions_.watcher_cores(app);
  if (cores == nullptr) return;
  const auto shared = std::make_shared<const proto::ClientEvent>(ev);
  for (const auto& [shard, count] : *cores) {
    DiscoverServer* core = &group_->core_at(shard);
    post_shard(shard,
               [core, app, shared] { core->deliver_local(app, *shared); });
  }
}

void DiscoverServer::drain_shards() {
  if (!pool_) return;
  if (!pool_->wait_idle(util::seconds(5))) {
    DISCOVER_LOG(warn, "server")
        << describe() << ": shard queues still busy after drain timeout";
  }
  pool_->stop();
}

}  // namespace discover::core
