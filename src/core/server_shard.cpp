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

void ServerStats::add(const ServerStats& other) {
  logins_ok += other.logins_ok;
  logins_failed += other.logins_failed;
  selects_ok += other.selects_ok;
  selects_failed += other.selects_failed;
  commands_accepted += other.commands_accepted;
  commands_rejected += other.commands_rejected;
  commands_buffered += other.commands_buffered;
  updates_processed += other.updates_processed;
  responses_processed += other.responses_processed;
  events_delivered += other.events_delivered;
  events_dropped += other.events_dropped;
  resync_markers += other.resync_markers;
  overflow_disconnects += other.overflow_disconnects;
  admission_rejected_logins += other.admission_rejected_logins;
  admission_rejected_selects += other.admission_rejected_selects;
  // Peaks and maxima are per-core high-water marks; the sum keeps the max.
  peak_fifo_backlog = std::max(peak_fifo_backlog, other.peak_fifo_backlog);
  peak_fifo_backlog_bytes =
      std::max(peak_fifo_backlog_bytes, other.peak_fifo_backlog_bytes);
  polls_served += other.polls_served;
  collab_posts += other.collab_posts;
  remote_commands_in += other.remote_commands_in;
  remote_commands_out += other.remote_commands_out;
  peer_events_in += other.peer_events_in;
  peer_events_out += other.peer_events_out;
  peer_rate_limited += other.peer_rate_limited;
  peer_batches_out += other.peer_batches_out;
  peer_batch_events_max =
      std::max(peer_batch_events_max, other.peer_batch_events_max);
  flushes_by_count += other.flushes_by_count;
  flushes_by_bytes += other.flushes_by_bytes;
  flushes_by_timer += other.flushes_by_timer;
  outbox_dropped += other.outbox_dropped;
  dir_deltas_in += other.dir_deltas_in;
  dir_fulls_in += other.dir_fulls_in;
  dir_refresh_bytes += other.dir_refresh_bytes;
  system_events += other.system_events;
  apps_registered += other.apps_registered;
  apps_departed += other.apps_departed;
  lock_notices += other.lock_notices;
  lock_leases_expired += other.lock_leases_expired;
  lock_waiters_expired += other.lock_waiters_expired;
  lock_holders_reaped += other.lock_holders_reaped;
  lock_waiters_reaped += other.lock_waiters_reaped;
  forget_locks_retries += other.forget_locks_retries;
  forget_locks_abandoned += other.forget_locks_abandoned;
  monitoring_reports += other.monitoring_reports;
  monitoring_failures += other.monitoring_failures;
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
  with_remote_app(app, [this, app, user, client_shard, already_selected,
                        done = std::move(done)](AppEntry* entry) {
    SelectGrant grant;
    if (entry == nullptr) {
      done(std::move(grant));
      return;
    }
    grant.found = true;
    grant.name = entry->name;
    // Admission first (new subscribers only), then level-2 authentication.
    if (!admits(app, already_selected)) {
      grant.admission_rejected = true;
      done(std::move(grant));
      return;
    }
    if (entry->local) {
      grant.privilege = entry->acl.privilege_of(user);
      if (grant.privilege != security::Privilege::none) {
        if (!already_selected && client_shard != shard_index_) {
          ++entry->watcher_shards[client_shard];
        }
        grant.params = entry->params;
        grant.history_seq = entry->event_seq;
      }
      done(std::move(grant));
      return;
    }
    // Remote application (§5j): level-2 authentication at the host through
    // its CorbaProxy, then subscribe this core to its event stream.
    wire::Encoder args;
    args.str(user);
    invoke_peer(
        entry->corba_proxy.node, entry->corba_proxy, "get_interface",
        std::move(args),
        [this, app, client_shard, already_selected,
         done](util::Result<util::Bytes> r) {
          SelectGrant g;
          AppEntry* remote = find_app(app);
          if (remote == nullptr) {
            done(std::move(g));
            return;
          }
          g.found = true;
          g.name = remote->name;
          if (!r.ok()) {
            g.error = r.error().message;
            done(std::move(g));
            return;
          }
          wire::Decoder d(r.value());
          g.privilege = static_cast<security::Privilege>(d.u8());
          const std::uint32_t n = d.u32();
          g.params.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i) {
            g.params.push_back(proto::decode_param_spec(d));
          }
          g.history_seq = d.u64();
          // Authoritative re-check: concurrent selects may have filled the
          // app while our get_interface was in flight.
          if (!admits(app, already_selected)) {
            g.admission_rejected = true;
            done(std::move(g));
            return;
          }
          remote->params = g.params;
          if (!remote->remote_subscribed && remote->remote_known_seq == 0) {
            // First subscription: events up to the level-2 handshake are
            // history the watcher never asked for.  Anything the host
            // publishes after this point must reach us — the subscribe
            // reply backfills the gap instead of skipping over it.
            remote->remote_known_seq = g.history_seq;
          }
          if (!already_selected && client_shard != shard_index_) {
            ++remote->watcher_shards[client_shard];
          }
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
         admission_watchers(app) < config_.max_sessions_per_app;
}

void DiscoverServer::release_watcher(const proto::AppId& app,
                                     const std::string& user,
                                     std::uint32_t client_shard) {
  AppEntry* entry = find_app(app);
  if (entry == nullptr) return;
  if (entry->local) {
    locks_.forget(app, LockIdentity{user, self_.value()});
  } else {
    // The lock interest of a remote app lives at its host server.
    send_forget_locks(app, user, 1);
  }
  release_shard_watcher(app, client_shard);
}

void DiscoverServer::release_shard_watcher(const proto::AppId& app,
                                           std::uint32_t client_shard) {
  AppEntry* entry = find_app(app);
  if (entry == nullptr) return;
  if (const auto it = entry->watcher_shards.find(client_shard);
      it != entry->watcher_shards.end() && --it->second == 0) {
    entry->watcher_shards.erase(it);
  }
  if (!entry->local && entry->watcher_shards.empty() &&
      subscriber_count(app) == 0) {
    unsubscribe_remote(*entry);
  }
}

std::size_t DiscoverServer::admission_watchers(const proto::AppId& app) const {
  std::size_t n = subscriber_count(app);
  if (const AppEntry* entry = find_app(app)) {
    for (const auto& [_, count] : entry->watcher_shards) n += count;
  }
  return n;
}

void DiscoverServer::fan_out_to_watcher_shards(AppEntry& entry,
                                               const proto::ClientEvent& ev) {
  const auto shared = std::make_shared<const proto::ClientEvent>(ev);
  const proto::AppId app = entry.id;
  for (const auto& [shard, count] : entry.watcher_shards) {
    if (count == 0) continue;
    DiscoverServer* core = &group_->core_at(shard);
    post_shard(shard, [core, app, shared] { core->deliver_local(app, *shared); });
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
