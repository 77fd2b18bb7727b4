// HTTP-facing side of DiscoverServer: the master, command, collaboration
// and archive servlets (paper §4.1's core service handlers).
#include <algorithm>
#include <iterator>
#include <memory>

#include "core/server.h"
#include "util/log.h"

namespace discover::core {

namespace {

http::HttpResponse body_response(int status, util::Bytes body) {
  http::HttpResponse resp;
  resp.status = status;
  resp.headers.set("Content-Type", "application/x-discover");
  resp.body = std::move(body);
  return resp;
}

void set_body(http::HttpResponse& resp, util::Bytes body) {
  resp.headers.set("Content-Type", "application/x-discover");
  resp.body = std::move(body);
}

/// 503 + Retry-After (whole seconds, rounded up) for admission rejections.
/// Mutates in place so the container's correlation/session headers survive.
void set_admission(http::HttpResponse& resp, util::Bytes body,
                   util::Duration retry_after) {
  set_body(resp, std::move(body));
  resp.status = 503;
  resp.headers.set("Retry-After",
                   std::to_string((retry_after + util::kSecond - 1) /
                                  util::kSecond));
}

http::HttpResponse admission_response(util::Bytes body,
                                      util::Duration retry_after) {
  http::HttpResponse resp;
  set_admission(resp, std::move(body), retry_after);
  return resp;
}

/// Reply slot for a request answered through an owner hop or a gather.
/// An answer that arrives while service() is still running is written over
/// the inline response, so a request the calling core answers at once
/// leaves exactly as an unhopped one would; a later answer completes the
/// deferred reply taken by release().  Both run on the calling core.
class HopReply {
 public:
  explicit HopReply(http::HttpResponse& response) : inline_(&response) {}

  void complete(http::HttpResponse answer) {
    if (done_) return;
    done_ = true;
    if (inline_ == nullptr) {
      deferred_->complete(std::move(answer));
      return;
    }
    inline_->status = answer.status;
    for (const auto& [name, value] : answer.headers.all()) {
      inline_->headers.set(name, value);
    }
    inline_->body = std::move(answer.body);
  }

  /// Call last in service(): from here on an answer is deferred.
  void release(http::ServletContext& ctx) {
    inline_ = nullptr;
    if (!done_) deferred_ = ctx.defer();
  }

 private:
  http::HttpResponse* inline_;
  std::shared_ptr<http::DeferredHttpReply> deferred_;
  bool done_ = false;
};

}  // namespace

void DiscoverServer::reply_from_owner(
    const proto::AppId& app, http::HttpResponse& response,
    http::ServletContext& ctx,
    std::function<void(DiscoverServer&,
                       std::function<void(http::HttpResponse)>)>
        work) {
  auto slot = std::make_shared<HopReply>(response);
  ask_owner<http::HttpResponse>(
      app, std::move(work),
      [slot](http::HttpResponse r) { slot->complete(std::move(r)); });
  slot->release(ctx);
}

// ---------------------------------------------------------------------------
// Master servlet: "the client's gateway to the server" (paper §4.1)
// ---------------------------------------------------------------------------

class DiscoverServer::MasterServlet final : public http::Servlet {
 public:
  explicit MasterServlet(DiscoverServer& server) : server_(server) {}

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    const std::string path = request.path_without_query();
    try {
      if (path == kPathLogin) {
        login(request, response, ctx);
      } else if (path == kPathSelect) {
        select(request, response, ctx);
      } else if (path == kPathLogout) {
        logout(request, response, ctx);
      } else {
        response.status = 404;
      }
    } catch (const wire::DecodeError& err) {
      response = body_response(400, util::to_bytes(err.what()));
    }
  }

 private:
  // Applications — and with them the user ACLs — are striped across cores,
  // so authentication and the visible-app directory gather every core; the
  // gather also sums the per-core session counts for the server-wide
  // admission cap.
  void login(const http::HttpRequest& request, http::HttpResponse& response,
             http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::LoginRequest req = proto::decode_login_request(request.body);
    // Stage latency, decided at entry so the peer fan-out path measures
    // request arrival -> deferred completion.
    const bool timed = s.stage_sample() && s.stage_login_ != nullptr;
    const util::TimePoint t0 = ctx.now;
    struct Gather {
      bool found = false;
      std::vector<proto::AppInfo> applications;
      std::size_t total_sessions = 0;
    };
    auto acc = std::make_shared<Gather>();
    auto reply = std::make_shared<HopReply>(response);
    const std::uint64_t session_key = ctx.session->id();
    const net::NodeId client_node = ctx.client;
    s.gather_across_cores(
        [acc, req](DiscoverServer& core) {
          acc->found |= core.authenticate_local(req.user, req.password_digest);
          auto apps = core.visible_apps(req.user);
          acc->applications.insert(acc->applications.end(),
                                   std::make_move_iterator(apps.begin()),
                                   std::make_move_iterator(apps.end()));
          acc->total_sessions += core.sessions_.size();
        },
        [acc, reply, req, session_key, client_node, timed, t0, &s] {
          proto::LoginReply out;
          // Admission control (flash crowds): refuse NEW sessions at the
          // cap.  A client that already holds a session here may always
          // re-login — its retry must not be punished by the crowd it is
          // part of.
          if (s.config_.max_sessions != 0 &&
              acc->total_sessions >= s.config_.max_sessions &&
              s.sessions_.count(session_key) == 0) {
            out.ok = false;
            out.admission = proto::AdmissionError::server_sessions;
            out.retry_after = s.config_.admission_retry_after;
            out.message = s.config_.name + " is full (" +
                          std::to_string(acc->total_sessions) + " sessions)";
            ++s.stats_.admission_rejected_logins;
            ++s.stats_.logins_failed;
            reply->complete(
                admission_response(proto::encode_body(out), out.retry_after));
            return;
          }
          // Level-1 authentication against local application ACLs (§5.2.2).
          if (!acc->found) {
            out.ok = false;
            out.message = "unknown user or bad password at " + s.config_.name;
            ++s.stats_.logins_failed;
            reply->complete(body_response(401, proto::encode_body(out)));
            return;
          }
          out.ok = true;
          out.message = "welcome to " + s.config_.name;
          // Tokens verify on every core: same node id, same secret.
          out.token = s.tokens_.issue(req.user, s.network_.now(),
                                      s.config_.token_ttl);
          // Present the directory in app-id order whatever the core visit
          // order was.
          std::sort(acc->applications.begin(), acc->applications.end(),
                    [](const proto::AppInfo& a, const proto::AppInfo& b) {
                      return a.id < b.id;
                    });
          out.applications = std::move(acc->applications);
          ++s.stats_.logins_ok;

          // Bind (or refresh) the server-side client session.
          ClientSession& session = s.sessions_[session_key];
          session.key = session_key;
          session.user = req.user;
          session.client_node = client_node;

          // Cross-server authentication fan-out: ask every known peer's
          // DiscoverCorbaServer for this user's applications (§5.2.2).
          // Peers are known to every core (§5j).  Suspect peers are
          // skipped — waiting out their timeout would stall every login
          // for nothing.
          std::vector<Peer*> live_peers;
          for (auto& [node, peer] : s.peers_) {
            if (!peer.suspect) live_peers.push_back(&peer);
          }
          if (live_peers.empty()) {
            if (timed) s.stage_login_->record(s.network_.now() - t0);
            reply->complete(body_response(200, proto::encode_body(out)));
            return;
          }
          struct FanOut {
            proto::LoginReply reply;
            std::size_t remaining;
          };
          auto state = std::make_shared<FanOut>();
          state->reply = std::move(out);
          state->remaining = live_peers.size();
          for (Peer* peer : live_peers) {
            wire::Encoder args;
            args.str(req.user);
            args.u64(req.password_digest);
            s.invoke_peer(
                peer->node, peer->server_ref, "authenticate", std::move(args),
                [state, reply, &s, timed, t0](util::Result<util::Bytes> r) {
                  if (r.ok()) {
                    wire::Decoder d(r.value());
                    if (d.boolean()) {
                      const std::uint32_t n = d.u32();
                      for (std::uint32_t i = 0; i < n; ++i) {
                        state->reply.applications.push_back(
                            proto::decode_app_info(d));
                      }
                    }
                  }
                  if (--state->remaining == 0) {
                    if (timed) s.stage_login_->record(s.network_.now() - t0);
                    reply->complete(
                        body_response(200, proto::encode_body(state->reply)));
                  }
                },
                s.config_.login_fanout_timeout);
          }
        });
    reply->release(ctx);
  }

  void select(const http::HttpRequest& request, http::HttpResponse& response,
              http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::SelectAppRequest req =
        proto::decode_select_app_request(request.body);

    proto::SelectAppReply reply;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      reply.message = v.error().message;
      ++s.stats_.selects_failed;
      set_body(response, proto::encode_body(reply));
      response.status = 401;
      return;
    }
    ClientSession* session = s.session_by_token(req.token, ctx.session->id());
    if (session == nullptr) {
      reply.message = "no active login session";
      ++s.stats_.selects_failed;
      set_body(response, proto::encode_body(reply));
      response.status = 401;
      return;
    }

    const std::string user = req.token.user;
    const std::uint64_t session_key = session->key;
    const proto::AppId app_id = req.app_id;
    const bool already = session->apps.count(app_id) > 0;
    // Stage latency: request arrival -> completion, so the remote
    // get_interface round-trip is part of the measured select cost.
    const bool timed = s.stage_sample() && s.stage_select_ != nullptr;
    const util::TimePoint t0 = ctx.now;
    auto slot = std::make_shared<HopReply>(response);
    const auto finish = [&s, slot, timed, t0](http::HttpResponse r) {
      if (timed) s.stage_select_->record(s.network_.now() - t0);
      slot->complete(std::move(r));
    };
    // The owner core admits and authenticates (and, for a remote app, runs
    // the host-side get_interface/subscribe handshake); the subscription
    // itself binds to the session here, on the session's core.
    const std::uint32_t owner = s.shard_owner_of(app_id);
    const std::uint32_t me = s.shard_index_;
    s.ask_owner<SelectGrant>(
        app_id,
        [app_id, user, me, already](DiscoverServer& host,
                                    std::function<void(SelectGrant)> done) {
          host.select_on_owner(app_id, user, me, already, std::move(done));
        },
        [&s, finish, app_id, user, session_key, already, owner,
         me](SelectGrant grant) {
          proto::SelectAppReply out;
          ClientSession* sess = s.session_of(session_key);
          if (!grant.found || sess == nullptr) {
            if (sess == nullptr && !already && !grant.admission_rejected &&
                grant.privilege != security::Privilege::none) {
              // The session left while the grant was in flight; return the
              // watcher the owner just counted.
              DiscoverServer* group = s.group_;
              s.post_shard(owner, [group, owner, app_id, me] {
                group->core_at(owner).release_shard_watcher(app_id, me);
              });
            }
            out.message = "application not found: " + app_id.to_string();
            ++s.stats_.selects_failed;
            finish(body_response(404, proto::encode_body(out)));
            return;
          }
          if (grant.admission_rejected) {
            out.admission = proto::AdmissionError::app_sessions;
            out.retry_after = s.config_.admission_retry_after;
            out.message = "application " + app_id.to_string() + " is full";
            ++s.stats_.admission_rejected_selects;
            ++s.stats_.selects_failed;
            finish(admission_response(proto::encode_body(out),
                                      out.retry_after));
            return;
          }
          if (grant.privilege == security::Privilege::none) {
            out.message = grant.error.empty()
                              ? user + " has no access to " + grant.name
                              : grant.error;
            ++s.stats_.selects_failed;
            finish(body_response(403, proto::encode_body(out)));
            return;
          }
          ClientSub& sub = s.subscribe_session(*sess, app_id);
          sub.privilege = grant.privilege;
          out.ok = true;
          out.privilege = grant.privilege;
          out.interface_spec = std::move(grant.params);
          out.history_seq = grant.history_seq;
          ++s.stats_.selects_ok;
          finish(body_response(200, proto::encode_body(out)));
        });
    slot->release(ctx);
  }

  void logout(const http::HttpRequest& request, http::HttpResponse& response,
              http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::LogoutRequest req =
        proto::decode_logout_request(request.body);
    proto::CollabAck ack;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      ack.message = v.error().message;
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    s.drop_session(ctx.session->id());
    ack.ok = true;
    ack.message = "logged out";
    set_body(response, proto::encode_body(ack));
  }

  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Command servlet: "manages all client view/command requests" (paper §4.1)
// ---------------------------------------------------------------------------

class DiscoverServer::CommandServlet final : public http::Servlet {
 public:
  explicit CommandServlet(DiscoverServer& server) : server_(server) {}

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    DiscoverServer& s = server_;
    proto::CommandRequest req;
    try {
      req = proto::decode_command_request(request.body);
    } catch (const wire::DecodeError& err) {
      response = body_response(400, util::to_bytes(err.what()));
      return;
    }

    proto::CommandAck ack;
    ack.request_id = req.request_id;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      ack.message = v.error().message;
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    ClientSession* session = s.session_by_token(req.token, ctx.session->id());
    if (session == nullptr) {
      ack.message = "no active login session";
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    const auto sub_it = session->apps.find(req.app_id);
    if (sub_it == session->apps.end()) {
      ack.message = "application not selected";
      set_body(response, proto::encode_body(ack));
      response.status = 400;
      return;
    }
    ClientSub& sub = sub_it->second;
    // Fast-fail on the cached privilege; the host re-checks authoritatively.
    if (!security::allows(sub.privilege,
                          proto::required_privilege(req.kind))) {
      ack.message = "insufficient privilege";
      ++s.stats_.commands_rejected;
      set_body(response, proto::encode_body(ack));
      response.status = 403;
      return;
    }

    // The cached-privilege fast-fail ran against our session sub; the
    // owner core re-checks authoritatively in admit_command (§5.2.2), or
    // relays to a remote app's host through its CorbaProxy (§5.1.2) and
    // answers with the host's admission verdict.
    const std::string user = session->user;
    const std::uint32_t origin = s.self_.value();
    const bool collab = sub.collab_enabled;
    const std::string subgroup = sub.subgroup;
    s.reply_from_owner(
        req.app_id, response, ctx,
        [user, origin, req, collab, subgroup](
            DiscoverServer& host,
            std::function<void(http::HttpResponse)> done) {
          proto::CommandAck out;
          out.request_id = req.request_id;
          AppEntry* entry = host.find_app(req.app_id);
          if (entry == nullptr) {
            out.message = "application not found";
            done(body_response(404, proto::encode_body(out)));
            return;
          }
          if (entry->local) {
            out = host.admit_command(*entry, user, origin, req.request_id,
                                     req.kind, req.param, req.value, collab,
                                     subgroup);
            done(body_response(200, proto::encode_body(out)));
            return;
          }
          ++host.stats_.remote_commands_out;
          wire::Encoder args;
          args.str(user);
          args.u64(req.request_id);
          args.u8(static_cast<std::uint8_t>(req.kind));
          args.str(req.param);
          proto::encode(args, req.value);
          args.boolean(collab);
          args.str(subgroup);
          host.invoke_peer(
              entry->corba_proxy.node, entry->corba_proxy, "send_command",
              std::move(args),
              [out, done](util::Result<util::Bytes> r) mutable {
                if (!r.ok()) {
                  out.message = r.error().message;
                  done(body_response(503, proto::encode_body(out)));
                  return;
                }
                wire::Decoder d(r.value());
                out.accepted = d.boolean();
                out.message = d.str();
                done(body_response(200, proto::encode_body(out)));
              },
              host.config_.orb_call_timeout);
        });
  }

 private:
  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Collaboration servlet: poll, chat/whiteboard, sub-groups (paper §4.1)
// ---------------------------------------------------------------------------

class DiscoverServer::CollabServlet final : public http::Servlet {
 public:
  explicit CollabServlet(DiscoverServer& server) : server_(server) {}

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    const std::string path = request.path_without_query();
    try {
      if (path == kPathPoll) {
        poll(request, response, ctx);
      } else if (path == kPathCollabPost) {
        post(request, response, ctx);
      } else if (path == kPathGroup) {
        group(request, response, ctx);
      } else {
        response.status = 404;
      }
    } catch (const wire::DecodeError& err) {
      response = body_response(400, util::to_bytes(err.what()));
    }
  }

 private:
  void poll(const http::HttpRequest& request, http::HttpResponse& response,
            http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const bool timed = s.stage_sample() && s.stage_poll_ != nullptr;
    const util::TimePoint t0 = ctx.now;
    const proto::PollRequest req = proto::decode_poll_request(request.body);
    proto::PollReply reply;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      reply.message = v.error().message;
      set_body(response, proto::encode_body(reply));
      response.status = 401;
      return;
    }
    ClientSession* session = s.session_by_token(req.token, ctx.session->id());
    if (session == nullptr) {
      reply.message = "no active login session";
      set_body(response, proto::encode_body(reply));
      response.status = 401;
      return;
    }
    const auto sub_it = session->apps.find(req.app_id);
    if (sub_it == session->apps.end()) {
      reply.message = "application not selected";
      set_body(response, proto::encode_body(reply));
      response.status = 400;
      return;
    }
    // Poll-and-pull (paper §6.2): drain the per-client FIFO buffer.  The
    // FIFO holds shared event instances, so draining moves pointers and the
    // reply is serialized straight from them — no event copies on the poll
    // path (wire format identical to encode_body(PollReply)).
    ClientSub& sub = sub_it->second;
    const std::uint32_t max = req.max_events == 0 ? 64 : req.max_events;
    std::vector<proto::SharedClientEvent> events;
    events.reserve(std::min<std::size_t>(sub.fifo.size(), max) + 1);
    if (sub.shed_since_poll > 0) {
      // The shed policy dropped events since this client last drained.  Lead
      // the reply with a resync marker (before any survivors) carrying the
      // shed count, so the client knows to catch up via the archive.
      proto::ClientEvent marker;
      marker.kind = proto::EventKind::resync;
      marker.app = req.app_id;
      marker.at = s.network_.now();
      marker.text = "events shed by server backpressure; resync via archive";
      marker.value =
          proto::ParamValue{static_cast<std::int64_t>(sub.shed_since_poll)};
      events.push_back(
          std::make_shared<const proto::ClientEvent>(std::move(marker)));
      sub.shed_since_poll = 0;
      ++s.stats_.resync_markers;
    }
    while (!sub.fifo.empty() && events.size() < max) {
      events.push_back(sub.fifo.front());
      s.fifo_pop_front(sub);
    }
    const auto backlog = static_cast<std::uint32_t>(sub.fifo.size());
    ++s.stats_.polls_served;
    set_body(response, proto::encode_poll_reply_shared(true, std::string(),
                                                       events, backlog));
    if (timed) s.stage_poll_->record(s.network_.now() - t0);
  }

  void post(const http::HttpRequest& request, http::HttpResponse& response,
            http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::CollabPost req = proto::decode_collab_post(request.body);
    proto::CollabAck ack;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      ack.message = v.error().message;
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    ClientSession* session = s.session_by_token(req.token, ctx.session->id());
    if (session == nullptr) {
      ack.message = "no active login session";
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    const auto sub_it = session->apps.find(req.app_id);
    if (sub_it == session->apps.end()) {
      ack.message = "application not selected";
      set_body(response, proto::encode_body(ack));
      response.status = 400;
      return;
    }
    if (req.kind != proto::EventKind::chat &&
        req.kind != proto::EventKind::whiteboard) {
      ack.message = "only chat and whiteboard posts are allowed";
      set_body(response, proto::encode_body(ack));
      response.status = 400;
      return;
    }

    ClientSub& sub = sub_it->second;
    proto::ClientEvent ev;
    ev.kind = req.kind;
    ev.app = req.app_id;
    ev.user = session->user;
    ev.text = req.text;
    ev.value = req.payload;
    ev.subgroup = sub.subgroup;
    ev.shared = sub.collab_enabled;
    ++s.stats_.collab_posts;

    // The event is built here from our session state; stamping, archiving
    // and redistribution are the owner core's job — or, for a remote app,
    // its host's (§5.2.3), reached through the owner's relay (and its
    // outbox when batching is on).
    s.reply_from_owner(
        req.app_id, response, ctx,
        [ev = std::move(ev)](
            DiscoverServer& host,
            std::function<void(http::HttpResponse)> done) mutable {
          proto::CollabAck out;
          AppEntry* entry = host.find_app(ev.app);
          if (entry == nullptr) {
            out.message = "application not found";
            done(body_response(404, proto::encode_body(out)));
            return;
          }
          if (entry->local) {
            host.publish_event(*entry, std::move(ev));
          } else {
            host.relay_collab_to_host(*entry, ev);
          }
          out.ok = true;
          out.message = "posted";
          done(body_response(200, proto::encode_body(out)));
        });
  }

  void group(const http::HttpRequest& request, http::HttpResponse& response,
             http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::GroupRequest req = proto::decode_group_request(request.body);
    proto::CollabAck ack;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      ack.message = v.error().message;
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    ClientSession* session = s.session_by_token(req.token, ctx.session->id());
    if (session == nullptr) {
      ack.message = "no active login session";
      set_body(response, proto::encode_body(ack));
      response.status = 401;
      return;
    }
    const auto sub_it = session->apps.find(req.app_id);
    if (sub_it == session->apps.end()) {
      ack.message = "application not selected";
      set_body(response, proto::encode_body(ack));
      response.status = 400;
      return;
    }
    ClientSub& sub = sub_it->second;
    switch (req.op) {
      case proto::GroupOp::join_subgroup:
        sub.subgroup = req.subgroup;
        break;
      case proto::GroupOp::leave_subgroup:
        sub.subgroup.clear();
        break;
      case proto::GroupOp::enable_collab:
        sub.collab_enabled = true;
        break;
      case proto::GroupOp::disable_collab:
        sub.collab_enabled = false;
        break;
      case proto::GroupOp::enable_push:
        sub.push = true;
        break;
      case proto::GroupOp::disable_push:
        sub.push = false;
        break;
    }
    ack.ok = true;
    ack.message = "group state updated";
    set_body(response, proto::encode_body(ack));
  }

  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Archive servlet: session replay and latecomer catch-up (paper §5.2.5)
// ---------------------------------------------------------------------------

class DiscoverServer::ArchiveServlet final : public http::Servlet {
 public:
  explicit ArchiveServlet(DiscoverServer& server) : server_(server) {}

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    DiscoverServer& s = server_;
    proto::HistoryRequest req;
    try {
      req = proto::decode_history_request(request.body);
    } catch (const wire::DecodeError& err) {
      response = body_response(400, util::to_bytes(err.what()));
      return;
    }
    proto::HistoryReply reply;
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      reply.message = v.error().message;
      set_body(response, proto::encode_body(reply));
      response.status = 401;
      return;
    }
    ClientSession* session = s.session_by_token(req.token, ctx.session->id());
    if (session == nullptr || session->apps.count(req.app_id) == 0) {
      reply.message = "application not selected";
      set_body(response, proto::encode_body(reply));
      response.status = 400;
      return;
    }
    // The application log (§5.2.5) lives on the owner core's archive — or,
    // for a remote app, at its host, which the owner core asks.
    s.reply_from_owner(
        req.app_id, response, ctx,
        [req](DiscoverServer& host,
              std::function<void(http::HttpResponse)> done) {
          proto::HistoryReply out;
          AppEntry* entry = host.find_app(req.app_id);
          if (entry == nullptr) {
            out.message = "application not found";
            done(body_response(404, proto::encode_body(out)));
            return;
          }
          if (entry->local) {
            out.ok = true;
            out.events = host.archive_.app_history(req.app_id, req.from_seq,
                                                   req.max_events);
            done(body_response(200, proto::encode_body(out)));
            return;
          }
          wire::Encoder args;
          args.u64(req.from_seq);
          args.u32(req.max_events);
          host.invoke_peer(
              entry->corba_proxy.node, entry->corba_proxy, "poll_events",
              std::move(args),
              [done](util::Result<util::Bytes> r) {
                proto::HistoryReply fetched;
                if (!r.ok()) {
                  fetched.message = r.error().message;
                  done(body_response(503, proto::encode_body(fetched)));
                  return;
                }
                wire::Decoder d(r.value());
                const std::uint32_t n = d.u32();
                fetched.events.reserve(n);
                for (std::uint32_t i = 0; i < n; ++i) {
                  fetched.events.push_back(proto::decode_client_event(d));
                }
                fetched.ok = true;
                done(body_response(200, proto::encode_body(fetched)));
              },
              host.config_.orb_call_timeout);
        });
  }

 private:
  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Redirect servlet: the "request redirection" auxiliary service (paper
// §4.1).  Tells a client which server hosts an application so the portal
// can connect to it directly — the host is extractable from the
// application identifier itself (§5.2.1).
// ---------------------------------------------------------------------------

class DiscoverServer::RedirectServlet final : public http::Servlet {
 public:
  explicit RedirectServlet(DiscoverServer& server) : server_(server) {}

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    (void)ctx;
    DiscoverServer& s = server_;
    proto::SelectAppRequest req;
    try {
      req = proto::decode_select_app_request(request.body);
    } catch (const wire::DecodeError& err) {
      response = body_response(400, util::to_bytes(err.what()));
      return;
    }
    if (const auto v = s.verify_token(req.token); !v.ok()) {
      response.status = 401;
      response.body = util::to_bytes(v.error().message);
      return;
    }
    response.headers.set(kHostHeader, std::to_string(req.app_id.host));
    if (req.app_id.host == s.self_.value()) {
      response.status = 200;  // already at the host
    } else {
      response.status = 307;  // temporary redirect to the host server
    }
  }

 private:
  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Visualization servlet: another §4.1 auxiliary service.  Renders a
// metric's recent history (from the application log) as a browser-friendly
// text report with an ASCII sparkline:
//   GET /discover/viz?app=<host:local>&metric=<name>&n=<width>
// Authorization comes from the HTTP session: the client must have selected
// the application (level-2) through this server first.
// ---------------------------------------------------------------------------

class DiscoverServer::VisualizationServlet final : public http::Servlet {
 public:
  explicit VisualizationServlet(DiscoverServer& server) : server_(server) {}

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    DiscoverServer& s = server_;
    const auto app_param = request.query_param("app");
    const auto metric = request.query_param("metric");
    if (!app_param || !metric) {
      response.status = 400;
      response.body = util::to_bytes("usage: ?app=<host:local>&metric=<name>"
                                     "[&n=<width>]");
      return;
    }
    const proto::AppId app = proto::AppId::parse(*app_param);
    ClientSession* session = s.session_of(ctx.session->id());
    if (session == nullptr || session->apps.count(app) == 0) {
      response.status = 403;
      response.body = util::to_bytes("select the application first");
      return;
    }
    std::size_t width = 60;
    if (const auto n = request.query_param("n")) {
      width = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::strtoul(n->c_str(), nullptr, 10)), 5,
          400);
    }

    // The application log lives on the owner core; the whole report
    // renders there.
    s.reply_from_owner(
        app, response, ctx,
        [app, metric = *metric, width](
            DiscoverServer& host,
            std::function<void(http::HttpResponse)> done) {
          http::HttpResponse out;
          render(host, app, metric, width, out);
          done(std::move(out));
        });
  }

 private:
  /// Renders the report against `s`'s app table and archive; must run on
  /// `s`'s execution context.
  static void render(DiscoverServer& s, const proto::AppId& app,
                     const std::string& metric, std::size_t width,
                     http::HttpResponse& response) {
    const AppEntry* entry = s.find_app(app);
    if (entry == nullptr) {
      response.status = 404;
      response.body = util::to_bytes("application not found");
      return;
    }
    if (!entry->local) {
      // The application log lives at the host (§5.2.5); point the browser
      // there rather than proxying bulk history.
      response.status = 307;
      response.headers.set(kHostHeader, std::to_string(app.host));
      response.body = util::to_bytes("visualization served by host server " +
                                     std::to_string(app.host));
      return;
    }

    // Newest `width` samples of the metric from the application log.
    std::vector<double> series;
    for (const auto& ev :
         s.archive_.app_history(app, 0, 0)) {
      if (ev.kind != proto::EventKind::update) continue;
      const auto it = ev.metrics.find(metric);
      if (it != ev.metrics.end()) series.push_back(it->second);
    }
    if (series.size() > width) {
      series.erase(series.begin(),
                   series.end() - static_cast<std::ptrdiff_t>(width));
    }
    if (series.empty()) {
      response.status = 404;
      response.body = util::to_bytes("no samples for metric " + metric);
      return;
    }

    double lo = series.front();
    double hi = series.front();
    double sum = 0;
    for (const double v : series) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    static constexpr const char* kBars[] = {"_", ".", ":", "-", "=", "+",
                                            "*", "#"};
    std::string spark;
    for (const double v : series) {
      const double t = hi > lo ? (v - lo) / (hi - lo) : 0.5;
      spark += kBars[static_cast<int>(t * 7.0 + 0.5)];
    }
    char head[256];
    std::snprintf(head, sizeof(head),
                  "%s @ %s\nsamples=%zu min=%g max=%g avg=%g\n",
                  metric.c_str(), entry->name.c_str(), series.size(), lo,
                  hi, sum / static_cast<double>(series.size()));
    response.headers.set("Content-Type", "text/plain");
    response.body = util::to_bytes(std::string(head) + spark + "\n");
  }

  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Metrics servlet: exposes the server's MetricsRegistry.
//   GET /discover/metrics             -> Prometheus-style text exposition
//   GET /discover/metrics?format=json -> JSON variant
// Scrapes are observability traffic, not collaboratory work: the servlet is
// untraced so a scraper does not pollute the span ring it is inspecting.
// ---------------------------------------------------------------------------

class DiscoverServer::MetricsServlet final : public http::Servlet {
 public:
  explicit MetricsServlet(DiscoverServer& server) : server_(server) {}

  [[nodiscard]] bool traced() const override { return false; }

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    const auto format = request.query_param("format");
    const bool json = format && *format == "json";

    // Every core keeps its own registry so the hot paths never share
    // counters; one scrape visits each core on its own worker and merges
    // the snapshots into a single exposition.
    auto reply = std::make_shared<HopReply>(response);
    auto snaps =
        std::make_shared<std::vector<util::MetricsRegistry::Snapshot>>();
    server_.gather_across_cores(
        [snaps](DiscoverServer& core) {
          snaps->push_back(core.metrics_.snapshot());
        },
        [snaps, reply, json] {
          const auto merged = util::MetricsRegistry::merge(*snaps);
          http::HttpResponse out;
          if (json) {
            out.headers.set("Content-Type", "application/json");
            out.body = util::to_bytes(util::MetricsRegistry::render_json(merged));
          } else {
            out.headers.set("Content-Type", "text/plain");
            out.body = util::to_bytes(
                util::MetricsRegistry::render_prometheus(merged));
          }
          reply->complete(std::move(out));
        });
    reply->release(ctx);
  }

 private:
  DiscoverServer& server_;
};

// ---------------------------------------------------------------------------
// Trace servlet: dumps the bounded span ring.
//   GET /discover/trace             -> one line per span, oldest first
//   GET /discover/trace?format=json -> JSON variant
// ---------------------------------------------------------------------------

class DiscoverServer::TraceServlet final : public http::Servlet {
 public:
  explicit TraceServlet(DiscoverServer& server) : server_(server) {}

  [[nodiscard]] bool traced() const override { return false; }

  void service(const http::HttpRequest& request, http::HttpResponse& response,
               http::ServletContext& ctx) override {
    const auto format = request.query_param("format");
    const bool json = format && *format == "json";

    // Each core keeps its own span ring; dump them in core order.  Trace
    // ids carry the core index (util::Tracer shard minting), so the
    // concatenation stays unambiguous.
    auto reply = std::make_shared<HopReply>(response);
    auto parts = std::make_shared<std::vector<std::string>>();
    server_.gather_across_cores(
        [parts, json](DiscoverServer& core) {
          parts->push_back(json ? core.tracer_.dump_json()
                                : core.tracer_.dump_text());
        },
        [parts, reply, json] {
          http::HttpResponse out;
          std::string body;
          if (json && parts->size() > 1) {
            body = "{\"shards\":[";
            for (std::size_t i = 0; i < parts->size(); ++i) {
              if (i != 0) body += ',';
              body += (*parts)[i];
            }
            body += "]}";
          } else {
            for (const auto& part : *parts) body += part;
          }
          out.headers.set("Content-Type",
                          json ? "application/json" : "text/plain");
          out.body = util::to_bytes(body);
          reply->complete(std::move(out));
        });
    reply->release(ctx);
  }

 private:
  DiscoverServer& server_;
};

void DiscoverServer::mount_servlets() {
  container_->mount("/discover/master", std::make_shared<MasterServlet>(*this));
  container_->mount(kPathCommand, std::make_shared<CommandServlet>(*this));
  container_->mount("/discover/collab", std::make_shared<CollabServlet>(*this));
  container_->mount(kPathArchive, std::make_shared<ArchiveServlet>(*this));
  container_->mount(kPathRedirect,
                    std::make_shared<RedirectServlet>(*this));
  container_->mount(kPathViz,
                    std::make_shared<VisualizationServlet>(*this));
  container_->mount(kPathMetrics, std::make_shared<MetricsServlet>(*this));
  container_->mount(kPathTrace, std::make_shared<TraceServlet>(*this));
}

}  // namespace discover::core
