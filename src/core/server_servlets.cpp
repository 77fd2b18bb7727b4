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
http::HttpResponse admission_response(util::Bytes body,
                                      util::Duration retry_after) {
  http::HttpResponse resp = body_response(503, std::move(body));
  resp.headers.set("Retry-After",
                   std::to_string((retry_after + util::kSecond - 1) /
                                  util::kSecond));
  return resp;
}

/// Answers a request the session check refused: `reply` carries the
/// refusal's message and the status says why.
template <typename Reply>
void refuse(http::HttpResponse& resp, const SessionTable::Access& access,
            Reply reply) {
  reply.message = access.message;
  set_body(resp, proto::encode_body(reply));
  resp.status = access.status();
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
    auto reply = std::make_shared<HopReply>(response);
    const std::uint64_t session_key = ctx.session->id();
    const net::NodeId client_node = ctx.client;
    s.gather_user(
        req.user, req.password_digest,
        [reply, req, session_key, client_node, timed, t0, &s](UserView& acc) {
          proto::LoginReply out;
          // Admission control (flash crowds): refuse NEW sessions at the
          // cap.  A client that already holds a session here may always
          // re-login — its retry must not be punished by the crowd it is
          // part of.
          if (s.config_.max_sessions != 0 &&
              acc.sessions >= s.config_.max_sessions &&
              s.sessions_.all().count(session_key) == 0) {
            out.ok = false;
            out.admission = proto::AdmissionError::server_sessions;
            out.retry_after = s.config_.admission_retry_after;
            out.message = s.config_.name + " is full (" +
                          std::to_string(acc.sessions) + " sessions)";
            ++s.stats_.admission_rejected_logins;
            ++s.stats_.logins_failed;
            reply->complete(
                admission_response(proto::encode_body(out), out.retry_after));
            return;
          }
          // Level-1 authentication against local application ACLs (§5.2.2).
          if (!acc.known) {
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
          out.applications = std::move(acc.apps);
          ++s.stats_.logins_ok;

          // Bind (or refresh) the server-side client session.
          s.sessions_.bind(session_key, req.user, client_node);

          // Cross-server authentication fan-out: ask every known peer's
          // DiscoverCorbaServer for this user's applications (§5.2.2).
          // Peers are known to every core (§5j).  Suspect peers are
          // skipped — waiting out their timeout would stall every login
          // for nothing.
          std::vector<const PeerLink*> live_peers;
          for (const auto& [_, link] : s.links_) {
            if (link.listed() && !link.suspect) live_peers.push_back(&link);
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
          for (const PeerLink* peer : live_peers) {
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

    const SessionTable::Access access = s.sessions_.authorize(
        s.network_.now(), &req.token, ctx.session->id(), nullptr);
    if (!access) {
      ++s.stats_.selects_failed;
      refuse(response, access, proto::SelectAppReply{});
      return;
    }

    const std::string user = req.token.user;
    const std::uint64_t session_key = access.session->key;
    const proto::AppId app_id = req.app_id;
    const bool already = access.session->apps.count(app_id) > 0;
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
        [&s, finish, app_id, session_key, already, owner,
         me](SelectGrant grant) {
          proto::SelectAppReply out;
          ClientSession* sess = s.sessions_.find(session_key);
          if (!already && !grant.admission_rejected &&
              grant.privilege != security::Privilege::none &&
              (sess == nullptr || sess->apps.count(app_id) > 0)) {
            // The owner counted a new watcher, but the session left while
            // the grant was in flight, or a concurrent select of the same
            // app bound it first; return the count.
            DiscoverServer* group = s.group_;
            s.post_shard(owner, [group, owner, app_id, me] {
              group->core_at(owner).release_shard_watcher(app_id, me);
            });
          }
          if (!grant.found || sess == nullptr) {
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
            out.message = grant.error;
            ++s.stats_.selects_failed;
            finish(body_response(403, proto::encode_body(out)));
            return;
          }
          s.sessions_.subscribe(*sess, app_id).privilege = grant.privilege;
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
    if (const auto v = s.tokens_.verify(req.token, s.network_.now());
        !v.ok()) {
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
    const SessionTable::Access access = s.sessions_.authorize(
        s.network_.now(), &req.token, ctx.session->id(), &req.app_id);
    if (!access) {
      refuse(response, access, ack);
      return;
    }
    const ClientSub& sub = *access.sub;
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
    const std::string user = access.session->user;
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
          if (req.app_id.host == host.self_.value()) {
            if (ApplicationProxy* entry = host.find_hosted(req.app_id)) {
              out = host.admit_command(*entry, user, origin, req.request_id,
                                       req.kind, req.param, req.value,
                                       collab, subgroup);
              done(body_response(200, proto::encode_body(out)));
              return;
            }
          } else if (RemoteApp* entry = host.find_remote(req.app_id)) {
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
            return;
          }
          out.message = "application not found";
          done(body_response(404, proto::encode_body(out)));
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
    const util::TimePoint now = s.network_.now();
    const SessionTable::Access access = s.sessions_.authorize(
        now, &req.token, ctx.session->id(), &req.app_id);
    if (!access) {
      refuse(response, access, proto::PollReply{});
      return;
    }
    // Poll-and-pull (paper §6.2): drain the per-client FIFO buffer.  The
    // reply is serialized straight from the shared event instances (wire
    // format identical to encode_body(PollReply)).
    const std::uint32_t max = req.max_events == 0 ? 64 : req.max_events;
    std::vector<proto::SharedClientEvent> events;
    const std::uint32_t backlog =
        s.sessions_.drain(*access.sub, req.app_id, now, max, events);
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
    const SessionTable::Access access = s.sessions_.authorize(
        s.network_.now(), &req.token, ctx.session->id(), &req.app_id);
    if (!access) {
      refuse(response, access, ack);
      return;
    }
    if (req.kind != proto::EventKind::chat &&
        req.kind != proto::EventKind::whiteboard) {
      ack.message = "only chat and whiteboard posts are allowed";
      set_body(response, proto::encode_body(ack));
      response.status = 400;
      return;
    }

    proto::ClientEvent ev;
    ev.kind = req.kind;
    ev.app = req.app_id;
    ev.user = access.session->user;
    ev.text = req.text;
    ev.value = req.payload;
    ev.subgroup = access.sub->subgroup;
    ev.shared = access.sub->collab_enabled;
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
          if (ev.app.host == host.self_.value()) {
            ApplicationProxy* entry = host.find_hosted(ev.app);
            if (entry != nullptr) host.publish_event(*entry, std::move(ev));
            out.ok = entry != nullptr;
          } else {
            RemoteApp* entry = host.find_remote(ev.app);
            if (entry != nullptr) host.relay_collab_to_host(*entry, ev);
            out.ok = entry != nullptr;
          }
          out.message = out.ok ? "posted" : "application not found";
          done(body_response(out.ok ? 200 : 404, proto::encode_body(out)));
        });
  }

  void group(const http::HttpRequest& request, http::HttpResponse& response,
             http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::GroupRequest req = proto::decode_group_request(request.body);
    proto::CollabAck ack;
    const SessionTable::Access access = s.sessions_.authorize(
        s.network_.now(), &req.token, ctx.session->id(), &req.app_id);
    if (!access) {
      refuse(response, access, ack);
      return;
    }
    ClientSub& sub = *access.sub;
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
    SessionTable::Access access = s.sessions_.authorize(
        s.network_.now(), &req.token, ctx.session->id(), &req.app_id);
    if (!access) {
      // The archive refuses a missing login session like an unselected app.
      if (access.refusal == SessionTable::Refusal::session) {
        access.refusal = SessionTable::Refusal::subscription;
        access.message = "application not selected";
      }
      refuse(response, access, proto::HistoryReply{});
      return;
    }
    // The application log (§5.2.5) lives on the owner core's archive — or,
    // for a remote app, at its host, which the owner core asks.
    s.reply_from_owner(
        req.app_id, response, ctx,
        [req](DiscoverServer& host,
              std::function<void(http::HttpResponse)> done) {
          proto::HistoryReply out;
          if (req.app_id.host == host.self_.value()) {
            if (host.find_hosted(req.app_id) != nullptr) {
              out.ok = true;
              out.events = host.archive_.app_history(
                  req.app_id, req.from_seq, req.max_events);
              done(body_response(200, proto::encode_body(out)));
              return;
            }
          } else if (RemoteApp* entry = host.find_remote(req.app_id)) {
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
                  fetched.events = proto::decode_events(d);
                  fetched.ok = true;
                  done(body_response(200, proto::encode_body(fetched)));
                },
                host.config_.orb_call_timeout);
            return;
          }
          out.message = "application not found";
          done(body_response(404, proto::encode_body(out)));
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
    if (const auto v = s.tokens_.verify(req.token, s.network_.now());
        !v.ok()) {
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
    if (!s.sessions_.authorize(ctx.now, nullptr, ctx.session->id(), &app)) {
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
    const bool hosted = app.host == s.self_.value();
    const ApplicationProxy* entry = hosted ? s.find_hosted(app) : nullptr;
    if (entry == nullptr && (hosted || s.find_remote(app) == nullptr)) {
      response.status = 404;
      response.body = util::to_bytes("application not found");
      return;
    }
    if (!hosted) {
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
