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

}  // namespace

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
  void login(const http::HttpRequest& request, http::HttpResponse& response,
             http::ServletContext& ctx) {
    DiscoverServer& s = server_;
    const proto::LoginRequest req = proto::decode_login_request(request.body);
    // Stage latency, decided at entry so the peer fan-out path measures
    // request arrival -> deferred completion.
    const bool timed = s.stage_sample() && s.stage_login_ != nullptr;
    const util::TimePoint t0 = ctx.now;

    if (s.sharded()) {
      login_sharded(req, ctx, timed, t0);
      return;
    }

    proto::LoginReply reply;
    // Admission control (flash crowds): refuse NEW sessions at the cap.  A
    // client that already holds a session here may always re-login — its
    // retry must not be punished by the crowd it is part of.
    if (s.config_.max_sessions != 0 &&
        s.sessions_.size() >= s.config_.max_sessions &&
        s.sessions_.count(ctx.session->id()) == 0) {
      reply.ok = false;
      reply.admission = proto::AdmissionError::server_sessions;
      reply.retry_after = s.config_.admission_retry_after;
      reply.message = s.config_.name + " is full (" +
                      std::to_string(s.sessions_.size()) + " sessions)";
      ++s.stats_.admission_rejected_logins;
      ++s.stats_.logins_failed;
      set_admission(response, proto::encode_body(reply), reply.retry_after);
      return;
    }
    // Level-1 authentication against local application ACLs (§5.2.2).
    if (!s.authenticate_local(req.user, req.password_digest)) {
      reply.ok = false;
      reply.message = "unknown user or bad password at " + s.config_.name;
      ++s.stats_.logins_failed;
      set_body(response, proto::encode_body(reply));
      response.status = 401;
      return;
    }
    reply.ok = true;
    reply.message = "welcome to " + s.config_.name;
    reply.token = s.tokens_.issue(req.user, s.network_.now(),
                                  s.config_.token_ttl);
    reply.applications = s.visible_apps(req.user);
    ++s.stats_.logins_ok;

    // Bind (or refresh) the server-side client session.
    ClientSession& session = s.sessions_[ctx.session->id()];
    session.key = ctx.session->id();
    session.user = req.user;
    session.client_node = ctx.client;

    // Cross-server authentication fan-out: ask every known peer's
    // DiscoverCorbaServer for this user's applications (§5.2.2).  Suspect
    // peers are skipped — waiting out their timeout would stall every
    // login for nothing.
    std::vector<Peer*> live_peers;
    for (auto& [node, peer] : s.peers_) {
      if (!peer.suspect) live_peers.push_back(&peer);
    }
    if (live_peers.empty()) {
      set_body(response, proto::encode_body(reply));
      if (timed) s.stage_login_->record(s.network_.now() - t0);
      return;
    }

    auto deferred = ctx.defer();
    struct FanOut {
      proto::LoginReply reply;
      std::size_t remaining;
      std::shared_ptr<http::DeferredHttpReply> out;
    };
    auto state = std::make_shared<FanOut>();
    state->reply = std::move(reply);
    state->remaining = live_peers.size();
    state->out = deferred;
    for (Peer* peer : live_peers) {
      wire::Encoder args;
      args.str(req.user);
      args.u64(req.password_digest);
      s.invoke_peer(
          peer->node, peer->server_ref, "authenticate", std::move(args),
          [state, &s, timed, t0](util::Result<util::Bytes> r) {
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
              state->out->complete(
                  body_response(200, proto::encode_body(state->reply)));
            }
          },
          s.config_.login_fanout_timeout);
    }
  }

  // Sharded login (DESIGN.md §5i): applications — and with them the user
  // ACLs — are striped across cores, so authentication and the visible-app
  // directory need one hop through every core.  The gather also sums the
  // per-core session counts for the server-wide admission cap.
  void login_sharded(const proto::LoginRequest& req, http::ServletContext& ctx,
                     bool timed, util::TimePoint t0) {
    DiscoverServer& s = server_;
    struct Gather {
      bool found = false;
      std::vector<proto::AppInfo> applications;
      std::size_t total_sessions = 0;
    };
    auto acc = std::make_shared<Gather>();
    auto deferred = ctx.defer();
    const std::uint64_t session_key = ctx.session->id();
    const net::NodeId client_node = ctx.client;
    const proto::LoginRequest r = req;
    s.gather_across_cores(
        [acc, r](DiscoverServer& core) {
          acc->found |=
              core.authenticate_local(r.user, r.password_digest);
          auto apps = core.visible_apps(r.user);
          acc->applications.insert(acc->applications.end(),
                                   std::make_move_iterator(apps.begin()),
                                   std::make_move_iterator(apps.end()));
          acc->total_sessions += core.sessions_.size();
        },
        [acc, deferred, r, session_key, client_node, timed, t0, &s] {
          proto::LoginReply reply;
          if (s.config_.max_sessions != 0 &&
              acc->total_sessions >= s.config_.max_sessions &&
              s.sessions_.count(session_key) == 0) {
            reply.ok = false;
            reply.admission = proto::AdmissionError::server_sessions;
            reply.retry_after = s.config_.admission_retry_after;
            reply.message = s.config_.name + " is full (" +
                            std::to_string(acc->total_sessions) +
                            " sessions)";
            ++s.stats_.admission_rejected_logins;
            ++s.stats_.logins_failed;
            deferred->complete(admission_response(proto::encode_body(reply),
                                                  reply.retry_after));
            return;
          }
          if (!acc->found) {
            reply.ok = false;
            reply.message =
                "unknown user or bad password at " + s.config_.name;
            ++s.stats_.logins_failed;
            deferred->complete(
                body_response(401, proto::encode_body(reply)));
            return;
          }
          reply.ok = true;
          reply.message = "welcome to " + s.config_.name;
          // Tokens verify on every core: same node id, same secret.
          reply.token = s.tokens_.issue(r.user, s.network_.now(),
                                        s.config_.token_ttl);
          // Core visit order is deterministic but an implementation detail;
          // present the directory in app-id order like a single core would.
          std::sort(acc->applications.begin(), acc->applications.end(),
                    [](const proto::AppInfo& a, const proto::AppInfo& b) {
                      return a.id < b.id;
                    });
          reply.applications = std::move(acc->applications);
          ++s.stats_.logins_ok;
          ClientSession& session = s.sessions_[session_key];
          session.key = session_key;
          session.user = r.user;
          session.client_node = client_node;

          // Cross-server authentication fan-out, same as the unsharded
          // path: peers are mirrored to every core (§5j), so this core
          // can ask each live peer's DiscoverCorbaServer directly.
          std::vector<Peer*> live_peers;
          for (auto& [node, peer] : s.peers_) {
            if (!peer.suspect) live_peers.push_back(&peer);
          }
          if (live_peers.empty()) {
            if (timed) s.stage_login_->record(s.network_.now() - t0);
            deferred->complete(
                body_response(200, proto::encode_body(reply)));
            return;
          }
          struct FanOut {
            proto::LoginReply reply;
            std::size_t remaining;
            std::shared_ptr<http::DeferredHttpReply> out;
          };
          auto state = std::make_shared<FanOut>();
          state->reply = std::move(reply);
          state->remaining = live_peers.size();
          state->out = deferred;
          for (Peer* peer : live_peers) {
            wire::Encoder args;
            args.str(r.user);
            args.u64(r.password_digest);
            s.invoke_peer(
                peer->node, peer->server_ref, "authenticate",
                std::move(args),
                [state, &s, timed, t0](util::Result<util::Bytes> rr) {
                  if (rr.ok()) {
                    wire::Decoder d(rr.value());
                    if (d.boolean()) {
                      const std::uint32_t n = d.u32();
                      for (std::uint32_t i = 0; i < n; ++i) {
                        state->reply.applications.push_back(
                            proto::decode_app_info(d));
                      }
                    }
                  }
                  if (--state->remaining == 0) {
                    if (timed) {
                      s.stage_login_->record(s.network_.now() - t0);
                    }
                    state->out->complete(body_response(
                        200, proto::encode_body(state->reply)));
                  }
                },
                s.config_.login_fanout_timeout);
          }
        });
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
    auto deferred = ctx.defer();
    // Stage latency: request arrival -> deferred completion, so the remote
    // get_interface round-trip is part of the measured select cost.
    const bool timed = s.stage_sample() && s.stage_select_ != nullptr;
    const util::TimePoint t0 = ctx.now;
    const auto finish = [&s, deferred, timed, t0](http::HttpResponse r) {
      if (timed) s.stage_select_->record(s.network_.now() - t0);
      deferred->complete(std::move(r));
    };

    // Cross-shard select (DESIGN.md §5i/§5j): the app — local to a sibling
    // core, or a remote app that core owns — lives on another core of this
    // server.  Hop to the owner for the ACL/admission grant (which also
    // bumps our shard's watcher refcount and, for remote apps, runs the
    // host-side get_interface/subscribe handshake), then finish the
    // subscription against our session state back here.
    if (const std::uint32_t owner = s.shard_owner_of(app_id);
        s.sharded() && owner != s.shard_index_) {
      const bool already = session->apps.count(app_id) > 0;
      const std::uint32_t me = s.shard_index_;
      DiscoverServer* grp = s.group_;
      grp->post_shard(owner, [grp, owner, me, app_id, user, session_key,
                              already, finish] {
        grp->core_at(owner).select_on_owner_async(
            app_id, user, me, already,
            [grp, owner, me, app_id, user, session_key, already,
             finish](ShardSelectGrant grant) {
          DiscoverServer& client = grp->core_at(me);
          proto::SelectAppReply out;
          ClientSession* sess = client.session_of(session_key);
          const bool granted = grant.found && !grant.admission_rejected &&
                               grant.privilege != security::Privilege::none;
          if (!grant.found || sess == nullptr) {
            if (granted && !already && sess == nullptr) {
              // The session vanished while the grant was in flight; return
              // the watcher refcount we just took on the owner.
              grp->post_shard(owner, [grp, owner, me, app_id] {
                grp->core_at(owner).release_shard_watcher(app_id, me);
              });
            }
            out.message = "application not found: " + app_id.to_string();
            ++client.stats_.selects_failed;
            finish(body_response(404, proto::encode_body(out)));
            return;
          }
          if (grant.admission_rejected) {
            out.admission = proto::AdmissionError::app_sessions;
            out.retry_after = client.config_.admission_retry_after;
            out.message = "application " + app_id.to_string() + " is full";
            ++client.stats_.admission_rejected_selects;
            ++client.stats_.selects_failed;
            finish(
                admission_response(proto::encode_body(out), out.retry_after));
            return;
          }
          if (grant.privilege == security::Privilege::none) {
            out.message = user + " has no access to " + grant.name;
            ++client.stats_.selects_failed;
            finish(body_response(403, proto::encode_body(out)));
            return;
          }
          ClientSub& sub = client.subscribe_session(*sess, app_id);
          sub.privilege = grant.privilege;
          out.ok = true;
          out.privilege = grant.privilege;
          out.interface_spec = grant.params;
          out.history_seq = grant.history_seq;
          ++client.stats_.selects_ok;
          finish(body_response(200, proto::encode_body(out)));
        });
      });
      return;
    }

    s.with_remote_app(app_id, [&s, finish, user, session_key,
                               app_id](AppEntry* entry) {
      proto::SelectAppReply out;
      ClientSession* sess = s.session_of(session_key);
      if (entry == nullptr || sess == nullptr) {
        out.message = "application not found: " + app_id.to_string();
        ++s.stats_.selects_failed;
        finish(body_response(404, proto::encode_body(out)));
        return;
      }
      // Per-app admission: refuse NEW subscribers beyond the cap (sessions
      // that already selected the app pass — their re-select is idempotent).
      if (s.config_.max_sessions_per_app != 0 &&
          sess->apps.count(app_id) == 0 &&
          s.subscriber_count(app_id) >= s.config_.max_sessions_per_app) {
        out.admission = proto::AdmissionError::app_sessions;
        out.retry_after = s.config_.admission_retry_after;
        out.message = "application " + app_id.to_string() + " is full";
        ++s.stats_.admission_rejected_selects;
        ++s.stats_.selects_failed;
        finish(admission_response(proto::encode_body(out), out.retry_after));
        return;
      }
      if (entry->local) {
        // Level-2 authentication against the application ACL (§5.2.2).
        const security::Privilege p = entry->acl.privilege_of(user);
        if (p == security::Privilege::none) {
          out.message = user + " has no access to " + entry->name;
          ++s.stats_.selects_failed;
          finish(body_response(403, proto::encode_body(out)));
          return;
        }
        ClientSub& sub = s.subscribe_session(*sess, app_id);
        sub.privilege = p;
        out.ok = true;
        out.privilege = p;
        out.interface_spec = entry->params;
        out.history_seq = entry->event_seq;
        ++s.stats_.selects_ok;
        finish(body_response(200, proto::encode_body(out)));
        return;
      }
      // Remote application: level-2 authentication at the host through its
      // CorbaProxy, then subscribe this server to its event stream.
      wire::Encoder args;
      args.str(user);
      s.invoke_peer(
          entry->corba_proxy.node, entry->corba_proxy, "get_interface",
          std::move(args),
          [&s, finish, user, session_key, app_id](
              util::Result<util::Bytes> r) {
            proto::SelectAppReply out2;
            ClientSession* sess2 = s.session_of(session_key);
            AppEntry* entry2 = s.find_app(app_id);
            if (!r.ok() || sess2 == nullptr || entry2 == nullptr) {
              out2.message = !r.ok() ? r.error().message : "session gone";
              ++s.stats_.selects_failed;
              finish(body_response(403, proto::encode_body(out2)));
              return;
            }
            wire::Decoder d(r.value());
            const auto p = static_cast<security::Privilege>(d.u8());
            const std::uint32_t n = d.u32();
            std::vector<proto::ParamSpec> params;
            params.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i) {
              params.push_back(proto::decode_param_spec(d));
            }
            const std::uint64_t history_seq = d.u64();
            // Authoritative admission re-check: concurrent selects may have
            // filled the app while our get_interface was in flight.
            if (s.config_.max_sessions_per_app != 0 &&
                sess2->apps.count(app_id) == 0 &&
                s.subscriber_count(app_id) >=
                    s.config_.max_sessions_per_app) {
              out2.admission = proto::AdmissionError::app_sessions;
              out2.retry_after = s.config_.admission_retry_after;
              out2.message = "application " + app_id.to_string() + " is full";
              ++s.stats_.admission_rejected_selects;
              ++s.stats_.selects_failed;
              finish(admission_response(proto::encode_body(out2),
                                        out2.retry_after));
              return;
            }
            entry2->params = params;
            if (!entry2->remote_subscribed && entry2->remote_known_seq == 0) {
              // First subscription: events up to the level-2 handshake are
              // history the watcher never asked for.  Anything the host
              // publishes after this point must reach us — the subscribe
              // reply backfills the gap instead of skipping over it.
              entry2->remote_known_seq = history_seq;
            }
            ClientSub& sub = s.subscribe_session(*sess2, app_id);
            sub.privilege = p;
            s.subscribe_remote(*entry2);
            out2.ok = true;
            out2.privilege = p;
            out2.interface_spec = std::move(params);
            out2.history_seq = history_seq;
            ++s.stats_.selects_ok;
            finish(body_response(200, proto::encode_body(out2)));
          },
          s.config_.orb_call_timeout);
    });
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

    // Cross-shard command (DESIGN.md §5i): the cached-privilege fast-fail
    // ran against our session sub; the owner core re-checks authoritatively
    // in admit_command, exactly like the unsharded local path.
    if (const std::uint32_t owner = s.shard_owner_of(req.app_id);
        s.sharded() && owner != s.shard_index_) {
      auto deferred = ctx.defer();
      const std::uint32_t me = s.shard_index_;
      DiscoverServer* grp = s.group_;
      const std::string user = session->user;
      const std::uint32_t origin = s.self_.value();
      const proto::CommandRequest creq = req;
      const bool collab = sub.collab_enabled;
      const std::string subgroup = sub.subgroup;
      grp->post_shard(owner, [grp, owner, me, user, origin, creq, collab,
                              subgroup, deferred] {
        DiscoverServer& host = grp->core_at(owner);
        proto::CommandAck out;
        out.request_id = creq.request_id;
        int status = 200;
        AppEntry* entry = host.find_app(creq.app_id);
        if (entry != nullptr && !entry->local) {
          // Remote app owned by this core (§5j): relay through the host's
          // CorbaProxy like the unsharded remote path, ack after the
          // host's admission verdict.
          ++host.stats_.remote_commands_out;
          wire::Encoder args;
          args.str(user);
          args.u64(creq.request_id);
          args.u8(static_cast<std::uint8_t>(creq.kind));
          args.str(creq.param);
          proto::encode(args, creq.value);
          args.boolean(collab);
          args.str(subgroup);
          const std::uint64_t rid = creq.request_id;
          host.invoke_peer(
              entry->corba_proxy.node, entry->corba_proxy, "send_command",
              std::move(args),
              [grp, me, deferred, rid](util::Result<util::Bytes> r) {
                proto::CommandAck relayed;
                relayed.request_id = rid;
                int rstatus = 200;
                if (!r.ok()) {
                  relayed.message = r.error().message;
                  rstatus = 503;
                } else {
                  wire::Decoder d(r.value());
                  relayed.accepted = d.boolean();
                  relayed.message = d.str();
                }
                grp->post_shard(me, [deferred, relayed, rstatus] {
                  deferred->complete(
                      body_response(rstatus, proto::encode_body(relayed)));
                });
              },
              host.config_.orb_call_timeout);
          return;
        }
        if (entry == nullptr) {
          out.message = "application not found";
          status = 404;
        } else {
          out = host.admit_command(*entry, user, origin, creq.request_id,
                                   creq.kind, creq.param, creq.value, collab,
                                   subgroup);
        }
        grp->post_shard(me, [deferred, out, status] {
          deferred->complete(body_response(status, proto::encode_body(out)));
        });
      });
      return;
    }

    AppEntry* entry = s.find_app(req.app_id);
    if (entry == nullptr) {
      ack.message = "application not found";
      set_body(response, proto::encode_body(ack));
      response.status = 404;
      return;
    }

    if (entry->local) {
      ack = s.admit_command(*entry, session->user, s.self_.value(),
                            req.request_id, req.kind, req.param, req.value,
                            sub.collab_enabled, sub.subgroup);
      set_body(response, proto::encode_body(ack));
      return;
    }

    // Remote application: relay through the host's CorbaProxy (§5.1.2) and
    // defer the HTTP ack until the host's admission verdict returns.
    ++s.stats_.remote_commands_out;
    auto deferred = ctx.defer();
    wire::Encoder args;
    args.str(session->user);
    args.u64(req.request_id);
    args.u8(static_cast<std::uint8_t>(req.kind));
    args.str(req.param);
    proto::encode(args, req.value);
    args.boolean(sub.collab_enabled);
    args.str(sub.subgroup);
    const std::uint64_t rid = req.request_id;
    s.invoke_peer(
        entry->corba_proxy.node, entry->corba_proxy, "send_command",
        std::move(args),
        [deferred, rid](util::Result<util::Bytes> r) {
          proto::CommandAck out;
          out.request_id = rid;
          if (!r.ok()) {
            out.message = r.error().message;
            deferred->complete(
                body_response(503, proto::encode_body(out)));
            return;
          }
          wire::Decoder d(r.value());
          out.accepted = d.boolean();
          out.message = d.str();
          deferred->complete(body_response(200, proto::encode_body(out)));
        },
        s.config_.orb_call_timeout);
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

    // Cross-shard collaboration post (DESIGN.md §5i): the event is built
    // here from our session state, but stamping/archiving/redistribution is
    // the owner core's job — same split as the unsharded host relay.
    if (const std::uint32_t owner = s.shard_owner_of(req.app_id);
        s.sharded() && owner != s.shard_index_) {
      auto deferred = ctx.defer();
      const std::uint32_t me = s.shard_index_;
      DiscoverServer* grp = s.group_;
      grp->post_shard(owner, [grp, owner, me, ev = std::move(ev),
                              app_id = req.app_id, deferred]() mutable {
        DiscoverServer& host = grp->core_at(owner);
        proto::CollabAck out;
        int status = 200;
        AppEntry* entry = host.find_app(app_id);
        if (entry == nullptr) {
          out.message = "application not found";
          status = 404;
        } else if (!entry->local) {
          // Remote app owned by this core (§5j): relay to its host server —
          // through this core's outbox when batching is on — and ack
          // optimistically like the unsharded relay does.
          host.relay_collab_to_host(*entry, ev);
          out.ok = true;
          out.message = "posted";
        } else {
          host.publish_event(*entry, std::move(ev));
          out.ok = true;
          out.message = "posted";
        }
        grp->post_shard(me, [deferred, out, status] {
          deferred->complete(body_response(status, proto::encode_body(out)));
        });
      });
      return;
    }

    AppEntry* entry = s.find_app(req.app_id);
    if (entry == nullptr) {
      ack.message = "application not found";
      set_body(response, proto::encode_body(ack));
      response.status = 404;
      return;
    }
    if (entry->local) {
      s.publish_event(*entry, std::move(ev));
    } else {
      // Relay to the host, which stamps/archives/redistributes (§5.2.3) —
      // through the host's outbox when batching is on.
      s.relay_collab_to_host(*entry, ev);
    }
    ack.ok = true;
    ack.message = "posted";
    set_body(response, proto::encode_body(ack));
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
    // Cross-shard history (DESIGN.md §5i): the application log lives on the
    // owner core's archive; fetch there and encode back here.
    if (const std::uint32_t owner = s.shard_owner_of(req.app_id);
        s.sharded() && owner != s.shard_index_) {
      auto deferred = ctx.defer();
      const std::uint32_t me = s.shard_index_;
      DiscoverServer* grp = s.group_;
      grp->post_shard(owner, [grp, owner, me, app_id = req.app_id,
                              from_seq = req.from_seq,
                              max_events = req.max_events, deferred] {
        DiscoverServer& host = grp->core_at(owner);
        proto::HistoryReply out;
        int status = 200;
        AppEntry* entry = host.find_app(app_id);
        if (entry != nullptr && !entry->local) {
          // Remote app owned by this core (§5j): the authoritative log is
          // at the host server — fetch it from there.
          wire::Encoder args;
          args.u64(from_seq);
          args.u32(max_events);
          host.invoke_peer(
              entry->corba_proxy.node, entry->corba_proxy, "poll_events",
              std::move(args),
              [grp, me, deferred](util::Result<util::Bytes> r) {
                proto::HistoryReply fetched;
                int rstatus = 200;
                if (!r.ok()) {
                  fetched.message = r.error().message;
                  rstatus = 503;
                } else {
                  wire::Decoder d(r.value());
                  const std::uint32_t n = d.u32();
                  fetched.events.reserve(n);
                  for (std::uint32_t i = 0; i < n; ++i) {
                    fetched.events.push_back(proto::decode_client_event(d));
                  }
                  fetched.ok = true;
                }
                grp->post_shard(me, [deferred, fetched = std::move(fetched),
                                     rstatus] {
                  deferred->complete(
                      body_response(rstatus, proto::encode_body(fetched)));
                });
              },
              host.config_.orb_call_timeout);
          return;
        }
        if (entry == nullptr) {
          out.message = "application not found";
          status = 404;
        } else {
          out.ok = true;
          out.events = host.archive_.app_history(app_id, from_seq, max_events);
        }
        grp->post_shard(me, [deferred, out = std::move(out), status] {
          deferred->complete(body_response(status, proto::encode_body(out)));
        });
      });
      return;
    }

    AppEntry* entry = s.find_app(req.app_id);
    if (entry == nullptr) {
      reply.message = "application not found";
      set_body(response, proto::encode_body(reply));
      response.status = 404;
      return;
    }
    if (entry->local) {
      // The application log lives here, at the host (§5.2.5).
      reply.ok = true;
      reply.events =
          s.archive_.app_history(req.app_id, req.from_seq, req.max_events);
      set_body(response, proto::encode_body(reply));
      return;
    }
    // Remote history: fetch from the host's application log.
    auto deferred = ctx.defer();
    wire::Encoder args;
    args.u64(req.from_seq);
    args.u32(req.max_events);
    s.invoke_peer(
        entry->corba_proxy.node, entry->corba_proxy, "poll_events",
        std::move(args),
        [deferred](util::Result<util::Bytes> r) {
          proto::HistoryReply out;
          if (!r.ok()) {
            out.message = r.error().message;
            deferred->complete(body_response(503, proto::encode_body(out)));
            return;
          }
          wire::Decoder d(r.value());
          const std::uint32_t n = d.u32();
          out.events.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i) {
            out.events.push_back(proto::decode_client_event(d));
          }
          out.ok = true;
          deferred->complete(body_response(200, proto::encode_body(out)));
        },
        s.config_.orb_call_timeout);
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

    // Cross-shard visualization (DESIGN.md §5i): the application log lives
    // on the owner core; the whole report renders there, off our worker.
    if (const std::uint32_t owner = s.shard_owner_of(app);
        s.sharded() && owner != s.shard_index_) {
      auto deferred = ctx.defer();
      const std::uint32_t me = s.shard_index_;
      DiscoverServer* grp = s.group_;
      const std::string metric_name = *metric;
      grp->post_shard(owner, [grp, owner, me, app, metric_name, width,
                              deferred] {
        auto resp = std::make_shared<http::HttpResponse>();
        render(grp->core_at(owner), app, metric_name, width, *resp);
        grp->post_shard(me, [deferred, resp] {
          deferred->complete(std::move(*resp));
        });
      });
      return;
    }

    render(s, app, *metric, width, response);
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

    // Sharded scrape (DESIGN.md §5i): every core keeps its own registry so
    // the hot paths never share counters; one scrape visits each core on
    // its own worker and merges the snapshots into a single exposition.
    if (server_.sharded()) {
      auto deferred = ctx.defer();
      auto snaps = std::make_shared<std::vector<util::MetricsRegistry::Snapshot>>();
      server_.gather_across_cores(
          [snaps](DiscoverServer& core) {
            snaps->push_back(core.metrics_.snapshot());
          },
          [snaps, deferred, json] {
            const auto merged = util::MetricsRegistry::merge(*snaps);
            http::HttpResponse resp;
            resp.status = 200;
            if (json) {
              resp.headers.set("Content-Type", "application/json");
              resp.body =
                  util::to_bytes(util::MetricsRegistry::render_json(merged));
            } else {
              resp.headers.set("Content-Type", "text/plain");
              resp.body = util::to_bytes(
                  util::MetricsRegistry::render_prometheus(merged));
            }
            deferred->complete(std::move(resp));
          });
      return;
    }

    if (json) {
      response.headers.set("Content-Type", "application/json");
      response.body = util::to_bytes(server_.metrics_.json());
    } else {
      response.headers.set("Content-Type", "text/plain");
      response.body = util::to_bytes(server_.metrics_.prometheus_text());
    }
    response.status = 200;
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

    // Sharded scrape: each core keeps its own span ring; dump them in shard
    // order.  Trace ids carry the shard index (util::Tracer shard minting),
    // so the concatenation stays unambiguous.
    if (server_.sharded()) {
      auto deferred = ctx.defer();
      auto parts = std::make_shared<std::vector<std::string>>();
      server_.gather_across_cores(
          [parts, json](DiscoverServer& core) {
            parts->push_back(json ? core.tracer_.dump_json()
                                  : core.tracer_.dump_text());
          },
          [parts, deferred, json] {
            http::HttpResponse resp;
            resp.status = 200;
            std::string body;
            if (json) {
              body = "{\"shards\":[";
              for (std::size_t i = 0; i < parts->size(); ++i) {
                if (i != 0) body += ',';
                body += (*parts)[i];
              }
              body += "]}";
              resp.headers.set("Content-Type", "application/json");
            } else {
              for (const auto& part : *parts) body += part;
              resp.headers.set("Content-Type", "text/plain");
            }
            resp.body = util::to_bytes(body);
            deferred->complete(std::move(resp));
          });
      return;
    }

    if (json) {
      response.headers.set("Content-Type", "application/json");
      response.body = util::to_bytes(server_.tracer_.dump_json());
    } else {
      response.headers.set("Content-Type", "text/plain");
      response.body = util::to_bytes(server_.tracer_.dump_text());
    }
    response.status = 200;
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
