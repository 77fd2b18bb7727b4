// The DISCOVER interaction and collaboration server (paper §4.1, §5).
//
// One DiscoverServer is one middle-tier node: a servlet-extended web server
// facing thin HTTP clients, a daemon endpoint facing applications over the
// Main/Command/Response channels, and an ORB endpoint facing peer servers
// (DiscoverCorbaServer level-1 interface + one CorbaProxy level-2 interface
// per local application), discovered through the trader service.
//
// Core service handlers (paper §4.1) and where they live here:
//  * Master handler        -> MasterServlet   (login/select/logout, sessions)
//  * Command handler       -> CommandServlet  (steering requests -> proxy)
//  * Collaboration handler -> CollabServlet   (poll, chat/whiteboard, groups)
//  * Security handler      -> Authenticator logic inside the server (2-level
//                             auth, ACLs from app registration, tokens)
//  * Daemon servlet        -> the Main/Command/Response channel demux
//                             (application registration, buffering)
//  * Session archival      -> ArchiveServlet + SessionArchive
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/lock_manager.h"
#include "core/peer_link.h"
#include "core/server_stats.h"
#include "core/session_archive.h"
#include "core/session_table.h"
#include "db/record_store.h"
#include "http/http_client.h"
#include "http/servlet_container.h"
#include "net/executor.h"
#include "net/network.h"
#include "net/retry.h"
#include "orb/naming.h"
#include "orb/orb.h"
#include "orb/trader.h"
#include "proto/messages.h"
#include "security/rate_limit.h"
#include "security/token.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace discover::core {

// Servlet mount points (the portal URL namespace).
inline constexpr const char* kPathLogin = "/discover/master/login";
inline constexpr const char* kPathSelect = "/discover/master/select";
inline constexpr const char* kPathLogout = "/discover/master/logout";
inline constexpr const char* kPathCommand = "/discover/command";
inline constexpr const char* kPathPoll = "/discover/collab/poll";
inline constexpr const char* kPathCollabPost = "/discover/collab/post";
inline constexpr const char* kPathGroup = "/discover/collab/group";
inline constexpr const char* kPathArchive = "/discover/archive";
inline constexpr const char* kPathRedirect = "/discover/redirect";
inline constexpr const char* kPathViz = "/discover/viz";
inline constexpr const char* kPathMetrics = "/discover/metrics";
inline constexpr const char* kPathTrace = "/discover/trace";
/// Response header carrying the application's host-server node id on
/// /discover/redirect replies (the "request redirection" auxiliary
/// service of paper §4.1).
inline constexpr const char* kHostHeader = "X-Discover-Host";

/// How a server that is NOT an application's host learns about new events:
/// push (host forwards each event to subscribed servers — one message per
/// remote server, §5.2.3) or poll (the subscriber's CorbaProxy-side polls
/// periodically, as the prototype did).
enum class RemoteUpdateMode { push, poll };

struct ServerConfig {
  std::string name = "discover";
  /// Application authentication (paper §4.1: "pre-assigned unique
  /// identifier").  When accept_any_app is false, only keys in
  /// accepted_app_keys may register.
  bool accept_any_app = true;
  std::set<std::uint64_t> accepted_app_keys;

  std::uint64_t token_secret = 0x5eed;
  util::Duration token_ttl = util::seconds(3600);

  /// Per-client per-app FIFO buffer capacity ("FIFO buffers at the server
  /// for each client to support slow clients", §6.2).  0 = unbounded.
  std::size_t client_fifo_cap = 256;
  /// Byte bound on the same FIFO (approx_footprint sum); 0 = entries-only.
  /// Whichever bound trips first triggers `fifo_overflow`.
  std::size_t client_fifo_max_bytes = 0;
  /// Policy applied when a FIFO exceeds either bound.
  FifoOverflowPolicy fifo_overflow = FifoOverflowPolicy::shed_oldest;

  /// Login admission control: refuse new sessions beyond this many
  /// (existing sessions may always re-login).  0 = unlimited.
  std::size_t max_sessions = 0;
  /// Per-application subscriber cap enforced at select time.  0 = unlimited.
  std::size_t max_sessions_per_app = 0;
  /// Suggested client back-off carried in admission rejections (also sent
  /// as an HTTP Retry-After header, rounded up to whole seconds).
  util::Duration admission_retry_after = util::seconds(2);

  util::Duration peer_refresh_period = util::seconds(2);
  util::Duration orb_call_timeout = util::seconds(10);
  /// Login aggregation waits at most this long for slow peers.
  util::Duration login_fanout_timeout = util::seconds(3);

  /// Peer health: after this many consecutive ORB timeouts a peer is marked
  /// suspect — its remote apps are withdrawn from the directory and no more
  /// calls are routed to it until a re-probe (sent each peer_refresh_period)
  /// succeeds.  0 disables suspicion.
  std::uint32_t peer_suspect_threshold = 3;
  /// Retry policy for ORB calls to peers (disabled by default: legacy
  /// single-shot semantics).
  net::RetryPolicy orb_retry{};

  RemoteUpdateMode remote_update_mode = RemoteUpdateMode::push;
  util::Duration remote_poll_period = util::milliseconds(100);

  /// Peer outbox (DESIGN.md §5e): pushes and relayed collab posts for a
  /// peer leave as one forward_events batch at PeerLink's count or byte
  /// trigger, or this long after the first queued event (Nagle).  Zero
  /// disables the outbox: one ORB call per event, the legacy wire
  /// behaviour kept as the per-event baseline of experiment A4.
  util::Duration peer_flush_delay = util::milliseconds(5);

  /// Mirror archived events into the record store (exercises §6.3
  /// ownership); costs memory in long benches, so optional.
  bool mirror_archive_to_db = false;

  /// Resource-usage policy applied to each peer server (§6.3); zero limits
  /// disable enforcement.
  security::AccessPolicy peer_policy{};

  /// Application liveness: a local application is force-deregistered when
  /// no Main/Response-channel traffic arrives for `app_liveness_factor`
  /// times its advertised update period.  Paused applications stay alive
  /// by sending keep-alive phase notices.  Factor 0 disables the check;
  /// applications that advertise no period are exempt.
  std::uint32_t app_liveness_factor = 8;
  util::Duration app_liveness_sweep = util::seconds(1);

  /// Steering-lock lease: the host force-releases a lock held longer than
  /// this, un-wedging the group when a driver walks away (0 = no lease —
  /// the paper's behaviour).
  util::Duration lock_lease = 0;

  /// Queued lock requesters wait at most this long for a grant; on expiry
  /// the waiter is removed and receives a `denied` lock notice instead of
  /// starving forever (0 = wait forever — the paper's behaviour).
  util::Duration lock_wait_deadline = 0;

  /// Retry schedule for the forget_locks relay sent to a remote host when
  /// a local session drops.  These are whole-call resends on top of the
  /// ORB-level retransmits of `orb_retry`; the relay is idempotent at the
  /// host, so duplicates are harmless.  Lease expiry (or reaping) is the
  /// backstop when every attempt fails.
  std::uint32_t forget_locks_attempts = 4;
  util::Duration forget_locks_backoff = util::milliseconds(250);

  /// Client sessions idle at the HTTP layer longer than this are dropped
  /// (their lock interest is released, remote subscriptions ref-counted
  /// down).
  util::Duration session_max_idle = util::seconds(600);

  /// Report server statistics to a MONITORING service from the pool of
  /// services (§3), discovered at runtime via the trader.  Off by default.
  bool report_to_monitoring = false;
  util::Duration monitoring_period = util::seconds(1);

  /// Observability (DESIGN.md §5h).  Request tracing: sampled ingress
  /// requests mint a trace context that rides the X-Trace-Context HTTP
  /// header and ORB request-frame metadata across servers; every hop
  /// records spans into a bounded per-server ring served by /discover/trace.
  /// 0 disables tracing, 1 traces every root, N traces the first root of
  /// each stride of N.  Ids are counter-based, so Sim runs stay
  /// byte-identical per seed.
  std::uint64_t trace_sample_every = 16;
  /// Per-stage latency histograms (login, select, poll, deliver_local,
  /// outbox flush RTT, lock acquire->grant), exported via /discover/metrics.
  /// Same stride semantics as trace_sample_every; 0 disables the
  /// timestamping entirely.
  std::uint32_t stage_sample_every = 1;

  /// CALIBRATION (ThreadNetwork experiments only): CPU burned per HTTP
  /// request before servicing it, emulating the cost of the original Java
  /// servlet stack on 2001 hardware.  The paper's ~20-client knee (§6.1)
  /// exists because each servlet request was expensive; a 2026 core makes
  /// the same request sub-microsecond, which would shift the knee far
  /// right.  The burn busy-spins, pinning a hardware thread.  Zero disables
  /// it (default).  Has no effect on virtual time under SimNetwork.
  util::Duration servlet_cpu_cost = 0;

  /// Worker shards per server node (DESIGN.md §5i).  With shard_count > 1
  /// the node splits into N independent cores: a dispatcher on the node's
  /// network worker hashes each message's source node to its owning core
  /// and every core runs its own event loop over its own queue, so the hot
  /// paths (deliver_local, FIFO drains, lock operations) execute with no
  /// shared locks; cross-core interactions are explicit queue hops.  Only
  /// honoured on backends whose supports_sharding() is true (ThreadNetwork)
  /// — the Sim backend clamps to 1 so deterministic suites are unaffected.
  /// An unsharded server is a group of one core running the same code,
  /// where every hop to the owning core is a direct call.  Federation
  /// composes with sharding (DESIGN.md §5j): every core runs its own ORB
  /// with shard-tagged servant keys / request ids and its own per-peer
  /// outboxes, the dispatcher routes inbound GIOP frames to the owning
  /// core from the header alone, and registry discovery / peer health /
  /// the versioned directory are centralised on core 0.
  std::uint32_t shard_count = 1;

  /// CALIBRATION (ThreadNetwork experiments only): CPU burned per
  /// main-channel application update and per ingested peer event before
  /// processing it, emulating the 2001-era per-event server cost (decode +
  /// archive + fan-out on period hardware).  The burn runs on the owning
  /// shard core, so the federation bench measures how event processing
  /// parallelises across shards.  Spins like servlet_cpu_cost.  Zero
  /// (default) disables it.
  util::Duration app_event_cpu_cost = 0;
};

class DiscoverServer final : public net::MessageHandler {
 public:
  DiscoverServer(net::Network& network, ServerConfig config);
  ~DiscoverServer() override;

  DiscoverServer(const DiscoverServer&) = delete;
  DiscoverServer& operator=(const DiscoverServer&) = delete;

  /// Must be called with the NodeId returned by Network::add_node(this).
  void attach(net::NodeId self);
  /// Initial references to the shared naming/trader services (the CORBA
  /// "resolve_initial_references" analogue).  Optional: a server without a
  /// registry runs standalone.  On a sharded server (call after attach())
  /// every core gets the naming service — each resolves remote apps through
  /// its own ORB — while trader discovery, export and peer health stay on
  /// core 0.
  void set_registry(orb::ObjectRef naming, orb::ObjectRef trader);
  /// Optional global identity directory (a GIS-style servant answering
  /// "list_identities"); §6.3: lets users log in at servers where no local
  /// application lists them, using globally consistent user-IDs.
  void set_identity_directory(orb::ObjectRef directory);
  /// Exports the DISCOVER trader offer and starts the peer-refresh loop.
  void start();
  /// Broadcasts server_down to peers and stops refreshing.
  void shutdown();

  void on_message(const net::Message& msg) override;

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] net::NodeId node() const { return self_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }
  /// Snapshot of internal counters.  Only safe once the server's execution
  /// context is quiescent (SimNetwork, or after ThreadNetwork::stop()).
  /// On a sharded server this is core 0's share only; use stats_sum().
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  /// Field-wise sum of every shard core's stats (== stats() when
  /// unsharded).  Same quiescence requirement as stats().
  [[nodiscard]] ServerStats stats_sum() const;
  /// Live counters safe to poll from other threads while the server runs.
  /// Summed across shard cores.
  [[nodiscard]] std::uint64_t live_updates_processed() const {
    return live_sum(&DiscoverServer::live_updates_);
  }
  [[nodiscard]] std::uint64_t live_requests_served() const {
    return live_sum(&DiscoverServer::live_requests_);
  }
  [[nodiscard]] std::uint64_t live_apps_registered() const {
    return live_sum(&DiscoverServer::live_registrations_);
  }
  /// Events ingested from peer servers (push batches, polls, backfills),
  /// summed across shard cores; safe to poll while running.
  [[nodiscard]] std::uint64_t live_peer_events_in() const {
    return live_sum(&DiscoverServer::live_peer_events_);
  }
  // -- sharding (DESIGN.md §5i) ----------------------------------------------
  /// Effective shard count (1 when the config asked for more but the
  /// network cannot shard).  Meaningful after attach().
  [[nodiscard]] std::uint32_t shard_count() const { return group_shards_; }
  [[nodiscard]] std::uint32_t shard_index() const { return shard_index_; }
  [[nodiscard]] bool sharded() const { return group_shards_ > 1; }
  /// Shard core `idx` (0 = this instance).  Only safe to introspect once
  /// quiescent, like stats().
  [[nodiscard]] const DiscoverServer& shard_core(std::uint32_t idx) const {
    return idx == 0 ? *this : *cores_[idx - 1];
  }
  /// Affinity hash: the shard owning a session-less request from `node`
  /// (clients and applications alike).  Pure; pinned by the routing
  /// property test.
  [[nodiscard]] static std::uint32_t shard_of_node(std::uint32_t node,
                                                   std::uint32_t shards) {
    return shards <= 1 ? 0
                       : static_cast<std::uint32_t>(
                             (node * 2654435761ULL) % shards);
  }
  /// The shard encoded in a minted app id's low `bits` (app ids are minted
  /// on the core that owns the app's node, so both hashes agree).
  [[nodiscard]] static std::uint32_t shard_of_app(const proto::AppId& id,
                                                  std::uint32_t bits,
                                                  std::uint32_t shards) {
    return bits == 0 ? 0
                     : static_cast<std::uint32_t>(id.local &
                                                  ((1u << bits) - 1u)) %
                           (shards == 0 ? 1 : shards);
  }
  /// Blocks until every shard queue drained, then joins the shard workers.
  /// Call after the network stopped and before reading stats_sum().
  void drain_shards();
  [[nodiscard]] const SessionArchive& archive() const { return archive_; }
  [[nodiscard]] const LockManager& locks() const { return locks_; }
  [[nodiscard]] const orb::Orb& orb() const { return *orb_; }
  [[nodiscard]] const http::ServletContainer& container() const {
    return *container_;
  }
  /// Metric catalogue behind /discover/metrics (counters reference the
  /// ServerStats fields; stage histograms are registry-owned).
  [[nodiscard]] const util::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] util::MetricsRegistry& metrics() { return metrics_; }
  /// Span ring behind /discover/trace.
  [[nodiscard]] const util::Tracer& tracer() const { return tracer_; }
  [[nodiscard]] util::Tracer& tracer() { return tracer_; }
  [[nodiscard]] db::RecordStore& record_store() { return db_; }
  [[nodiscard]] std::size_t peer_count() const {
    return peer_count_cache_.load(std::memory_order_relaxed);
  }
  /// True while `node` is a known peer currently marked suspect.
  [[nodiscard]] bool peer_suspect(net::NodeId node) const;
  [[nodiscard]] std::size_t local_app_count() const { return hosted_.size(); }
  [[nodiscard]] std::size_t session_count() const {
    return sessions_.all().size();
  }
  /// Applications (local only) visible to `user` per the ACLs.
  [[nodiscard]] std::vector<proto::AppInfo> visible_apps(
      const std::string& user) const;
  [[nodiscard]] std::optional<LockIdentity> lock_holder(
      const proto::AppId& app) const {
    return locks_.holder(app);
  }
  [[nodiscard]] std::size_t lock_queue_length(const proto::AppId& app) const {
    return locks_.queue_length(app);
  }
  /// Total backlog across all client FIFOs (server memory pressure, A2).
  /// Brute-force entry scan — the oracle the running counters are checked
  /// against in tests.
  [[nodiscard]] std::size_t total_fifo_backlog() const {
    return sessions_.scan_backlog().first;
  }
  /// Same, in approximate bytes (sum of ClientSub::fifo_bytes).
  [[nodiscard]] std::size_t total_fifo_backlog_bytes() const {
    return sessions_.scan_backlog().second;
  }
  /// Subscribers of `app` per the fan-out index (sessions that selected it).
  [[nodiscard]] std::size_t subscriber_count(const proto::AppId& app) const {
    return sessions_.subscriber_count(app);
  }
  /// True iff the subscriber index exactly mirrors a brute-force scan of
  /// every session's selected apps — the oracle of the index property test.
  [[nodiscard]] bool subscriber_index_consistent() const {
    return sessions_.index_consistent();
  }
  /// True while this (non-host) server holds a live event subscription at
  /// the app's host.  False for local/unknown apps.
  [[nodiscard]] bool app_remote_subscribed(const proto::AppId& app) const;
  /// Events currently queued in `node`'s outbox (0 when none exists).
  [[nodiscard]] std::size_t outbox_depth(std::uint32_t node) const;
  /// Cached directory of `node`'s local applications (versioned-directory
  /// refresh); empty until the first list_apps_since reply.
  [[nodiscard]] std::vector<proto::AppInfo> peer_directory(
      std::uint32_t node) const;
  /// Invalidates every peer's cached directory view of this server: the
  /// next list_apps_since from any peer gets a full snapshot.  An operator
  /// escape hatch (and the epoch-mismatch test hook).
  void bump_directory_epoch();

 private:
  // -- internal data ---------------------------------------------------------
  /// ApplicationProxy (paper §4.1/§5.1.2): one application this server
  /// hosts.  Its CorbaProxy servant is what other servers relay through.
  struct ApplicationProxy {
    proto::AppId id;
    std::string name;
    std::string description;
    std::string owner;  // highest-privilege ACL user (record ownership §6.3)
    net::NodeId app_node{0};
    orb::ObjectRef corba_proxy;  // our CorbaProxy servant
    std::uint64_t servant_key = 0;
    security::AccessControlList acl;
    std::vector<proto::ParamSpec> params;
    proto::AppPhase phase = proto::AppPhase::computing;
    std::uint64_t event_seq = 0;  // host-side event numbering
    std::deque<proto::AppCommand> buffered;  // while the app computes
    util::TimePoint last_seen = 0;           // liveness tracking
    util::Duration advertised_period = 0;    // from AppRegister
    /// Subscribed peer servers -> their DiscoverCorbaServer ref.
    std::map<std::uint32_t, orb::ObjectRef> subscribers;
  };

  /// An application hosted by a peer, which this server relays to through
  /// the host's CorbaProxy and subscribes to for events.
  struct RemoteApp {
    proto::AppId id;
    orb::ObjectRef corba_proxy;  // resolved through the naming service
    /// Last event seq received from the host.
    std::uint64_t remote_known_seq = 0;
    net::TimerId poll_timer{0};  // poll mode
    bool subscribed = false;
    /// Push mode: nonzero while a subscribe-gap fetch is in flight (events
    /// the host published before our subscribe landed).  Pushes that
    /// arrive meanwhile wait in the buffer so the gap events still come
    /// out in per-app order.
    std::uint64_t backfill_upto = 0;
    std::vector<proto::ClientEvent> backfill_buffer;
  };

  struct PendingCmd {
    std::string user;
    std::uint64_t client_rid = 0;
    bool shared = true;
    std::string subgroup;
  };

  class MasterServlet;
  class CommandServlet;
  class CollabServlet;
  class ArchiveServlet;
  class RedirectServlet;
  class VisualizationServlet;
  class MetricsServlet;
  class TraceServlet;
  class DiscoverCorbaServerServant;
  class CorbaProxyServant;

  // -- sharding (DESIGN.md §5i) ----------------------------------------------
  /// Marks this instance as inner shard core `index` of `group` (the
  /// user-facing server, which is core 0).  Must precede attach().
  void configure_shard(std::uint32_t index, std::uint32_t bits,
                       DiscoverServer* group);
  /// Sharded dispatcher: runs on the node's network worker and only
  /// routes — client/app channels to hash(src)'s core; GIOP frames to the
  /// core whose ORB owns them (requests by servant key, replies by request
  /// id — both carry the minting core in their low shard bits); control
  /// framing and unparseable GIOP to core 0.  The message lands in the
  /// owning core's executor queue and reaches that core's on_message.
  void route_message(const net::Message& msg);
  /// The per-core on_message body; on a sharded server it runs on the
  /// owning core's shard worker.
  void dispatch_message(const net::Message& msg);
  /// The calibration burn behind servlet_cpu_cost / app_event_cpu_cost:
  /// busy-spins for `cost` on the calling worker.
  static void spin_for(util::Duration cost);

  // The hops between cores (server_shard.cpp).  Each one is a direct call
  // when the target is the calling core — always, on a group of one — and
  // a queue hop onto the target core's worker otherwise.
  /// Runs `fn` in core `idx`'s execution context.
  void post_shard(std::uint32_t idx, std::function<void()> fn);
  /// Runs `fn` on every core, each on its own worker.
  void for_each_core(const std::function<void(DiscoverServer&)>& fn);
  [[nodiscard]] DiscoverServer& core_at(std::uint32_t idx) {
    return idx == 0 ? *this : *cores_[idx - 1];
  }
  /// The core owning app `id`: the one that minted it for a local app, the
  /// one its id hashes to for a remote app.
  [[nodiscard]] std::uint32_t shard_owner_of(const proto::AppId& id) const {
    return shard_of_app(id, shard_bits_, group_shards_);
  }
  /// The one owner hop behind every app-scoped request: runs `work` on the
  /// core owning `app`, lets it answer once — possibly after a peer round
  /// trip — and runs `then` with the answer back on the calling core.
  template <typename T>
  void ask_owner(
      const proto::AppId& app,
      std::function<void(DiscoverServer&, std::function<void(T)>)> work,
      std::function<void(T)> then) {
    DiscoverServer* group = group_;
    const std::uint32_t owner = shard_owner_of(app);
    const std::uint32_t me = shard_index_;
    post_shard(owner, [group, owner, me, work = std::move(work),
                       then = std::move(then)] {
      work(group->core_at(owner), [group, me, then](T answer) {
        group->post_shard(me, [then, answer = std::move(answer)] {
          then(answer);
        });
      });
    });
  }
  /// Serves an app-scoped HTTP request through ask_owner: `work` builds
  /// the reply on the owning core, and this core sends it — inline when it
  /// is ready before service() returns.
  void reply_from_owner(
      const proto::AppId& app, http::HttpResponse& response,
      http::ServletContext& ctx,
      std::function<void(DiscoverServer&,
                         std::function<void(http::HttpResponse)>)>
          work);
  /// network_.schedule(self_, ...) whose callback runs on this core's
  /// worker.  Every timer touching core state must go through this.
  net::TimerId schedule_self(util::Duration delay, std::function<void()> fn);
  /// Visits every core on its own worker in index order, then runs `done`
  /// back on the calling core (login, the directory servants, the
  /// metrics/trace scrapes and the monitoring push).
  struct GatherJob {
    std::function<void(DiscoverServer&)> visit;
    std::function<void()> done;
    std::uint32_t origin = 0;
  };
  void gather_across_cores(std::function<void(DiscoverServer&)> visit,
                           std::function<void()> done);
  void gather_step(const std::shared_ptr<GatherJob>& job, std::uint32_t idx);
  /// What the owner core tells the client core about a select.
  struct SelectGrant {
    bool found = false;
    bool admission_rejected = false;
    security::Privilege privilege = security::Privilege::none;
    std::vector<proto::ParamSpec> params;
    std::uint64_t history_seq = 0;
    /// Why the level-2 check refused the user.
    std::string error;
  };
  /// Owner-core half of a select (§5.2.2): resolves the entry (a remote
  /// one through the naming service), admits and authenticates the user —
  /// at the host through its CorbaProxy for a remote app, which this core
  /// then subscribes to — and counts the client core's new watcher.
  void select_on_owner(const proto::AppId& app, const std::string& user,
                       std::uint32_t client_shard, bool already_selected,
                       std::function<void(SelectGrant)> done);
  /// Per-app admission (§6.2 flash crowds): false when `app` is full and
  /// the session is a new subscriber.
  [[nodiscard]] bool admits(const proto::AppId& app,
                            bool already_selected) const;
  /// Owner-core half of drop_session: forgets `user`'s lock interest
  /// (locally, or at the remote host) and releases the client core's
  /// watcher.
  void release_watcher(const proto::AppId& app, const std::string& user,
                       std::uint32_t client_shard);
  /// Drops one watcher of `client_shard` (other cores only; this core's
  /// sessions are counted by the subscriber index).  A remote entry nobody
  /// on any core watches any more unsubscribes from its host.
  void release_shard_watcher(const proto::AppId& app,
                             std::uint32_t client_shard);
  /// Posts a published event to every shard core with watchers.
  void fan_out_to_watcher_shards(const proto::AppId& app,
                                 const proto::ClientEvent& ev);

  // -- daemon-servlet side (application channels) ----------------------------
  void handle_app_channel(const net::Message& msg);
  void handle_app_register(net::NodeId src, const proto::AppRegister& reg);
  void handle_app_update(const proto::AppUpdate& update);
  void handle_app_phase(const proto::AppPhaseNotice& notice);
  void handle_app_deregister(const proto::AppDeregister& msg);
  void handle_app_response(const proto::AppResponse& resp);
  void handle_app_error(const proto::AppError& err);
  void flush_buffered_commands(ApplicationProxy& entry);

  // -- event distribution ------------------------------------------------------
  /// Host side: stamps seq + time, archives, delivers locally, pushes to
  /// subscribers (push mode).
  void publish_event(ApplicationProxy& entry, proto::ClientEvent event);
  /// Delivers one event to local client FIFOs per the collaboration rules.
  /// Wraps deliver_local_impl with the stage histogram and a trace span.
  void deliver_local(const proto::AppId& app, const proto::ClientEvent& ev);
  void deliver_local_impl(const proto::AppId& app,
                          const proto::ClientEvent& ev);
  void push_to_subscribers(ApplicationProxy& entry,
                           const proto::ClientEvent& ev);
  /// Remote-side ingestion of host-published events (push or poll).
  void ingest_remote_events(RemoteApp& entry,
                            const std::vector<proto::ClientEvent>& events);
  /// Delivers one remote-app event locally and fans it out to every other
  /// shard core with watchers (the remote-entry analogue of the
  /// publish_event fan-out).
  void deliver_remote(RemoteApp& entry, const proto::ClientEvent& ev);

  // -- peer outbox I/O (the policy is PeerLink's) -----------------------------
  /// Queues `item` on `link` for `ref`; acts on the trigger it reports.
  void queue_for_peer(PeerLink& link, const orb::ObjectRef& ref,
                      OutboxItem item);
  /// Sends the batch the link yields as one forward_events call; a failed
  /// batch is requeued and retried after peer_flush_delay.
  void flush_outbox(PeerLink& link, FlushTrigger trigger);
  /// Flushes `link` with `trigger` after peer_flush_delay (Nagle, retry).
  void schedule_flush(PeerLink& link, FlushTrigger trigger);
  /// Relays a local client's collab post toward the app's host: through
  /// the outbox when batching is on and the host's level-1 ref is known,
  /// else a direct forward_collab (the legacy wire behaviour).
  void relay_collab_to_host(RemoteApp& entry, const proto::ClientEvent& ev);
  /// forward_events servant body: scatters the frames to their owning
  /// cores by shard_of_app (a peer batch mixes apps owned by different
  /// cores); each core then applies its own frames.
  void ingest_event_frames(std::vector<proto::EventFrame> frames);
  /// Applies push frames to remote entries and publishes collab_relay
  /// frames for local apps — every frame must be owned by this core.
  void apply_event_frames(const std::vector<proto::EventFrame>& frames);

  // -- versioned directory -----------------------------------------------------
  /// Records one hosted app's membership or phase change in the change
  /// log on core 0, which keeps the single node-wide (epoch, version)
  /// sequence.
  void bump_directory(const proto::AppId& app);
  /// Core 0: the list_apps_since reply for a caller at (epoch, since) — a
  /// delta, or a full snapshot when the cursor is out of range.  The
  /// version and the delta's app set are taken first; each app's info is
  /// then read live from its owning core, and `done` runs back on core 0.
  void directory_update_since(
      std::uint64_t epoch, std::uint64_t since,
      std::function<void(proto::DirectoryUpdate)> done);
  [[nodiscard]] proto::AppInfo app_info_of(
      const ApplicationProxy& entry) const;
  /// Visits every core for the AppInfo of its hosted apps and runs `done`
  /// with them in app-id order.
  void gather_app_info(
      std::function<void(std::map<proto::AppId, proto::AppInfo>&)> done);
  /// Fetches `peer`'s directory this round: a delta against the cached
  /// (epoch, version), or the full snapshot the host sends when the cursor
  /// is out of range.
  void refresh_peer_directory(PeerLink& link);

  // -- command path -----------------------------------------------------------
  /// Host-side command admission: privilege, locks, buffering.  Returns the
  /// ack (accepted/rejected) to give the requester.
  proto::CommandAck admit_command(ApplicationProxy& entry,
                                  const std::string& user,
                                  std::uint32_t origin_server,
                                  std::uint64_t client_rid,
                                  proto::CommandKind kind,
                                  const std::string& param,
                                  const proto::ParamValue& value, bool shared,
                                  const std::string& subgroup);
  void forward_to_app(ApplicationProxy& entry, const proto::AppCommand& cmd);
  void handle_lock_command(const ApplicationProxy& entry,
                           const std::string& user,
                           std::uint32_t origin_server,
                           std::uint64_t client_rid, bool acquire);
  void publish_lock_notice(const proto::AppId& app, const std::string& user,
                           std::uint64_t client_rid, const std::string& what);
  /// Evicts lock holders/waiters whose origin server `node` was declared
  /// dead; publishes notices for evicted holders (waiter/promotion notices
  /// ride the grant callbacks).
  void reap_server_locks(std::uint32_t node, const std::string& why);
  /// Relays forget_locks to a remote app's host with bounded exponential
  /// backoff (attempt is 1-based); gives up when the remote entry is gone
  /// or `forget_locks_attempts` is exhausted — the host's lease/reaping
  /// then reclaims the lock.
  void send_forget_locks(const proto::AppId& app, const std::string& user,
                         std::uint32_t attempt);

  // -- security ---------------------------------------------------------------
  /// Level-1: is `user` on any local application's ACL (with password)?
  [[nodiscard]] bool authenticate_local(const std::string& user,
                                        std::uint64_t password_digest) const;
  /// What the node knows of `user` at login (§5.2.2), gathered from every
  /// core: whether a hosted app's ACL admits the password, the apps the
  /// user may see (in app-id order) and the node's session count.
  struct UserView {
    bool known = false;
    std::vector<proto::AppInfo> apps;
    std::size_t sessions = 0;
  };
  void gather_user(const std::string& user, std::uint64_t password_digest,
                   std::function<void(UserView&)> done);

  // -- peers / discovery --------------------------------------------------------
  /// One refresh round (core 0): advertises this server until the trader
  /// confirms its offer, lists new peers, probes suspect ones and fetches
  /// the others' directories.
  void refresh_peers();
  void schedule_refresh();
  void handle_control_channel(const net::Message& msg);
  void broadcast_system_event(proto::SystemEventKind kind,
                              const proto::AppId& app,
                              const std::string& text);
  [[nodiscard]] PeerLink* find_link(std::uint32_t node);
  /// Applies the per-peer resource policy (§6.3); true = admitted.
  bool admit_peer(std::uint32_t node, std::size_t bytes);
  /// ORB call to a peer with health accounting: hands the outcome to core
  /// 0's judge_peer_call() before running `cb`.
  void invoke_peer(std::uint32_t node, const orb::ObjectRef& ref,
                   const std::string& method, wire::Encoder args,
                   orb::Orb::ResultCallback cb, util::Duration timeout);
  /// Core 0 judges a listed peer's health from one call outcome: timeouts
  /// accumulate toward suspicion, then every core withdraws its share of
  /// the peer's apps and routing stops; any response (even an error)
  /// proves liveness, and a suspect peer heals — `how` says how in the log.
  void judge_peer_call(std::uint32_t node, bool timed_out, const char* how);
  // Sharded federation (DESIGN.md §5j): discovery and health are decided
  // on core 0; every core holds its own link to each peer, so it reaches
  // every peer through its own ORB.
  /// One core's half of a discovery: lists the peer on this core's link —
  /// a new one, or one a subscribe created, keeping its outbox.
  void add_peer(std::uint32_t node, const std::string& name,
                const orb::ObjectRef& ref);
  void probe_suspect_peer(PeerLink& link);
  /// One core's half of a suspect transition: flags the peer, withdraws
  /// the remote apps this core owns, reaps their lock interest.  The core
  /// that `announce`s also tells the other servers, once for the node.
  void apply_peer_suspect(std::uint32_t node, bool announce);
  /// One core's half of a heal: clears the flag, drains the outbox.
  void apply_peer_heal(std::uint32_t node);
  /// One core's half of a server_down notice: erases the peer's link (and
  /// outbox) and its subscriptions here; withdraws its apps this core owns.
  void handle_peer_down(std::uint32_t origin);
  /// Encodes and pushes one MONITORING report (the merge of every core's
  /// metrics snapshot), then reschedules.
  void send_monitoring_report(std::map<std::string, std::int64_t> metrics,
                              std::function<void()> reschedule);
  /// Ensures a RemoteApp exists with a resolved CorbaProxy ref; then runs
  /// `ready` (with nullptr on failure).
  void with_remote_app(const proto::AppId& app,
                       std::function<void(RemoteApp*)> ready);
  void subscribe_remote(RemoteApp& entry);
  void backfill_remote_gap(RemoteApp& entry, std::uint64_t upto);
  void unsubscribe_remote(RemoteApp& entry);
  void start_remote_poll(RemoteApp& entry);
  void remove_remote_app(const proto::AppId& app, const std::string& reason);

  // -- housekeeping -----------------------------------------------------------
  /// Per-core halves of start()/shutdown(), run on each core's own worker.
  /// Only the core that says `farewell` announces server_down, once for
  /// the node.
  void start_core();
  void shutdown_core(bool farewell);
  void sweep_app_liveness();
  void sweep_idle_sessions();
  void arm_lock_lease(const proto::AppId& app, const LockIdentity& who);
  /// Pool-of-services integration (§3): find a MONITORING service through
  /// the trader and push a statistics report; re-discovers on failure.
  void report_monitoring();

  // -- observability ----------------------------------------------------------
  /// One-time catalogue setup (attach): every ServerStats field by
  /// reference, gauges for live state, and the registry-owned per-stage
  /// histograms cached in the stage_* pointers below.
  void register_metrics();
  /// Stride sampler for the stage histograms: true on the first of every
  /// `stage_sample_every` calls (always false when 0).  Decide at stage
  /// entry and carry the verdict into deferred completions.
  [[nodiscard]] bool stage_sample() {
    if (config_.stage_sample_every == 0) return false;
    return (stage_seq_++ % config_.stage_sample_every) == 0;
  }
  /// Pulls the global identity directory into the local cache (§6.3).
  void refresh_identities();

  /// Ends a client session: its FIFOs go, and each selected app's owner
  /// core releases the session's lock interest and watcher.
  void drop_session(std::uint64_t key);

  void mount_servlets();
  void activate_servants();
  /// Exports the level-2 CorbaProxy servant for a newly registered local
  /// application; returns its reference.
  orb::ObjectRef activate_corba_proxy(ApplicationProxy& entry);

  /// The entry for `id` in the map its host picks: hosted_ when this
  /// server hosts it, remote_ otherwise.
  [[nodiscard]] ApplicationProxy* find_hosted(const proto::AppId& id);
  [[nodiscard]] RemoteApp* find_remote(const proto::AppId& id);
  [[nodiscard]] std::string describe() const;

  net::Network& network_;
  ServerConfig config_;
  net::NodeId self_{0};
  bool started_ = false;

  // Sharding (DESIGN.md §5i).  group_ points at core 0 (the user-facing
  // instance) from attach() on; an unsharded server is a group of one
  // (group_ == this, no pool_).
  DiscoverServer* group_ = nullptr;
  std::uint32_t shard_index_ = 0;
  std::uint32_t shard_bits_ = 0;
  std::uint32_t group_shards_ = 1;
  std::unique_ptr<net::Executor> pool_;  // core 0 only; owner i = core i
  std::vector<std::unique_ptr<DiscoverServer>> cores_;    // core 0 only
  util::ShardedCounter* routed_ = nullptr;                // core 0 only

  std::unique_ptr<http::ServletContainer> container_;
  std::unique_ptr<orb::Orb> orb_;
  security::TokenAuthority tokens_;
  orb::NamingClient naming_;
  orb::TraderClient trader_;
  orb::ObjectRef own_server_ref_;  // our DiscoverCorbaServer
  /// Our confirmed trader offer (0 until then); one export in flight at most.
  std::uint64_t trader_offer_id_ = 0;
  bool trader_exporting_ = false;

  std::map<proto::AppId, ApplicationProxy> hosted_;
  std::map<proto::AppId, RemoteApp> remote_;
  std::map<std::uint32_t, proto::AppId> apps_by_node_;  // hosted app node -> id
  std::uint32_t app_counter_ = 0;

  SessionTable sessions_;
  std::map<std::uint64_t, PendingCmd> pending_cmds_;
  std::uint64_t next_host_rid_ = 1;

  /// One link per peer node: the peers the trader listed, plus
  /// subscribers it has not listed yet (their links carry only pushes).
  std::map<std::uint32_t, PeerLink> links_;
  /// The number of listed links, kept at every listing and erase so tests
  /// and monitors on other threads can poll peer_count() race-free.
  std::atomic<std::size_t> peer_count_cache_{0};
  /// Core 0: the directory change log, each changed app's latest version,
  /// so an app that flips phase every step holds one entry.  It is bounded;
  /// a caller behind dir_log_floor_ — the newest version the cap evicted or
  /// an epoch bump cleared — gets a full snapshot.
  std::map<proto::AppId, std::uint64_t> dir_log_;
  std::uint64_t dir_log_floor_ = 0;
  std::uint64_t dir_epoch_ = 0;
  std::uint64_t dir_version_ = 0;
  net::TimerId refresh_timer_{0};
  net::TimerId liveness_timer_{0};
  net::TimerId session_timer_{0};
  net::TimerId monitor_timer_{0};
  orb::ObjectRef monitoring_ref_;
  net::TimerId identity_timer_{0};
  orb::ObjectRef identity_directory_;
  std::map<std::string, std::uint64_t> identity_cache_;  // user -> pw digest

  LockManager locks_;
  db::RecordStore db_;
  SessionArchive archive_;
  ServerStats stats_;
  util::MetricsRegistry metrics_;
  util::Tracer tracer_;
  std::uint64_t stage_seq_ = 0;
  /// Registry-owned stage histograms, cached once in register_metrics();
  /// map nodes are stable so the pointers stay valid.
  util::LatencyHistogram* stage_login_ = nullptr;
  util::LatencyHistogram* stage_select_ = nullptr;
  util::LatencyHistogram* stage_poll_ = nullptr;
  util::LatencyHistogram* stage_deliver_ = nullptr;
  util::LatencyHistogram* stage_flush_rtt_ = nullptr;
  util::LatencyHistogram* stage_lock_grant_ = nullptr;
  /// Monitoring-push failure streak (warn-log backoff: 1, 2, 4, 8, ...).
  std::uint64_t monitoring_fail_streak_ = 0;
  /// One live counter summed over every core.
  [[nodiscard]] std::uint64_t live_sum(
      std::atomic<std::uint64_t> DiscoverServer::*counter) const {
    std::uint64_t v = (this->*counter).load(std::memory_order_relaxed);
    for (const auto& core : cores_) {
      v += ((*core).*counter).load(std::memory_order_relaxed);
    }
    return v;
  }
  std::atomic<std::uint64_t> live_updates_{0};
  std::atomic<std::uint64_t> live_requests_{0};
  std::atomic<std::uint64_t> live_registrations_{0};
  std::atomic<std::uint64_t> live_peer_events_{0};
};

}  // namespace discover::core
