// Client sessions behind the master and collaboration handlers (paper
// §4.1, §6.2): each login session, its per-application subscriptions and
// their poll FIFOs, the per-app fan-out index, the FIFO accounting and shed
// policy, the collaboration filter, and the one session check every
// servlet runs.  One SessionTable per server core; it is touched only from
// that core's execution context.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/server_stats.h"
#include "net/address.h"
#include "proto/messages.h"
#include "security/privilege.h"
#include "security/token.h"
#include "util/clock.h"

namespace discover::core {

/// What happens when a client's poll FIFO exceeds its bound (§6.2 slow
/// clients).  `shed_oldest` drops from the front and the client observes a
/// `resync` marker event on its next poll (value = number shed), telling it
/// to catch up via the archive.  `disconnect` drops the whole session — the
/// client's next request fails authentication and it must re-login.
enum class FifoOverflowPolicy : std::uint8_t { shed_oldest = 0,
                                               disconnect = 1 };

/// One session's subscription to one application.  The fields the fan-out
/// loop reads for every recipient come first, so they share a cache line.
struct ClientSub {
  /// Server-push extension: events go straight to the client instead of
  /// the poll FIFO.
  bool push = false;
  bool collab_enabled = true;
  security::Privilege privilege = security::Privilege::none;
  std::string subgroup;
  /// Shared event instances: one ClientEvent allocation is pushed into
  /// every subscriber's FIFO, so fan-out cost is independent of group
  /// size.  Events are immutable once published.
  std::deque<proto::SharedClientEvent> fifo;
  /// approx_footprint sum of `fifo` (byte-bound accounting).
  std::size_t fifo_bytes = 0;
  /// Events shed since the last poll; nonzero makes the next poll lead
  /// with a resync marker carrying this count.
  std::uint64_t shed_since_poll = 0;
};

struct ClientSession {
  std::uint64_t key = 0;  // http session id
  std::string user;
  net::NodeId client_node{0};
  std::map<proto::AppId, ClientSub> apps;
};

class SessionTable {
 public:
  SessionTable(const security::TokenAuthority& tokens, std::size_t fifo_cap,
               std::size_t fifo_max_bytes, FifoOverflowPolicy policy,
               ServerStats& stats)
      : tokens_(tokens),
        fifo_cap_(fifo_cap),
        fifo_max_bytes_(fifo_max_bytes),
        policy_(policy),
        stats_(stats) {}

  // -- sessions ---------------------------------------------------------------
  /// Binds (or refreshes) the login session of HTTP session `key`.
  void bind(std::uint64_t key, const std::string& user, net::NodeId client);
  [[nodiscard]] ClientSession* find(std::uint64_t key);
  [[nodiscard]] const std::map<std::uint64_t, ClientSession>& all() const {
    return sessions_;
  }
  /// Removes a session with its FIFO accounting and fan-out rows and hands
  /// it back, so the caller can release its applications.
  std::optional<ClientSession> take(std::uint64_t key);
  /// Creates (or returns) the session's sub for `app`, keeping the fan-out
  /// index in sync.  The only way subs come into existence.
  ClientSub& subscribe(ClientSession& session, const proto::AppId& app);

  // -- the one session check --------------------------------------------------
  /// Why a request was refused: a token that fails verification, no login
  /// session for it on this HTTP session, or an app it never selected.
  enum class Refusal : std::uint8_t { none, token, session, subscription };
  struct Access {
    Refusal refusal = Refusal::none;
    std::string message;
    ClientSession* session = nullptr;
    ClientSub* sub = nullptr;  // set when the request names an app
    explicit operator bool() const { return refusal == Refusal::none; }
    /// 400 for an unselected app, 401 for the rest.
    [[nodiscard]] int status() const {
      return refusal == Refusal::subscription ? 400 : 401;
    }
  };
  /// Token -> login session -> subscription.  A null `token` skips the
  /// token check and accepts the session's own user; a null `app` stops
  /// after the session.
  Access authorize(util::TimePoint now, const security::SessionToken* token,
                   std::uint64_t http_session, const proto::AppId* app);

  // -- fan-out and poll drain -------------------------------------------------
  /// Fans `ev` out to every session subscribed to `app` that the
  /// collaboration rules admit.  A poll subscriber gets one shared event
  /// instance on its FIFO, shed or flagged per the overflow policy (keys
  /// flagged for disconnect land in `overflowed`, to drop after the loop);
  /// then `visit(session, push)` runs for every recipient, push or poll.
  template <typename Visit>
  void deliver(const proto::AppId& app, const proto::ClientEvent& ev,
               std::vector<std::uint64_t>& overflowed, Visit&& visit);
  /// Poll-and-pull (§6.2): moves up to `max` events off `sub`'s FIFO into
  /// `out`, led by a resync marker when events were shed since the last
  /// poll; returns the backlog left behind.
  std::uint32_t drain(ClientSub& sub, const proto::AppId& app,
                      util::TimePoint now, std::uint32_t max,
                      std::vector<proto::SharedClientEvent>& out);

  // -- cross-core watchers (DESIGN.md §5i) ------------------------------------
  /// On an app's owning core: counts sessions on other cores that selected
  /// it, per core.  Kept here rather than on the app's entry, so the counts
  /// outlive a remote entry withdrawn while its host was suspect.
  void watch(const proto::AppId& app, std::uint32_t core);
  void unwatch(const proto::AppId& app, std::uint32_t core);
  /// Watching cores of `app` with their counts; null when none.
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>* watcher_cores(
      const proto::AppId& app) const;
  /// Watchers for per-app admission: this core's fan-out rows plus the
  /// other cores' counts.
  [[nodiscard]] std::size_t watchers(const proto::AppId& app) const;

  // -- introspection ----------------------------------------------------------
  [[nodiscard]] std::size_t subscriber_count(const proto::AppId& app) const;
  /// Running totals across every FIFO.
  [[nodiscard]] std::size_t fifo_entries() const { return fifo_entries_; }
  [[nodiscard]] std::size_t fifo_bytes() const { return fifo_bytes_; }
  /// Brute-force scan of every FIFO, (entries, bytes) — the oracle the
  /// running totals are checked against in tests.
  [[nodiscard]] std::pair<std::size_t, std::size_t> scan_backlog() const;
  /// True iff the fan-out index exactly mirrors a brute-force scan of every
  /// session's selected apps.
  [[nodiscard]] bool index_consistent() const;

 private:
  /// One row of the per-app fan-out index.  The raw pointers stay valid
  /// because both maps (sessions_ and ClientSession::apps) have node-stable
  /// elements and rows are removed in take() before the session leaves;
  /// subs are never removed individually.
  struct SubscriberRef {
    std::uint64_t session_key = 0;
    ClientSession* session = nullptr;
    ClientSub* sub = nullptr;
  };

  /// The collaboration filter: whether `ev` reaches this subscription.
  static bool should_deliver(const ClientSession& session, const ClientSub& sub,
                             const proto::ClientEvent& ev);
  /// Appends to a sub's FIFO with entry+byte accounting and peak tracking.
  void fifo_push(ClientSub& sub, proto::SharedClientEvent ev);
  /// Removes the oldest queued event, maintaining the accounting.
  void fifo_pop_front(ClientSub& sub);
  /// True while either configured bound is exceeded.
  [[nodiscard]] bool fifo_over_limit(const ClientSub& sub) const;
  /// shed_oldest enforcement: pops until within bounds, counting sheds.
  void shed_fifo_overflow(ClientSub& sub);

  const security::TokenAuthority& tokens_;
  const std::size_t fifo_cap_;        // 0 = unbounded
  const std::size_t fifo_max_bytes_;  // 0 = entries only
  const FifoOverflowPolicy policy_;
  ServerStats& stats_;

  std::map<std::uint64_t, ClientSession> sessions_;  // by http session id
  std::size_t fifo_entries_ = 0;
  std::size_t fifo_bytes_ = 0;
  /// Fan-out index: app -> every session subscribed to it.  A row's length
  /// doubles as this core's watcher count for the app.
  std::map<proto::AppId, std::vector<SubscriberRef>> subscribers_;
  std::map<proto::AppId, std::map<std::uint32_t, std::uint64_t>>
      watcher_cores_;
};

// The per-recipient steps of deliver(), inline so the fan-out loop keeps
// them inline wherever it is instantiated.
inline bool SessionTable::should_deliver(const ClientSession& session,
                                         const ClientSub& sub,
                                         const proto::ClientEvent& ev) {
  switch (ev.kind) {
    case proto::EventKind::update:
    case proto::EventKind::lock_notice:
    case proto::EventKind::system:
      return true;  // global broadcasts reach the whole group
    case proto::EventKind::chat:
    case proto::EventKind::whiteboard:
      // Sub-group scoped; a client that disabled collaboration neither
      // sends nor receives the shared stream (own messages still echo).
      if (session.user == ev.user) return true;
      return sub.collab_enabled && sub.subgroup == ev.subgroup && ev.shared;
    case proto::EventKind::response:
    case proto::EventKind::error:
      // Command responses are shared with the requester's (sub)group; the
      // requester always sees its own.
      if (session.user == ev.user) return true;
      return ev.shared && sub.collab_enabled && sub.subgroup == ev.subgroup;
    case proto::EventKind::resync:
      break;  // synthesized per poll, never published
  }
  return false;
}

inline void SessionTable::fifo_push(ClientSub& sub,
                                    proto::SharedClientEvent ev) {
  const std::size_t bytes = proto::approx_footprint(*ev);
  sub.fifo.push_back(std::move(ev));
  sub.fifo_bytes += bytes;
  ++fifo_entries_;
  fifo_bytes_ += bytes;
  stats_.peak_fifo_backlog =
      std::max<std::uint64_t>(stats_.peak_fifo_backlog, fifo_entries_);
  stats_.peak_fifo_backlog_bytes =
      std::max<std::uint64_t>(stats_.peak_fifo_backlog_bytes, fifo_bytes_);
}

inline bool SessionTable::fifo_over_limit(const ClientSub& sub) const {
  if (fifo_cap_ != 0 && sub.fifo.size() > fifo_cap_) return true;
  return fifo_max_bytes_ != 0 && sub.fifo_bytes > fifo_max_bytes_;
}

template <typename Visit>
void SessionTable::deliver(const proto::AppId& app,
                           const proto::ClientEvent& ev,
                           std::vector<std::uint64_t>& overflowed,
                           Visit&& visit) {
  // O(subscribers of this app), with all per-event work hoisted out of the
  // recipient loop and materialized lazily on first use.
  const auto idx = subscribers_.find(app);
  if (idx == subscribers_.end()) return;
  proto::SharedClientEvent shared;  // one allocation (poll recipients)
  for (const SubscriberRef& ref : idx->second) {
    ClientSession& session = *ref.session;
    ClientSub& sub = *ref.sub;
    if (!should_deliver(session, sub, ev)) continue;
    if (!sub.push) {
      if (!shared) shared = std::make_shared<const proto::ClientEvent>(ev);
      fifo_push(sub, shared);
      if (fifo_over_limit(sub)) {
        if (policy_ == FifoOverflowPolicy::shed_oldest) {
          shed_fifo_overflow(sub);
        } else {
          overflowed.push_back(ref.session_key);
        }
      }
    }
    visit(static_cast<const ClientSession&>(session), sub.push);
  }
}

}  // namespace discover::core
