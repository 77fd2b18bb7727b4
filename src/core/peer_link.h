// One peer server as one server core knows it (paper §5.2.1, §5.2.3): the
// DiscoverCorbaServer ref the trader listed, the resource policy (§6.3),
// health, the outbox that turns pushes and relayed collab posts into one
// forward_events call per peer, and the versioned-directory cursor.  The
// link owns the outbox policy — flush triggers, in-flight gate, the one
// shed rule — and does no I/O: DiscoverServer sends, arms the timers and
// keeps the flush stats.  One link per (core, peer node), touched only on
// its core, living exactly as long as the core knows the peer.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/server_stats.h"
#include "net/address.h"
#include "orb/orb.h"
#include "proto/messages.h"
#include "security/rate_limit.h"
#include "util/bytes.h"
#include "util/trace.h"
#include "wire/cdr.h"

namespace discover::core {

/// Standalone CDR encoding of one event, shared by every outbox it lands
/// in; spliced at an 8-byte boundary it decodes as if encoded in place.
[[nodiscard]] std::shared_ptr<const util::Bytes> encode_event_standalone(
    const proto::ClientEvent& ev);

/// One queued outbox event, spliced into the batch without re-encoding.
struct OutboxItem {
  proto::EventFrameKind frame_kind = proto::EventFrameKind::push;
  proto::AppId app;
  std::uint64_t seq = 0;  // 0 for collab_relay
  proto::EventKind kind = proto::EventKind::system;
  std::shared_ptr<const util::Bytes> encoded;
  /// Ambient trace context at enqueue time (invalid when unsampled); a
  /// batch joins the trace of its first traced item.
  util::TraceContext trace;
};

/// Why a flush fired (the flushes_by_* stats).  `drain` — heal, shutdown,
/// retry, traffic queued behind a batch in flight — counts nowhere.
enum class FlushTrigger { count, bytes, timer, drain };

class PeerLink {
 public:
  /// A batch is due at this many items or this much payload; otherwise
  /// the Nagle timer (ServerConfig::peer_flush_delay) sends it.
  static constexpr std::size_t kBatchMaxEvents = 64;
  static constexpr std::size_t kBatchMaxBytes = 48 * 1024;
  /// Items held while the peer cannot take a batch (suspect, or one in
  /// flight); past it the shed rule drops.
  static constexpr std::size_t kOutboxCap = 1024;

  /// The batch take_batch() hands to the forward_events call.
  struct Batch {
    orb::ObjectRef ref;  // the peer's DiscoverCorbaServer to send it to
    wire::Encoder args;  // forward_events arguments
    std::vector<OutboxItem> items;  // what it carries, for requeue()
  };

  /// `stats` counts every item dropped in outbox_dropped.
  PeerLink(std::uint32_t peer_node, ServerStats& stats)
      : node(peer_node), stats_(&stats) {}

  std::uint32_t node = 0;
  std::string name;
  /// The DiscoverCorbaServer the trader listed; invalid while the link only
  /// carries pushes to a subscriber the trader has not listed yet.
  orb::ObjectRef server_ref;
  std::unique_ptr<security::RateLimiter> limiter;
  /// Counted by peer_count(); reached by the login fan-out, control
  /// broadcasts and refresh rounds.
  [[nodiscard]] bool listed() const { return server_ref.valid(); }

  /// Consecutive ORB timeouts; at ServerConfig::peer_suspect_threshold the
  /// peer goes suspect: re-probed, not routed or flushed to, until healed.
  std::uint32_t consecutive_failures = 0;
  bool suspect = false;

  /// The peer's hosted applications as of the last list_apps_since reply,
  /// and the (epoch, version) to present on the next one.
  std::map<proto::AppId, proto::AppInfo> directory;
  std::uint64_t dir_epoch = 0;
  std::uint64_t dir_version = 0;
  bool dir_inflight = false;
  /// Folds in one list_apps_since reply; returns the ids it withdrew.  A
  /// stale (reordered) delta changes nothing; a full snapshot always does.
  std::vector<proto::AppId> apply(const proto::DirectoryUpdate& upd);

  /// The outbox: one FIFO across apps and frame kinds, one batch in flight
  /// at a time (batch size adapts to the peer's RTT).
  net::TimerId flush_timer{0};  // armed by the server: Nagle or retry
  /// Queues `item` for a batch to `ref`, then sheds.  Returns count or
  /// bytes when the batch is due now, timer when the Nagle timer must
  /// start, nothing while a timer is armed or a batch is in flight.
  std::optional<FlushTrigger> append(OutboxItem item,
                                     const orb::ObjectRef& ref);
  /// Everything queued as one batch, now in flight — one frame per run of
  /// (kind, app) — or nothing when the outbox is empty, a batch is in
  /// flight, or the peer is suspect (items wait for heal).
  std::optional<Batch> take_batch();
  /// The batch in flight was delivered; true when items queued behind it.
  bool landed();
  /// The batch in flight failed: its push frames go back to the front (the
  /// receiver's remote_known_seq makes redelivery harmless), its collab
  /// relays are dropped (a re-post could duplicate a chat); then sheds.
  void requeue(std::vector<OutboxItem> sent);
  [[nodiscard]] std::size_t depth() const { return items_.size(); }
  /// Expires with the link, so the reply to a batch it sent never lands on
  /// a later link to the same node (a peer that left and came back).
  [[nodiscard]] std::weak_ptr<const int> token() const { return alive_; }

 private:
  /// The one shed rule: while over kOutboxCap, drop the oldest queued
  /// update (a newer one supersedes it), or the oldest item if none.
  void shed();
  /// Batch-size estimate: the encoding plus frame header and alignment.
  [[nodiscard]] static std::size_t cost(const OutboxItem& item) {
    return item.encoded->size() + 32;
  }

  ServerStats* stats_;
  orb::ObjectRef ref_;  // where the next batch goes
  std::deque<OutboxItem> items_;
  std::size_t bytes_ = 0;  // sum of cost() over items_
  bool inflight_ = false;
  std::shared_ptr<const int> alive_ = std::make_shared<const int>(0);
};

}  // namespace discover::core
