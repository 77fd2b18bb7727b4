// DiscoverServer's counters and the one table that says how each is
// exposed and merged across cores.
#pragma once

#include <cstdint>
#include <span>

namespace discover::core {

struct ServerStats {
  std::uint64_t logins_ok = 0;
  std::uint64_t logins_failed = 0;
  std::uint64_t selects_ok = 0;
  std::uint64_t selects_failed = 0;
  std::uint64_t commands_accepted = 0;
  std::uint64_t commands_rejected = 0;
  std::uint64_t commands_buffered = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t responses_processed = 0;
  std::uint64_t events_delivered = 0;
  std::uint64_t events_dropped = 0;  // shed from client FIFOs (both policies)
  // Backpressure (bounded FIFOs + admission control).
  std::uint64_t resync_markers = 0;        // synthesized on post-shed polls
  std::uint64_t overflow_disconnects = 0;  // sessions dropped by policy
  std::uint64_t admission_rejected_logins = 0;
  std::uint64_t admission_rejected_selects = 0;
  std::uint64_t peak_fifo_backlog = 0;        // entries, across all FIFOs
  std::uint64_t peak_fifo_backlog_bytes = 0;  // approx_footprint sum
  std::uint64_t polls_served = 0;
  std::uint64_t collab_posts = 0;
  std::uint64_t remote_commands_in = 0;
  std::uint64_t remote_commands_out = 0;
  std::uint64_t peer_events_in = 0;
  std::uint64_t peer_events_out = 0;
  std::uint64_t peer_rate_limited = 0;
  // Peer outbox pipeline.
  std::uint64_t peer_batches_out = 0;
  std::uint64_t peer_batch_events_max = 0;  // largest batch flushed so far
  std::uint64_t flushes_by_count = 0;
  std::uint64_t flushes_by_bytes = 0;
  std::uint64_t flushes_by_timer = 0;
  std::uint64_t outbox_dropped = 0;
  // Versioned peer directory.
  std::uint64_t dir_deltas_in = 0;
  std::uint64_t dir_fulls_in = 0;
  std::uint64_t dir_refresh_bytes = 0;
  std::uint64_t system_events = 0;
  std::uint64_t apps_registered = 0;
  std::uint64_t apps_departed = 0;
  // Steering-lock lifecycle.
  std::uint64_t lock_notices = 0;
  std::uint64_t lock_leases_expired = 0;
  std::uint64_t lock_waiters_expired = 0;
  std::uint64_t lock_holders_reaped = 0;
  std::uint64_t lock_waiters_reaped = 0;
  std::uint64_t forget_locks_retries = 0;
  std::uint64_t forget_locks_abandoned = 0;
  // Monitoring pushes (report_monitoring): completed reports and failed
  // ones (service unreachable / call timed out).  Failures are counted,
  // warn-logged with backoff, and trigger re-discovery — never silent.
  std::uint64_t monitoring_reports = 0;
  std::uint64_t monitoring_failures = 0;

  /// Field-wise accumulate by each field's merge rule (shard cores sum
  /// their stats at scrape time).
  void add(const ServerStats& other);
};

/// One ServerStats counter: its exposition name, its member, and whether
/// it is a high-water mark — merged across cores by max, not summed.
struct StatField {
  const char* name;
  std::uint64_t ServerStats::*member;
  bool peak;
};

/// Every ServerStats counter in exposition order; register_metrics() and
/// ServerStats::add() both read this one table.
std::span<const StatField> server_stat_fields();

}  // namespace discover::core
