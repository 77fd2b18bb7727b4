// PeerLink's outbox policy and directory cursor, driven directly (no
// network, no threads):
//  * the shed rule — past kOutboxCap the oldest queued update goes first,
//    so an incoming update is dropped before any queued chat, and a failed
//    batch's requeue sheds its oldest updates, never a newer chat;
//  * requeue — push frames go back to the front in order, collab relays are
//    dropped and counted;
//  * triggers — count at kBatchMaxEvents items, bytes at kBatchMaxBytes,
//    the Nagle timer only for an item that opens a batch;
//  * the in-flight gate — no second batch while one is in flight or while
//    the peer is suspect, and a batch's reply never reaches a later link;
//  * the directory cursor — deltas, stale deltas and full snapshots.
#include <gtest/gtest.h>

#include <vector>

#include "core/peer_link.h"

namespace discover {
namespace {

using core::FlushTrigger;
using core::OutboxItem;
using core::PeerLink;

const proto::AppId kApp{2, 1};

/// A push item for `kApp` with its real standalone encoding.
OutboxItem push_item(std::uint64_t seq, proto::EventKind kind) {
  proto::ClientEvent ev;
  ev.kind = kind;
  ev.seq = seq;
  ev.app = kApp;
  ev.text = "event " + std::to_string(seq);
  return {proto::EventFrameKind::push, kApp, seq, kind,
          core::encode_event_standalone(ev), {}};
}

OutboxItem relay_item(proto::EventKind kind) {
  proto::ClientEvent ev;
  ev.kind = kind;
  ev.user = "alice";
  ev.text = "relayed";
  return {proto::EventFrameKind::collab_relay, proto::AppId{3, 1}, 0, kind,
          core::encode_event_standalone(ev), {}};
}

/// An item whose batch cost is exactly `cost` bytes: an encoding of
/// `cost - 32` bytes plus the per-item allowance.
OutboxItem sized_item(std::uint64_t seq, std::size_t cost) {
  OutboxItem item = push_item(seq, proto::EventKind::update);
  item.encoded = std::make_shared<const util::Bytes>(cost - 32, 0);
  return item;
}

/// The (seq, kind) of every item a link's next batch carries.
std::vector<std::pair<std::uint64_t, proto::EventKind>> drain(PeerLink& link) {
  std::vector<std::pair<std::uint64_t, proto::EventKind>> out;
  auto batch = link.take_batch();
  if (!batch) return out;
  for (const auto& item : batch->items) out.emplace_back(item.seq, item.kind);
  return out;
}

std::size_t count_kind(
    const std::vector<std::pair<std::uint64_t, proto::EventKind>>& items,
    proto::EventKind kind) {
  std::size_t n = 0;
  for (const auto& [_, k] : items) n += k == kind ? 1 : 0;
  return n;
}

TEST(PeerLinkShed, IncomingUpdateIsDroppedBeforeAnyQueuedChat) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  for (std::uint64_t seq = 1; seq <= PeerLink::kOutboxCap; ++seq) {
    (void)link.append(push_item(seq, proto::EventKind::chat), {});
  }
  EXPECT_EQ(stats.outbox_dropped, 0u);
  (void)link.append(push_item(PeerLink::kOutboxCap + 1,
                              proto::EventKind::update),
                    {});
  EXPECT_EQ(stats.outbox_dropped, 1u);
  const auto kept = drain(link);
  ASSERT_EQ(kept.size(), PeerLink::kOutboxCap);
  EXPECT_EQ(count_kind(kept, proto::EventKind::chat), PeerLink::kOutboxCap);
}

TEST(PeerLinkShed, OldestQueuedUpdateGoesFirstThenOldestItem) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  // chat 1, update 2, update 3, then chats up to the cap.
  (void)link.append(push_item(1, proto::EventKind::chat), {});
  (void)link.append(push_item(2, proto::EventKind::update), {});
  (void)link.append(push_item(3, proto::EventKind::update), {});
  for (std::uint64_t seq = 4; seq <= PeerLink::kOutboxCap; ++seq) {
    (void)link.append(push_item(seq, proto::EventKind::chat), {});
  }
  // Each new chat sheds the oldest update: 2, then 3.  With no update
  // left, the next one sheds the oldest item, chat 1.
  for (std::uint64_t seq = PeerLink::kOutboxCap + 1;
       seq <= PeerLink::kOutboxCap + 3; ++seq) {
    (void)link.append(push_item(seq, proto::EventKind::chat), {});
  }
  EXPECT_EQ(stats.outbox_dropped, 3u);
  EXPECT_EQ(link.depth(), PeerLink::kOutboxCap);
  const auto kept = drain(link);
  ASSERT_EQ(kept.size(), PeerLink::kOutboxCap);
  EXPECT_EQ(kept.front().first, 4u);
  EXPECT_EQ(kept.back().first, PeerLink::kOutboxCap + 3);
  EXPECT_EQ(count_kind(kept, proto::EventKind::update), 0u);
}

TEST(PeerLinkRequeue, FailedBatchShedsItsOldestUpdatesNeverANewerChat) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  // The batch in flight: updates 1-4, chat 5, and two collab relays.
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    (void)link.append(push_item(seq, proto::EventKind::update), {});
  }
  (void)link.append(push_item(5, proto::EventKind::chat), {});
  (void)link.append(relay_item(proto::EventKind::chat), {});
  (void)link.append(relay_item(proto::EventKind::whiteboard), {});
  auto batch = link.take_batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->items.size(), 7u);

  // While it is in flight, chats fill the outbox to three short of the cap.
  const std::uint64_t first_new = 6;
  const std::uint64_t last_new = first_new + PeerLink::kOutboxCap - 4;
  for (std::uint64_t seq = first_new; seq <= last_new; ++seq) {
    (void)link.append(push_item(seq, proto::EventKind::chat), {});
  }
  EXPECT_FALSE(link.take_batch().has_value());  // the in-flight gate
  EXPECT_EQ(stats.outbox_dropped, 0u);

  // The batch fails: the two relays are dropped, the five push items go
  // back to the front, and the two over the cap are the oldest updates.
  link.requeue(std::move(batch->items));
  EXPECT_EQ(stats.outbox_dropped, 4u);
  EXPECT_EQ(link.depth(), PeerLink::kOutboxCap);
  const auto kept = drain(link);
  ASSERT_EQ(kept.size(), PeerLink::kOutboxCap);
  const std::vector<std::pair<std::uint64_t, proto::EventKind>> head = {
      {3, proto::EventKind::update},
      {4, proto::EventKind::update},
      {5, proto::EventKind::chat},
      {first_new, proto::EventKind::chat}};
  EXPECT_EQ(std::vector(kept.begin(), kept.begin() + 4), head);
  EXPECT_EQ(kept.back().first, last_new);
  EXPECT_EQ(count_kind(kept, proto::EventKind::chat), kept.size() - 2);
}

TEST(PeerLinkRequeue, RelaysAreDroppedAndPushFramesKeepTheirOrder) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  (void)link.append(push_item(1, proto::EventKind::update), {});
  (void)link.append(relay_item(proto::EventKind::chat), {});
  (void)link.append(push_item(2, proto::EventKind::chat), {});
  auto batch = link.take_batch();
  ASSERT_TRUE(batch.has_value());
  (void)link.append(push_item(3, proto::EventKind::update), {});
  link.requeue(std::move(batch->items));
  EXPECT_EQ(stats.outbox_dropped, 1u);
  const std::vector<std::pair<std::uint64_t, proto::EventKind>> want = {
      {1, proto::EventKind::update},
      {2, proto::EventKind::chat},
      {3, proto::EventKind::update}};
  EXPECT_EQ(drain(link), want);
}

TEST(PeerLinkTriggers, CountTriggerAtBatchMaxEvents) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  EXPECT_EQ(link.append(push_item(1, proto::EventKind::update), {}),
            FlushTrigger::timer);
  link.flush_timer = net::TimerId{1};  // the server armed the Nagle timer
  for (std::uint64_t seq = 2; seq < PeerLink::kBatchMaxEvents; ++seq) {
    EXPECT_EQ(link.append(push_item(seq, proto::EventKind::update), {}),
              std::nullopt)
        << "item " << seq;
  }
  EXPECT_EQ(link.append(push_item(PeerLink::kBatchMaxEvents,
                                  proto::EventKind::update),
                        {}),
            FlushTrigger::count);
}

TEST(PeerLinkTriggers, BytesTriggerAtBatchMaxBytes) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  constexpr std::size_t kCost = 2048;
  constexpr std::size_t kItems = PeerLink::kBatchMaxBytes / kCost;
  static_assert(kItems < PeerLink::kBatchMaxEvents);
  EXPECT_EQ(link.append(sized_item(1, kCost), {}), FlushTrigger::timer);
  link.flush_timer = net::TimerId{1};
  for (std::uint64_t seq = 2; seq < kItems; ++seq) {
    EXPECT_EQ(link.append(sized_item(seq, kCost), {}), std::nullopt)
        << "item " << seq;
  }
  EXPECT_EQ(link.append(sized_item(kItems, kCost), {}), FlushTrigger::bytes);
}

TEST(PeerLinkTriggers, NoSecondBatchWhileOneIsInFlightOrThePeerIsSuspect) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  orb::ObjectRef ref;
  ref.node = 7;
  ref.key = 42;
  EXPECT_FALSE(link.take_batch().has_value());  // nothing queued
  (void)link.append(push_item(1, proto::EventKind::update), ref);
  auto first = link.take_batch();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->ref, ref);

  // Items queue behind the batch in flight; no trigger asks for a timer.
  EXPECT_EQ(link.append(push_item(2, proto::EventKind::update), ref),
            std::nullopt);
  EXPECT_FALSE(link.take_batch().has_value());
  EXPECT_EQ(link.depth(), 1u);

  // Delivered: what queued behind it leaves next — unless the peer is
  // suspect, when it waits for heal.
  EXPECT_TRUE(link.landed());
  link.suspect = true;
  EXPECT_FALSE(link.take_batch().has_value());
  link.suspect = false;
  const auto second = drain(link);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.front().first, 2u);
  EXPECT_FALSE(link.landed());
  EXPECT_EQ(stats.outbox_dropped, 0u);
}

TEST(PeerLinkTriggers, TokenExpiresWithTheLink) {
  // A reply to a batch checks the token, so it never lands on a later link
  // to the same node.
  core::ServerStats stats;
  std::weak_ptr<const int> token;
  {
    PeerLink link(7, stats);
    token = link.token();
    EXPECT_FALSE(token.expired());
  }
  EXPECT_TRUE(token.expired());
}

proto::AppInfo info(std::uint32_t local, const std::string& name) {
  proto::AppInfo a;
  a.id = proto::AppId{7, local};
  a.name = name;
  return a;
}

TEST(PeerLinkDirectory, DeltasApplyStaleDeltasDoNotAndFullsReplace) {
  core::ServerStats stats;
  PeerLink link(7, stats);
  proto::DirectoryUpdate full;
  full.full = true;
  full.epoch = 1;
  full.version = 3;
  full.apps = {info(1, "a"), info(2, "b")};
  EXPECT_TRUE(link.apply(full).empty());
  EXPECT_EQ(link.directory.size(), 2u);

  proto::DirectoryUpdate delta;
  delta.epoch = 1;
  delta.version = 5;
  delta.apps = {info(3, "c")};
  delta.removed = {proto::AppId{7, 1}};
  EXPECT_EQ(link.apply(delta), (std::vector<proto::AppId>{{7, 1}}));
  EXPECT_EQ(link.directory.size(), 2u);
  EXPECT_EQ(link.dir_version, 5u);

  proto::DirectoryUpdate stale = delta;
  stale.version = 4;
  stale.apps = {info(1, "a")};
  stale.removed = {proto::AppId{7, 3}};
  EXPECT_TRUE(link.apply(stale).empty());
  EXPECT_EQ(link.directory.count(proto::AppId{7, 3}), 1u);
  EXPECT_EQ(link.dir_version, 5u);

  // A full snapshot of a new epoch replaces the view and names what left.
  proto::DirectoryUpdate resync;
  resync.full = true;
  resync.epoch = 2;
  resync.version = 1;
  resync.apps = {info(3, "c")};
  EXPECT_EQ(link.apply(resync), (std::vector<proto::AppId>{{7, 2}}));
  ASSERT_EQ(link.directory.size(), 1u);
  EXPECT_EQ(link.directory.begin()->second.name, "c");
  EXPECT_EQ(link.dir_epoch, 2u);
}

}  // namespace
}  // namespace discover
