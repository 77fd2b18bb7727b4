#include "core/peer_link.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace discover::core {

std::shared_ptr<const util::Bytes> encode_event_standalone(
    const proto::ClientEvent& ev) {
  wire::Encoder e;
  e.reserve(128);
  proto::encode(e, ev);
  return std::make_shared<const util::Bytes>(std::move(e).take());
}

std::vector<proto::AppId> PeerLink::apply(const proto::DirectoryUpdate& upd) {
  if (!upd.full && upd.epoch == dir_epoch && upd.version < dir_version) {
    return {};
  }
  std::vector<proto::AppId> removed = upd.removed;
  const auto before = upd.full ? std::exchange(directory, {})
                               : std::map<proto::AppId, proto::AppInfo>{};
  for (const auto& info : upd.apps) directory[info.id] = info;
  for (const auto& [id, _] : before) {
    if (directory.count(id) == 0) removed.push_back(id);
  }
  for (const auto& id : removed) directory.erase(id);
  dir_epoch = upd.epoch;
  dir_version = upd.version;
  return removed;
}

std::optional<FlushTrigger> PeerLink::append(OutboxItem item,
                                             const orb::ObjectRef& ref) {
  ref_ = ref;
  bytes_ += cost(item);
  items_.push_back(std::move(item));
  shed();
  if (items_.size() >= kBatchMaxEvents) return FlushTrigger::count;
  if (bytes_ >= kBatchMaxBytes) return FlushTrigger::bytes;
  if (flush_timer.value() == 0 && !inflight_) return FlushTrigger::timer;
  return std::nullopt;
}

std::optional<PeerLink::Batch> PeerLink::take_batch() {
  if (items_.empty() || inflight_ || suspect) return std::nullopt;
  Batch batch{ref_, {}, {std::make_move_iterator(items_.begin()),
                         std::make_move_iterator(items_.end())}};
  items_.clear();
  const std::vector<OutboxItem>& sent = batch.items;
  // One frame per run of (kind, app): per-app order is the queue order.
  const auto run_end = [&](std::size_t first) {
    const OutboxItem& head = sent[first];
    std::size_t end = first + 1;
    while (end < sent.size() && sent[end].frame_kind == head.frame_kind &&
           sent[end].app == head.app) {
      ++end;
    }
    return end;
  };
  std::uint32_t frames = 0;
  for (std::size_t i = 0; i < sent.size(); i = run_end(i)) ++frames;

  wire::Encoder& args = batch.args;
  args.reserve(std::exchange(bytes_, 0) + 16);
  args.u32(frames);
  for (std::size_t first = 0, end; first < sent.size(); first = end) {
    end = run_end(first);
    args.u8(static_cast<std::uint8_t>(sent[first].frame_kind));
    proto::encode(args, sent[first].app);
    args.u64(sent[first].seq);
    args.u64(sent[end - 1].seq);
    args.u32(static_cast<std::uint32_t>(end - first));
    for (std::size_t k = first; k < end; ++k) {
      args.align_to(8);
      args.splice(*sent[k].encoded);
    }
  }
  inflight_ = true;
  return batch;
}

bool PeerLink::landed() {
  inflight_ = false;
  return !items_.empty();
}

void PeerLink::requeue(std::vector<OutboxItem> sent) {
  inflight_ = false;
  stats_->outbox_dropped += std::erase_if(sent, [](const OutboxItem& item) {
    return item.frame_kind != proto::EventFrameKind::push;
  });
  for (const auto& item : sent) bytes_ += cost(item);
  items_.insert(items_.begin(), std::make_move_iterator(sent.begin()),
                std::make_move_iterator(sent.end()));
  shed();
}

void PeerLink::shed() {
  while (items_.size() > kOutboxCap) {
    auto victim = std::find_if(items_.begin(), items_.end(), [](const auto& i) {
      return i.kind == proto::EventKind::update;
    });
    if (victim == items_.end()) victim = items_.begin();
    bytes_ -= std::min(bytes_, cost(*victim));
    items_.erase(victim);
    ++stats_->outbox_dropped;
  }
}

}  // namespace discover::core
