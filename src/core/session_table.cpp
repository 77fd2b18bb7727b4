// SessionTable: client sessions, the fan-out index and the bounded poll
// FIFOs (paper §4.1, §6.2).
#include "core/session_table.h"

#include <algorithm>
#include <cassert>

namespace discover::core {

void SessionTable::bind(std::uint64_t key, const std::string& user,
                        net::NodeId client) {
  ClientSession& session = sessions_[key];
  session.key = key;
  session.user = user;
  session.client_node = client;
}

ClientSession* SessionTable::find(std::uint64_t key) {
  const auto it = sessions_.find(key);
  return it != sessions_.end() ? &it->second : nullptr;
}

std::optional<ClientSession> SessionTable::take(std::uint64_t key) {
  auto node = sessions_.extract(key);
  if (node.empty()) return std::nullopt;
  for (auto& [app_id, sub] : node.mapped().apps) {
    fifo_entries_ -= sub.fifo.size();
    fifo_bytes_ -= sub.fifo_bytes;
    // Leave the fan-out index, so nothing more is queued for the departing
    // session.
    if (const auto idx = subscribers_.find(app_id);
        idx != subscribers_.end()) {
      std::erase_if(idx->second, [key](const SubscriberRef& r) {
        return r.session_key == key;
      });
      if (idx->second.empty()) subscribers_.erase(idx);
    }
  }
  return std::move(node.mapped());
}

ClientSub& SessionTable::subscribe(ClientSession& session,
                                   const proto::AppId& app) {
  const auto [it, inserted] = session.apps.try_emplace(app);
  if (inserted) {
    subscribers_[app].push_back(
        SubscriberRef{session.key, &session, &it->second});
  }
  return it->second;
}

SessionTable::Access SessionTable::authorize(
    util::TimePoint now, const security::SessionToken* token,
    std::uint64_t http_session, const proto::AppId* app) {
  Access access;
  if (token != nullptr) {
    if (const auto v = tokens_.verify(*token, now); !v.ok()) {
      access.refusal = Refusal::token;
      access.message = v.error().message;
      return access;
    }
  }
  ClientSession* session = find(http_session);
  if (session == nullptr ||
      (token != nullptr && session->user != token->user)) {
    access.refusal = Refusal::session;
    access.message = "no active login session";
    return access;
  }
  access.session = session;
  if (app == nullptr) return access;
  const auto sub = session->apps.find(*app);
  if (sub == session->apps.end()) {
    access.refusal = Refusal::subscription;
    access.message = "application not selected";
    return access;
  }
  access.sub = &sub->second;
  return access;
}

std::uint32_t SessionTable::drain(ClientSub& sub, const proto::AppId& app,
                                  util::TimePoint now, std::uint32_t max,
                                  std::vector<proto::SharedClientEvent>& out) {
  // The FIFO holds shared event instances, so draining moves pointers and
  // the reply is serialized straight from them — no event copies on the
  // poll path.
  out.reserve(std::min<std::size_t>(sub.fifo.size(), max) + 1);
  if (sub.shed_since_poll > 0) {
    // The shed policy dropped events since this client last drained.  Lead
    // the reply with a resync marker (before any survivors) carrying the
    // shed count, so the client knows to catch up via the archive.
    proto::ClientEvent marker;
    marker.kind = proto::EventKind::resync;
    marker.app = app;
    marker.at = now;
    marker.text = "events shed by server backpressure; resync via archive";
    marker.value =
        proto::ParamValue{static_cast<std::int64_t>(sub.shed_since_poll)};
    out.push_back(
        std::make_shared<const proto::ClientEvent>(std::move(marker)));
    sub.shed_since_poll = 0;
    ++stats_.resync_markers;
  }
  while (!sub.fifo.empty() && out.size() < max) {
    out.push_back(sub.fifo.front());
    fifo_pop_front(sub);
  }
  return static_cast<std::uint32_t>(sub.fifo.size());
}

void SessionTable::watch(const proto::AppId& app, std::uint32_t core) {
  ++watcher_cores_[app][core];
}

void SessionTable::unwatch(const proto::AppId& app, std::uint32_t core) {
  const auto row = watcher_cores_.find(app);
  if (row == watcher_cores_.end()) return;
  if (const auto it = row->second.find(core);
      it != row->second.end() && --it->second == 0) {
    row->second.erase(it);
  }
  if (row->second.empty()) watcher_cores_.erase(row);
}

const std::map<std::uint32_t, std::uint64_t>* SessionTable::watcher_cores(
    const proto::AppId& app) const {
  const auto it = watcher_cores_.find(app);
  return it != watcher_cores_.end() ? &it->second : nullptr;
}

std::size_t SessionTable::watchers(const proto::AppId& app) const {
  std::size_t n = subscriber_count(app);
  if (const auto* cores = watcher_cores(app)) {
    for (const auto& [_, count] : *cores) n += count;
  }
  return n;
}

std::size_t SessionTable::subscriber_count(const proto::AppId& app) const {
  const auto it = subscribers_.find(app);
  return it != subscribers_.end() ? it->second.size() : 0;
}

std::pair<std::size_t, std::size_t> SessionTable::scan_backlog() const {
  std::pair<std::size_t, std::size_t> n{0, 0};
  for (const auto& [_, session] : sessions_) {
    for (const auto& [__, sub] : session.apps) {
      n.first += sub.fifo.size();
      n.second += sub.fifo_bytes;
    }
  }
  return n;
}

bool SessionTable::index_consistent() const {
  // Brute-force oracle: rebuild the expected index from sessions_ and
  // require an exact match (keys, row counts, and pointer identity).
  std::map<proto::AppId, std::size_t> expected;
  for (const auto& [key, session] : sessions_) {
    for (const auto& [app_id, sub] : session.apps) ++expected[app_id];
  }
  std::map<proto::AppId, std::size_t> actual;
  for (const auto& [app_id, refs] : subscribers_) {
    if (refs.empty()) return false;  // empty rows must be erased
    actual[app_id] = refs.size();
    for (const SubscriberRef& ref : refs) {
      const auto sit = sessions_.find(ref.session_key);
      if (sit == sessions_.end()) return false;
      if (ref.session != &sit->second) return false;
      const auto ait = sit->second.apps.find(app_id);
      if (ait == sit->second.apps.end()) return false;
      if (ref.sub != &ait->second) return false;
    }
  }
  return expected == actual;
}

void SessionTable::fifo_pop_front(ClientSub& sub) {
  assert(!sub.fifo.empty());
  const std::size_t bytes = proto::approx_footprint(*sub.fifo.front());
  sub.fifo.pop_front();
  sub.fifo_bytes -= bytes;
  --fifo_entries_;
  fifo_bytes_ -= bytes;
}

void SessionTable::shed_fifo_overflow(ClientSub& sub) {
  while (fifo_over_limit(sub) && !sub.fifo.empty()) {
    fifo_pop_front(sub);
    ++sub.shed_since_poll;
    ++stats_.events_dropped;
  }
}

}  // namespace discover::core
