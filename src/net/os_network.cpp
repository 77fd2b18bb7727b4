#include "net/os_network.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "util/log.h"

namespace discover::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// One writev carries up to IOV_MAX iovecs (two per frame: header, payload).
#ifdef IOV_MAX
constexpr std::size_t kMaxIov = IOV_MAX;
#else
constexpr std::size_t kMaxIov = 1024;
#endif

/// Remote frames the running task has sent on one of an OsNetwork's own
/// workers.  The first wakes the loop at once; the rest owe one wake, paid
/// when the task ends.  A worker thread belongs to one network, so the
/// count never mixes two networks' sends.
thread_local unsigned tl_task_sends = 0;

/// The network whose event loop the calling thread runs (null elsewhere).
/// A pointer, not a flag: one process may run several networks' loops.
thread_local const OsNetwork* tl_loop_of = nullptr;

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t value_of(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

std::string addr_key_of(const std::string& host, std::uint16_t port) {
  return host + ":" + std::to_string(port);
}

bool split_addr_key(const std::string& key, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = key.rfind(':');
  if (colon == std::string::npos) return false;
  host = key.substr(0, colon);
  const int p = std::atoi(key.c_str() + colon + 1);
  if (p <= 0 || p > 65535) return false;
  port = static_cast<std::uint16_t>(p);
  return true;
}

int make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_sndbuf(int fd, int bytes) {
  if (bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Event pollers: one interface, an epoll implementation (Linux) and a
// portable poll(2) fallback.  Only the event-loop thread touches a poller.

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class OsNetwork::Poller {
 public:
  virtual ~Poller() = default;
  virtual void add(int fd, bool want_read, bool want_write) = 0;
  virtual void mod(int fd, bool want_read, bool want_write) = 0;
  virtual void del(int fd) = 0;
  virtual void wait(int timeout_ms, std::vector<PollerEvent>& out) = 0;
};

#ifdef __linux__
class OsNetwork::EpollPoller final : public OsNetwork::Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
  }
  ~EpollPoller() override { ::close(epfd_); }

  void add(int fd, bool want_read, bool want_write) override {
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
  void mod(int fd, bool want_read, bool want_write) override {
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }
  void del(int fd) override {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  void wait(int timeout_ms, std::vector<PollerEvent>& out) override {
    epoll_event events[128];
    const int n = ::epoll_wait(epfd_, events, 128, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollerEvent pe;
      pe.fd = events[i].data.fd;
      pe.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      pe.writable = (events[i].events & EPOLLOUT) != 0;
      pe.error = (events[i].events & EPOLLERR) != 0;
      out.push_back(pe);
    }
  }

 private:
  static std::uint32_t mask(bool r, bool w) {
    return (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
  }
  int epfd_;
};
#endif  // __linux__

class OsNetwork::PollFdPoller final : public OsNetwork::Poller {
 public:
  void add(int fd, bool want_read, bool want_write) override {
    interest_[fd] = events(want_read, want_write);
  }
  void mod(int fd, bool want_read, bool want_write) override {
    interest_[fd] = events(want_read, want_write);
  }
  void del(int fd) override { interest_.erase(fd); }
  void wait(int timeout_ms, std::vector<PollerEvent>& out) override {
    fds_.clear();
    for (const auto& [fd, ev] : interest_) {
      fds_.push_back(pollfd{fd, ev, 0});
    }
    const int n =
        ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      PollerEvent pe;
      pe.fd = p.fd;
      pe.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      pe.writable = (p.revents & POLLOUT) != 0;
      pe.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(pe);
    }
  }

 private:
  static short events(bool r, bool w) {
    return static_cast<short>((r ? POLLIN : 0) | (w ? POLLOUT : 0));
  }
  std::map<int, short> interest_;
  std::vector<pollfd> fds_;
};

// ---------------------------------------------------------------------------

OsNetwork::OsNetwork(OsNetworkConfig config) : config_(std::move(config)) {
  // The wake a task's later sends owe, paid when the task ends (before it
  // counts as finished, so wait_idle() also covers the wake).
  exec_.set_after_task([this] {
    if (tl_task_sends > 1) wake();
    tl_task_sends = 0;
  });
}

OsNetwork::~OsNetwork() { stop(); }

NodeId OsNetwork::add_node(std::string name, MessageHandler* handler,
                           DomainId domain) {
  if (started_) throw std::logic_error("add_node after start()");
  auto rec = std::make_unique<NodeRec>();
  rec->name = std::move(name);
  rec->domain = domain;
  rec->local = true;
  rec->owner = exec_.add_owner(handler);
  nodes_.push_back(std::move(rec));
  const auto id = static_cast<std::uint32_t>(nodes_.size() - 1);
  local_node_ids_.push_back(id);
  return NodeId{id};
}

NodeId OsNetwork::add_remote(std::string name, std::string host,
                             std::uint16_t port, DomainId domain) {
  if (started_) throw std::logic_error("add_remote after start()");
  auto rec = std::make_unique<NodeRec>();
  rec->name = std::move(name);
  rec->domain = domain;
  rec->local = false;
  rec->addr_key = addr_key_of(host, port);
  nodes_.push_back(std::move(rec));
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

std::string OsNetwork::listen_addr() const {
  if (bound_port_ == 0) return {};
  return addr_key_of(config_.listen_host, bound_port_);
}

util::Status OsNetwork::start() {
  if (started_) return {};

  if (config_.listen) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return {util::Errc::internal, "socket() failed"};
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.listen_port);
    if (::inet_pton(AF_INET, config_.listen_host.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return {util::Errc::invalid_argument,
              "bad listen host " + config_.listen_host};
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      // The typed startup failure the tests pin: a taken port is an
      // environment condition the caller can react to, not a crash.
      return {err == EADDRINUSE ? util::Errc::unavailable
                                : util::Errc::internal,
              "bind " + addr_key_of(config_.listen_host,
                                    config_.listen_port) +
                  " failed: " + std::strerror(err)};
    }
    if (::listen(listen_fd_, 128) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return {util::Errc::internal,
              std::string("listen failed: ") + std::strerror(err)};
    }
    make_nonblocking(listen_fd_);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
  }

  if (::pipe(wake_fds_) != 0) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return {util::Errc::internal, "pipe() failed"};
  }
  make_nonblocking(wake_fds_[0]);
  make_nonblocking(wake_fds_[1]);

#ifdef __linux__
  if (config_.use_epoll) {
    poller_ = std::make_unique<EpollPoller>();
  } else {
    poller_ = std::make_unique<PollFdPoller>();
  }
#else
  poller_ = std::make_unique<PollFdPoller>();
#endif
  poller_->add(wake_fds_[0], /*read=*/true, /*write=*/false);
  if (listen_fd_ >= 0) {
    poller_->add(listen_fd_, /*read=*/true, /*write=*/false);
  }

  started_ = true;
  exec_.start();
  loop_thread_ = std::thread([this] { loop(); });
  return {};
}

void OsNetwork::stop() {
  if (!started_ || stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  write_wake_byte();
  if (loop_thread_.joinable()) loop_thread_.join();
  exec_.stop();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

void OsNetwork::wake() {
  // One pipe byte per burst: the loop clears the flag before it scans the
  // queues, so a frame queued after that scan always finds it clear.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  write_wake_byte();
}

void OsNetwork::write_wake_byte() {
  if (wake_fds_[1] < 0) return;
  const char b = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
  bump(os_stats_.wakes);
}

bool OsNetwork::wait_idle(util::Duration timeout) {
  return exec_.wait_idle(timeout);
}

// -- send path --------------------------------------------------------------

void OsNetwork::send(NodeId from, NodeId to, Channel channel,
                     Payload payload) {
  assert(to.value() < nodes_.size());
  const std::size_t size = payload.size();
  const std::uint64_t seq =
      traffic_.messages.fetch_add(1, std::memory_order_relaxed) + 1;
  bump(traffic_.bytes, size);
  if (from.value() < nodes_.size() &&
      nodes_[from.value()]->domain != nodes_[to.value()]->domain) {
    bump(traffic_.wan_messages);
    bump(traffic_.wan_bytes, size);
  }

  NodeRec& dst = *nodes_[to.value()];
  if (dst.local) {
    Message msg;
    msg.src = from;
    msg.dst = to;
    msg.channel = channel;
    msg.payload = std::move(payload);
    msg.sent_at = now();
    msg.seq = seq;
    exec_.deliver(dst.owner, std::move(msg));
    return;
  }

  OutChunk chunk;
  chunk.header = encode_frame_header(
      from, to, static_cast<std::uint32_t>(channel), payload.size());
  chunk.payload = std::move(payload);
  {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    std::shared_ptr<Conn> conn = route_for_locked(to.value());
    if (!conn) {
      bump(os_stats_.dropped_no_route);
      return;
    }
    if (conn->outq_bytes + chunk.total() > config_.max_outbox_bytes) {
      bump(os_stats_.dropped_overflow);
      return;
    }
    conn->outq_bytes += chunk.total();
    conn->outq.push_back(std::move(chunk));
  }
  // A handler the loop runs itself needs no wake: the loop flushes every
  // queue before it sleeps again.  On this network's own workers a task's
  // first frame wakes the loop at once, so the loop writes while the task
  // goes on; its later frames defer their wake to the end of the task, so
  // a fan-out task costs at most two wakes.  Any other thread (a shard
  // pool's worker included) takes the wake flag alone.
  if (tl_loop_of == this) return;
  if (!exec_.on_worker() || tl_task_sends++ == 0) wake();
}

/// Route selection (io_mutex_ held): sticky per node id.  First preference
/// is an already-assigned route (adopted from a handshake or a previous
/// send); otherwise the node's configured address names — or creates — the
/// one connection this process keeps toward that peer.
std::shared_ptr<OsNetwork::Conn> OsNetwork::route_for_locked(
    std::uint32_t dst) {
  const auto it = route_by_node_.find(dst);
  if (it != route_by_node_.end() && it->second->state != Conn::State::closed) {
    return it->second;
  }
  // A closed adopted route with no address cannot come back; forget it so
  // a configured address (if any) can take over.
  if (it != route_by_node_.end() && it->second->addr_key.empty()) {
    route_by_node_.erase(it);
  }
  const std::string& addr = nodes_[dst]->addr_key;
  if (addr.empty()) {
    const auto existing = route_by_node_.find(dst);
    return existing != route_by_node_.end() ? existing->second : nullptr;
  }
  auto route = route_by_addr_.find(addr);
  std::shared_ptr<Conn> conn;
  if (route != route_by_addr_.end()) {
    conn = route->second;
  } else {
    conn = std::make_shared<Conn>();
    conn->addr_key = addr;
    conn->state = Conn::State::closed;  // loop opens it on first flush
    route_by_addr_[addr] = conn;
  }
  route_by_node_[dst] = conn;
  if (conn->state == Conn::State::closed && !conn->reconnect_armed) {
    // Connect-on-first-send: hand the loop an immediately-due "reconnect".
    conn->reconnect_armed = true;
    reconnects_.emplace_back(now(), conn);
  }
  return conn;
}

// -- timers -----------------------------------------------------------------

TimerId OsNetwork::schedule(NodeId node, util::Duration delay,
                            std::function<void()> fn) {
  assert(node.value() < nodes_.size());
  assert(nodes_[node.value()]->local);
  return exec_.schedule(nodes_[node.value()]->owner, delay, std::move(fn));
}

void OsNetwork::cancel(TimerId id) { exec_.cancel(id); }

util::Duration OsNetwork::next_deadline_delay() {
  util::Duration delay = util::seconds(1);  // idle heartbeat
  const std::lock_guard<std::mutex> lock(io_mutex_);
  for (const auto& [at, conn] : reconnects_) {
    delay = std::min(delay, at - now());
  }
  return std::max<util::Duration>(delay, 0);
}

// -- event loop -------------------------------------------------------------

void OsNetwork::loop() {
  tl_loop_of = this;
  std::vector<PollerEvent> events;
  util::TimePoint flush_deadline = 0;
  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping) {
      if (flush_deadline == 0) {
        flush_deadline = now() + config_.stop_flush_timeout;
      }
      bool drained = true;
      {
        const std::lock_guard<std::mutex> lock(io_mutex_);
        for (const auto& [fd, conn] : conns_by_fd_) {
          if (conn->state == Conn::State::open && !conn->outq.empty()) {
            drained = false;
            break;
          }
        }
      }
      if (drained || now() >= flush_deadline) break;
    }

    // Clear the wake flag *before* scanning the queues: a frame queued after
    // the scan finds it clear and writes the pipe, so no wake is lost.
    wake_pending_.store(false, std::memory_order_seq_cst);
    flush_queued();
    // Round up: a sub-millisecond reconnect deadline must sleep one tick,
    // not spin through zero-timeout polls until it is due.
    const int timeout_ms = static_cast<int>(
        (next_deadline_delay() + util::kMillisecond - 1) / util::kMillisecond);
    events.clear();
    poller_->wait(stopping ? 1 : timeout_ms, events);

    for (const PollerEvent& ev : events) {
      if (ev.fd == wake_fds_[0]) {
        char buf[256];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (ev.fd == listen_fd_) {
        accept_ready();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        const std::lock_guard<std::mutex> lock(io_mutex_);
        const auto it = conns_by_fd_.find(ev.fd);
        if (it != conns_by_fd_.end()) conn = it->second;
      }
      if (!conn) continue;
      if (ev.error) {
        close_conn(conn, "socket error");
        continue;
      }
      if (ev.writable) conn_writable(conn);
      if (ev.readable && conn->fd >= 0) conn_readable(conn);
    }

    run_due_reconnects();
  }

  // Teardown: close every socket; queued frames (if any survive the flush
  // window) are dropped with the connections.
  std::vector<std::shared_ptr<Conn>> all;
  {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    for (const auto& [fd, conn] : conns_by_fd_) all.push_back(conn);
  }
  for (const auto& conn : all) close_conn(conn, "shutdown");
  if (listen_fd_ >= 0) {
    poller_->del(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void OsNetwork::queue_hello(Conn& conn) {
  HelloFrame hello;
  hello.version = 1;
  hello.local_nodes = local_node_ids_;
  hello.listen_addr = listen_addr();
  OutChunk chunk;
  util::Bytes body = encode_hello(hello);
  chunk.header =
      encode_frame_header(NodeId{0}, NodeId{0}, kHelloChannel, body.size());
  chunk.payload = Payload(std::move(body));
  conn.outq_bytes += chunk.total();
  conn.outq.push_front(std::move(chunk));
}

void OsNetwork::accept_ready() {
  while (true) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) return;  // EAGAIN or transient error: try again on next tick
    make_nonblocking(fd);
    set_nodelay(fd);
    set_sndbuf(fd, config_.so_sndbuf);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->state = Conn::State::open;
    conn->inbound = true;
    conn->decoder = FrameDecoder(config_.max_frame_payload);
    {
      const std::lock_guard<std::mutex> lock(io_mutex_);
      queue_hello(*conn);
      conns_by_fd_[fd] = conn;
    }
    bump(os_stats_.accepted);
    // The queued hello goes out with the next pass's flush_queued().
    conn->registered = true;
    poller_->add(fd, /*read=*/true, /*write=*/false);
  }
}

void OsNetwork::start_connect(const std::shared_ptr<Conn>& conn) {
  std::string host;
  std::uint16_t port = 0;
  if (!split_addr_key(conn->addr_key, host, port)) {
    bump(os_stats_.connect_failures);
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    arm_reconnect(conn);
    return;
  }
  make_nonblocking(fd);
  set_nodelay(fd);
  set_sndbuf(fd, config_.so_sndbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    bump(os_stats_.connect_failures);
    return;  // hopeless address: no retry
  }
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    bump(os_stats_.connect_failures);
    arm_reconnect(conn);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    conn->fd = fd;
    conn->state = Conn::State::connecting;
    conn->decoder = FrameDecoder(config_.max_frame_payload);
    conn->hello_received = false;
    // Retransmission from the first incompletely-written frame: whatever
    // is still queued goes out again from byte 0 — the torn tail the dead
    // socket may have carried was discarded by the receiver's decoder.
    if (!conn->outq.empty()) conn->outq.front().offset = 0;
    queue_hello(*conn);
    conns_by_fd_[fd] = conn;
  }
  bump(os_stats_.connects);
  if (conn->reconnect_attempts > 0) bump(os_stats_.reconnects);
  // EPOLLOUT reports the connect's outcome; conn_writable() then flushes.
  conn->registered = true;
  conn->want_write = true;
  poller_->add(fd, /*read=*/true, /*write=*/true);
}

void OsNetwork::arm_reconnect(const std::shared_ptr<Conn>& conn) {
  const std::lock_guard<std::mutex> lock(io_mutex_);
  conn->reconnect_attempts++;
  const RetryPolicy& policy = config_.reconnect;
  if (conn->reconnect_attempts >= policy.max_attempts) {
    // Give up this cycle: drop what was queued; a later send() restarts.
    bump(os_stats_.dropped_reconnect_exhausted, conn->outq.size());
    conn->outq.clear();
    conn->outq_bytes = 0;
    conn->reconnect_attempts = 0;
    conn->reconnect_armed = false;
    return;
  }
  const util::Duration delay =
      policy.backoff_after(conn->reconnect_attempts, reconnect_rng_);
  conn->reconnect_armed = true;
  reconnects_.emplace_back(now() + delay, conn);
}

void OsNetwork::run_due_reconnects() {
  std::vector<std::shared_ptr<Conn>> due;
  {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    auto it = reconnects_.begin();
    while (it != reconnects_.end()) {
      if (it->first <= now()) {
        due.push_back(std::move(it->second));
        it = reconnects_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& conn : due) conn->reconnect_armed = false;
  }
  for (const auto& conn : due) {
    if (conn->state == Conn::State::closed) start_connect(conn);
  }
}

void OsNetwork::conn_writable(const std::shared_ptr<Conn>& conn) {
  if (conn->state == Conn::State::connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      bump(os_stats_.connect_failures);
      close_conn(conn, "connect failed");
      return;
    }
    const std::lock_guard<std::mutex> lock(io_mutex_);
    conn->state = Conn::State::open;
    conn->reconnect_attempts = 0;
  }
  flush(conn);
}

void OsNetwork::flush_queued() {
  // Every open connection with queued frames is flushed directly; one whose
  // EPOLLOUT is armed waits for it instead (the kernel pushed back).
  std::vector<std::shared_ptr<Conn>> ready;
  {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    for (const auto& [fd, conn] : conns_by_fd_) {
      if (conn->state == Conn::State::open && !conn->want_write &&
          !conn->outq.empty()) {
        ready.push_back(conn);
      }
    }
  }
  for (const auto& conn : ready) {
    if (conn->fd >= 0) flush(conn);
  }
}

void OsNetwork::flush(const std::shared_ptr<Conn>& conn) {
  // The coalesced flush: gather queued frame headers + refcounted payload
  // bodies into one writev.  Only the loop pops chunks and only senders
  // push them, so deque *references* taken under the lock stay valid while
  // the syscall runs unlocked (push_back never moves existing elements).
  iovec iov[kMaxIov];
  while (true) {
    std::size_t niov = 0;
    std::size_t offered = 0;
    bool capped = false;  // frames left queued behind a full iovec array
    {
      const std::lock_guard<std::mutex> lock(io_mutex_);
      for (auto it = conn->outq.begin(); it != conn->outq.end(); ++it) {
        if (niov + 2 > kMaxIov) {
          capped = true;
          break;
        }
        OutChunk& c = *it;
        std::size_t off = c.offset;
        if (off < kFrameHeaderBytes) {
          iov[niov].iov_base = c.header.data() + off;
          iov[niov].iov_len = kFrameHeaderBytes - off;
          offered += iov[niov].iov_len;
          ++niov;
          off = 0;
        } else {
          off -= kFrameHeaderBytes;
        }
        if (c.payload.size() > off) {
          const util::Bytes& body = c.payload.bytes();
          iov[niov].iov_base =
              const_cast<std::uint8_t*>(body.data()) + off;
          iov[niov].iov_len = body.size() - off;
          offered += iov[niov].iov_len;
          ++niov;
        }
      }
    }
    if (niov == 0) {
      set_write_interest(*conn, false);
      return;
    }
    const ssize_t written =
        ::writev(conn->fd, iov, static_cast<int>(niov));
    bump(os_stats_.writevs);
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        bump(os_stats_.eagain_writes);
        set_write_interest(*conn, true);  // tail stays queued
        return;
      }
      close_conn(conn, "write failed");
      return;
    }
    bump(os_stats_.bytes_out, static_cast<std::uint64_t>(written));
    const bool short_write = static_cast<std::size_t>(written) < offered;
    if (short_write) bump(os_stats_.partial_writes);
    std::uint64_t frames_done = 0;
    {
      const std::lock_guard<std::mutex> lock(io_mutex_);
      // Re-queue the unsent tail byte-exactly: advance offsets, pop only
      // fully-written frames.  Order is untouched — FIFO survives any
      // short write.
      std::size_t remaining = static_cast<std::size_t>(written);
      while (remaining > 0) {
        OutChunk& front = conn->outq.front();
        const std::size_t left = front.total() - front.offset;
        const std::size_t used = std::min(left, remaining);
        front.offset += used;
        remaining -= used;
        if (front.offset == front.total()) {
          conn->outq_bytes -= front.total();
          ++frames_done;
          conn->outq.pop_front();
        }
      }
    }
    bump(os_stats_.frames_out, frames_done);
    // A short write means the kernel pushed back: wait for EPOLLOUT.  A full
    // one is done unless the iovec cap left frames behind; frames queued
    // since the scan bring their own wake for the loop's next pass.
    if (short_write || !capped) {
      set_write_interest(*conn, short_write);
      return;
    }
  }
}

void OsNetwork::set_write_interest(Conn& conn, bool want) {
  if (!conn.registered || conn.want_write == want) return;
  conn.want_write = want;
  poller_->mod(conn.fd, /*read=*/true, /*write=*/want);
}

void OsNetwork::conn_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      close_conn(conn, "peer closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(conn, "read failed");
      return;
    }
    bump(os_stats_.bytes_in, static_cast<std::uint64_t>(n));
    std::vector<Frame> frames;
    const util::Status st =
        conn->decoder.feed(buf, static_cast<std::size_t>(n), frames);
    if (!st.ok()) {
      bump(os_stats_.protocol_errors);
      DISCOVER_LOG(warn, "osnet") << "framing error: " << st.error().message;
      close_conn(conn, "protocol error");
      return;
    }
    for (Frame& f : frames) handle_frame(conn, std::move(f));
    if (conn->fd < 0) return;  // a frame-level error closed it
  }
}

void OsNetwork::handle_frame(const std::shared_ptr<Conn>& conn,
                             Frame&& frame) {
  if (frame.is_hello()) {
    auto hello = decode_hello(frame.payload);
    if (!hello.ok()) {
      bump(os_stats_.protocol_errors);
      close_conn(conn, "bad hello");
      return;
    }
    conn->hello_received = true;
    adopt_routes(conn, hello.value());
    return;
  }
  if (!conn->hello_received) {
    bump(os_stats_.protocol_errors);
    close_conn(conn, "data before hello");
    return;
  }
  const std::uint32_t dst = frame.dst.value();
  const std::uint32_t src = frame.src.value();
  if (dst >= nodes_.size() || src >= nodes_.size() || !nodes_[dst]->local ||
      frame.channel_raw > static_cast<std::uint32_t>(Channel::giop)) {
    bump(os_stats_.dropped_no_route);
    return;
  }
  Message msg;
  msg.src = frame.src;
  msg.dst = frame.dst;
  msg.channel = frame.channel();
  msg.payload = Payload(std::move(frame.payload));
  msg.sent_at = now();  // receiver clock; processes share no epoch
  msg.seq = recv_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  bump(os_stats_.frames_in);
  // An idle node's handler runs here, on the loop; a busy node's frame
  // waits in its FIFO behind the timer, task or frame it is running.
  exec_.run_or_deliver(nodes_[dst]->owner, std::move(msg));
}

void OsNetwork::adopt_routes(const std::shared_ptr<Conn>& conn,
                             const HelloFrame& hello) {
  const std::lock_guard<std::mutex> lock(io_mutex_);
  // Keep one socket per peer pair: if the peer advertised its acceptor and
  // we have no route there yet, this connection becomes THE route.
  if (!hello.listen_addr.empty() && conn->addr_key.empty() &&
      route_by_addr_.find(hello.listen_addr) == route_by_addr_.end()) {
    conn->addr_key = hello.listen_addr;
    route_by_addr_[hello.listen_addr] = conn;
  }
  for (const std::uint32_t id : hello.local_nodes) {
    if (id >= nodes_.size() || nodes_[id]->local) continue;
    const auto it = route_by_node_.find(id);
    if (it == route_by_node_.end() ||
        it->second->state == Conn::State::closed) {
      route_by_node_[id] = conn;
    }
  }
}

void OsNetwork::close_conn(const std::shared_ptr<Conn>& conn,
                           const char* why) {
  if (conn->fd < 0) return;
  DISCOVER_LOG(debug, "osnet")
      << "close " << (conn->addr_key.empty() ? "<inbound>" : conn->addr_key)
      << ": " << why;
  if (conn->registered) poller_->del(conn->fd);
  ::close(conn->fd);
  bool retry = false;
  {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    conns_by_fd_.erase(conn->fd);
    conn->fd = -1;
    conn->state = Conn::State::closed;
    conn->registered = false;
    conn->want_write = false;
    conn->hello_received = false;
    // A partially-written frame restarts from byte 0 on the next socket.
    if (!conn->outq.empty()) conn->outq.front().offset = 0;
    // Drop any queued hello: the reconnect path queues a fresh one.
    while (!conn->outq.empty() &&
           conn->outq.front().header[16] == 0xFF &&
           conn->outq.front().header[17] == 0xFF) {
      conn->outq_bytes -= conn->outq.front().total();
      conn->outq.pop_front();
    }
    retry = !conn->addr_key.empty() && !conn->outq.empty() &&
            !conn->reconnect_armed &&
            !stopping_.load(std::memory_order_acquire);
  }
  if (retry) arm_reconnect(conn);
}

// -- accounting -------------------------------------------------------------

TrafficStats OsNetwork::traffic() const {
  TrafficStats t;
  t.messages = value_of(traffic_.messages);
  t.bytes = value_of(traffic_.bytes);
  t.wan_messages = value_of(traffic_.wan_messages);
  t.wan_bytes = value_of(traffic_.wan_bytes);
  return t;
}

void OsNetwork::reset_traffic() {
  for (auto* counter : {&traffic_.messages, &traffic_.bytes,
                        &traffic_.wan_messages, &traffic_.wan_bytes}) {
    counter->store(0, std::memory_order_relaxed);
  }
}

OsNetworkStats OsNetwork::os_stats() const {
  const AtomicOsStats& a = os_stats_;
  OsNetworkStats s;
  s.accepted = value_of(a.accepted);
  s.connects = value_of(a.connects);
  s.reconnects = value_of(a.reconnects);
  s.connect_failures = value_of(a.connect_failures);
  s.frames_in = value_of(a.frames_in);
  s.frames_out = value_of(a.frames_out);
  s.bytes_in = value_of(a.bytes_in);
  s.bytes_out = value_of(a.bytes_out);
  s.partial_writes = value_of(a.partial_writes);
  s.eagain_writes = value_of(a.eagain_writes);
  s.wakes = value_of(a.wakes);
  s.writevs = value_of(a.writevs);
  s.dropped_no_route = value_of(a.dropped_no_route);
  s.dropped_overflow = value_of(a.dropped_overflow);
  s.dropped_reconnect_exhausted = value_of(a.dropped_reconnect_exhausted);
  s.protocol_errors = value_of(a.protocol_errors);
  return s;
}

std::size_t OsNetwork::open_connections() const {
  const std::lock_guard<std::mutex> lock(io_mutex_);
  std::size_t n = 0;
  for (const auto& [fd, conn] : conns_by_fd_) {
    if (conn->state == Conn::State::open) ++n;
  }
  return n;
}

const std::string& OsNetwork::node_name(NodeId id) const {
  return nodes_.at(id.value())->name;
}

DomainId OsNetwork::node_domain(NodeId id) const {
  return nodes_.at(id.value())->domain;
}

}  // namespace discover::net
