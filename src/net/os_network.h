// Real OS-socket transport: the net::Network contract over TCP.
//
// Sim and Thread backends move bytes in-process; this backend puts them on
// the wire, which is what "global access" in the paper actually requires.
// Shape (after RethinkDB's conn_acceptor / event-queue split):
//
//  * one nonblocking event-loop thread — epoll on Linux, poll(2) fallback —
//    owns the listening acceptor and every connection's reads/writes;
//  * every *local* node is an owner of one net::Executor, exactly like
//    ThreadNetwork, with its own worker.  A decoded frame whose node is
//    idle (nothing queued, none of its work running) runs on the loop
//    itself (Executor::run_or_deliver); timer callbacks, posted tasks,
//    local deliveries and frames that find the node busy run on its
//    worker, in FIFO order.  One thread at a time is inside a node either
//    way, and a compute step (a timer callback) never stalls the loop.
//    Timers never touch the loop;
//  * one TCP connection per peer process carries every channel of every
//    (src, dst) pair as length-prefixed frames (net/frame_codec.h), FIFO;
//  * writes are coalesced per burst: send() queues the refcounted
//    net::Payload — encode-once buffers are never copied into the socket
//    layer.  A send on the loop thread needs no wake: the loop flushes
//    every queue before it sleeps again.  Any other send writes the wake
//    pipe only when the atomic wake flag was clear; the loop clears that
//    flag before it scans the queues, so a frame queued after the scan
//    always wakes it.  On one of this network's own workers only a task's
//    first send wakes the loop at once; the task's later sends defer
//    their wake to the end of the task.  A frame sent from a task is on
//    its way to the wire no later than the end of that task, and a fan-out
//    task costs at most two wakes.  Tasks on any other executor (a sharded
//    server's shard pool) take the flag alone: one wake per loop pass, as
//    for sends from any other thread.  Each loop pass flushes every open
//    connection with queued frames directly, in one writev() of up to
//    IOV_MAX iovecs; EPOLLOUT is armed only while a connect is in flight
//    or the kernel pushes back (EAGAIN / a short write), and the unsent
//    tail simply stays queued.
//
// Node ids are a *global* space coordinated by construction order: every
// process creates the same topology, calling add_node() for the nodes it
// hosts and add_remote() for everyone else, in the same order (the role the
// server's well-known IP plays in the paper).  A connection handshake
// additionally advertises the sender's local nodes, so replies can flow
// back over an inbound connection even to a peer that never listened.
//
// Delivery semantics match the Network contract: reliable FIFO per
// (src, dst, channel) while a connection lives; frames queued across a
// connection loss are retransmitted from the first incompletely-written
// frame after reconnect (no duplication, no reordering — the receiver
// discards a torn frame tail with the dead connection).  Frames lost in
// flight are gone, exactly like a real WAN: end-to-end reliability stays
// with the retry layers above (net/retry.h).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/executor.h"
#include "net/frame_codec.h"
#include "net/network.h"
#include "net/retry.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"

namespace discover::net {

struct OsNetworkConfig {
  std::string listen_host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with listen_port().
  std::uint16_t listen_port = 0;
  /// A pure-client process (all sends flow over its outbound connections)
  /// may turn the acceptor off entirely.
  bool listen = true;
  /// false forces the portable poll(2) event loop even where epoll exists.
  bool use_epoll = true;
  std::size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Per-connection cap on queued-but-unsent bytes; sends beyond it are
  /// dropped and counted (slow peer = bounded memory, like the outboxes).
  std::size_t max_outbox_bytes = 256u << 20;
  /// Reconnect schedule after a connection to a configured address fails.
  /// Attempts reset on success; when exhausted the queued frames are
  /// dropped (counted) and the next send() starts a fresh cycle.
  RetryPolicy reconnect{/*max_attempts=*/8,
                        /*initial_backoff=*/util::milliseconds(20),
                        /*multiplier=*/2.0,
                        /*max_backoff=*/util::seconds(2),
                        /*jitter=*/0.0};
  /// stop() flushes queued writes for at most this long before closing.
  util::Duration stop_flush_timeout = util::seconds(2);
  /// When nonzero, shrinks SO_SNDBUF on every connection.  Tests use a tiny
  /// value to force EAGAIN / short writev deterministically and pin the
  /// re-queue-the-tail path; production leaves the kernel default.
  int so_sndbuf = 0;
};

/// Transport-level counters (send-side TrafficStats stay in traffic()).
struct OsNetworkStats {
  std::uint64_t accepted = 0;
  std::uint64_t connects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t partial_writes = 0;   // writev consumed less than offered
  std::uint64_t eagain_writes = 0;    // writev said try again later
  std::uint64_t wakes = 0;            // wake-pipe writes
  std::uint64_t writevs = 0;          // writev calls (frames_out / writevs
                                      // = frames per writev)
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t dropped_reconnect_exhausted = 0;
  std::uint64_t protocol_errors = 0;
};

class OsNetwork final : public Network {
 public:
  explicit OsNetwork(OsNetworkConfig config = {});
  ~OsNetwork() override;

  OsNetwork(const OsNetwork&) = delete;
  OsNetwork& operator=(const OsNetwork&) = delete;

  /// Registers a node hosted by THIS process.  All nodes (local and
  /// remote) must be added before start(), in the same order everywhere.
  NodeId add_node(std::string name, MessageHandler* handler,
                  DomainId domain = DomainId{0}) override;

  /// Registers a node hosted by another process reachable at host:port.
  /// Connect happens lazily on first send toward that address.
  NodeId add_remote(std::string name, std::string host, std::uint16_t port,
                    DomainId domain = DomainId{0});

  /// Binds the acceptor (typed Errc::unavailable when the port is taken),
  /// then spawns the event loop and the per-local-node workers.
  [[nodiscard]] util::Status start();
  /// Orderly teardown: drains queued writes (bounded by
  /// stop_flush_timeout), closes every socket, joins all threads, drops
  /// queued inbox work.  Idempotent; a stopped network does not restart.
  void stop();

  /// Bound acceptor port (valid after start(); 0 when listen=false).
  [[nodiscard]] std::uint16_t listen_port() const { return bound_port_; }
  [[nodiscard]] std::string listen_addr() const;

  void send(NodeId from, NodeId to, Channel channel,
            Payload payload) override;
  TimerId schedule(NodeId node, util::Duration delay,
                   std::function<void()> fn) override;
  void cancel(TimerId id) override;
  [[nodiscard]] util::TimePoint now() const override {
    return exec_.clock().now();
  }
  [[nodiscard]] const util::Clock& clock() const override {
    return exec_.clock();
  }
  [[nodiscard]] TrafficStats traffic() const override;
  void reset_traffic() override;
  [[nodiscard]] const std::string& node_name(NodeId id) const override;
  [[nodiscard]] DomainId node_domain(NodeId id) const override;
  /// Every local node has its own worker thread; sharded nodes are fine.
  [[nodiscard]] bool supports_sharding() const override { return true; }

  /// Blocks until no *local* task is queued or executing (in-flight TCP
  /// bytes don't count — the wire has no global idle), or until timeout.
  bool wait_idle(util::Duration timeout);

  [[nodiscard]] OsNetworkStats os_stats() const;
  /// Timers scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending_timer_count() const {
    return exec_.pending_timer_count();
  }
  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct NodeRec {
    std::string name;
    DomainId domain{0};
    bool local = false;
    std::size_t owner = 0;  // executor owner (local nodes only)
    std::string addr_key;   // "host:port" for remote nodes
  };

  /// One queued frame: fixed header + refcounted payload, scatter-gathered
  /// by writev.  `offset` counts bytes of (header + payload) already on the
  /// wire; a chunk is popped only once offset == total(), so the unsent
  /// tail after EAGAIN / a short write is simply what remains queued.
  struct OutChunk {
    std::array<std::uint8_t, kFrameHeaderBytes> header;
    Payload payload;
    std::size_t offset = 0;
    [[nodiscard]] std::size_t total() const {
      return kFrameHeaderBytes + payload.size();
    }
  };

  struct Conn {
    int fd = -1;
    enum class State { connecting, open, closed } state = State::closed;
    bool inbound = false;
    bool hello_received = false;
    std::string addr_key;  // reconnectable address; may be empty (inbound)
    FrameDecoder decoder;
    std::deque<OutChunk> outq;
    std::size_t outq_bytes = 0;
    bool registered = false;   // known to the poller
    bool want_write = false;   // EPOLLOUT armed (loop thread only)
    std::uint32_t reconnect_attempts = 0;
    bool reconnect_armed = false;
  };

  class Poller;
  class EpollPoller;
  class PollFdPoller;

  // Lock-free mirrors of OsNetworkStats and TrafficStats: relaxed atomics,
  // so counting never takes a lock; os_stats() and traffic() copy them out.
  struct AtomicOsStats {
    std::atomic<std::uint64_t> accepted{0}, connects{0}, reconnects{0},
        connect_failures{0}, frames_in{0}, frames_out{0}, bytes_in{0},
        bytes_out{0}, partial_writes{0}, eagain_writes{0}, wakes{0},
        writevs{0}, dropped_no_route{0}, dropped_overflow{0},
        dropped_reconnect_exhausted{0}, protocol_errors{0};
  };
  struct AtomicTraffic {
    std::atomic<std::uint64_t> messages{0}, bytes{0}, wan_messages{0},
        wan_bytes{0};
  };

  void loop();
  /// Wakes the loop unless a wake is already pending since its last scan.
  void wake();
  void write_wake_byte();

  // Event-loop internals (called only from loop()):
  void accept_ready();
  void conn_readable(const std::shared_ptr<Conn>& conn);
  void conn_writable(const std::shared_ptr<Conn>& conn);
  void flush_queued();
  void flush(const std::shared_ptr<Conn>& conn);
  void set_write_interest(Conn& conn, bool want);
  void close_conn(const std::shared_ptr<Conn>& conn, const char* why);
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void adopt_routes(const std::shared_ptr<Conn>& conn,
                    const HelloFrame& hello);
  void start_connect(const std::shared_ptr<Conn>& conn);
  void arm_reconnect(const std::shared_ptr<Conn>& conn);
  void run_due_reconnects();
  [[nodiscard]] util::Duration next_deadline_delay();
  void queue_hello(Conn& conn);

  // Shared helpers (any thread, take io_mutex_):
  std::shared_ptr<Conn> route_for_locked(std::uint32_t dst);

  OsNetworkConfig config_;
  std::vector<std::unique_ptr<NodeRec>> nodes_;
  std::vector<std::uint32_t> local_node_ids_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> wake_pending_{false};
  std::unique_ptr<Poller> poller_;
  std::thread loop_thread_;

  mutable std::mutex io_mutex_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_by_fd_;
  std::map<std::string, std::shared_ptr<Conn>> route_by_addr_;
  std::unordered_map<std::uint32_t, std::shared_ptr<Conn>> route_by_node_;
  // (deadline, conn) pairs the loop retries when due.
  std::vector<std::pair<util::TimePoint, std::shared_ptr<Conn>>> reconnects_;
  util::Rng reconnect_rng_{0x05ce7ULL};

  std::atomic<std::uint64_t> recv_seq_{0};
  AtomicOsStats os_stats_;
  AtomicTraffic traffic_;

  Executor exec_;
};

}  // namespace discover::net
