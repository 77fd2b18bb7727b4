// The one execution context under every real-time backend (DESIGN.md §5i,
// §5k).
//
// An executor runs a fixed set of *owners* — ThreadNetwork's nodes,
// OsNetwork's local nodes, a sharded server's cores.  Each owner has a FIFO
// queue drained by its own worker thread.  A queue element is either a
// Message for the owner's MessageHandler or a task, so delivering a message
// costs no per-message std::function.  run_or_deliver() lets another
// thread (an event loop that just decoded a frame) run a message itself
// when the owner is idle: nothing queued and nothing running.  A per-owner
// busy flag, set
// under the owner's mutex by whichever thread runs the owner's work, keeps
// one thread at a time inside an owner and its work in FIFO order, so owner
// state needs no locking (the actor model of net/network.h).  Timers live in
// one ordered (deadline, id) map served by one timer thread; a due timer
// becomes a task on its owner's queue.  cancel() erases the entry, so a
// cancelled timer leaves nothing behind and never wakes a worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "util/clock.h"

namespace discover::net {

class Executor {
 public:
  Executor() = default;
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Adds an owner whose messages go to `handler` (null: tasks only) and
  /// returns its index.  Owners must be added before start().
  std::size_t add_owner(MessageHandler* handler = nullptr);

  /// Spawns one worker per owner plus the timer thread.  Work queued before
  /// start() waits for it.  Idempotent; an executor runs at most once.
  void start();
  /// The running tasks finish; queued tasks, pending timers and every later
  /// post are dropped.  Joins all threads.  Idempotent.
  void stop();

  /// Queues `msg` for `owner`'s handler, FIFO with post().
  void deliver(std::size_t owner, Message msg);
  /// Runs `msg` through `owner`'s handler on the calling thread if the owner
  /// is idle — nothing queued, none of its work running — and returns true
  /// once it has run.  Otherwise queues it as deliver() does and returns
  /// false.  Work queued while the message runs waits for it.  No
  /// after-task hook runs, and on_owner() stays false: the calling thread
  /// is no worker.
  bool run_or_deliver(std::size_t owner, Message msg);
  /// Queues `fn` on `owner`'s FIFO.  Safe from any thread.
  void post(std::size_t owner, std::function<void()> fn);
  /// Posts `fn` to `owner` once `delay` has passed on clock(); a delay <= 0
  /// posts at once.
  TimerId schedule(std::size_t owner, util::Duration delay,
                   std::function<void()> fn);
  /// Erases a pending timer.  A timer already due (posted) is unaffected.
  void cancel(TimerId id);
  [[nodiscard]] std::size_t pending_timer_count() const;

  /// Blocks until no task is queued or running (pending timers do not
  /// count), or until `timeout` elapses.  True when idle was reached.
  bool wait_idle(util::Duration timeout);

  /// True when the calling thread is THIS executor's worker for `owner`.
  [[nodiscard]] bool on_owner(std::size_t owner) const;
  /// True when the calling thread is any of THIS executor's workers.
  [[nodiscard]] bool on_worker() const;

  /// Runs `hook` on the worker after every task or message the worker
  /// runs, before it counts as finished, so wait_idle() covers what the
  /// hook does.  Set before start().
  void set_after_task(std::function<void()> hook);

  [[nodiscard]] const util::Clock& clock() const { return clock_; }

 private:
  struct Task {
    Message msg;
    std::function<void()> fn;  // non-null => task, else msg for the handler
  };

  struct Owner {
    MessageHandler* handler = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool busy = false;  // a thread runs the owner's work (under mutex)
    std::thread worker;
  };

  struct Timer {
    std::size_t owner = 0;
    std::function<void()> fn;
  };
  using TimerKey = std::pair<util::TimePoint, std::uint64_t>;

  void enqueue(std::size_t owner, Task task);
  void finish(std::size_t tasks);
  void run_worker(std::size_t index);
  void run_timers();

  util::SystemClock clock_;
  std::vector<std::unique_ptr<Owner>> owners_;
  std::function<void()> after_task_;

  std::mutex lifecycle_mutex_;
  bool started_ = false;
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> inflight_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  mutable std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::map<TimerKey, Timer> timers_;
  std::unordered_map<std::uint64_t, util::TimePoint> deadline_of_;
  std::atomic<std::uint64_t> next_timer_{1};
  std::thread timer_thread_;
};

}  // namespace discover::net
