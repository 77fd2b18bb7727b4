#include "net/executor.h"

#include <chrono>
#include <stdexcept>

namespace discover::net {

namespace {
// The executor and owner whose worker the calling thread is (null/0 on
// every other thread), so on_owner() never confuses two executors' owners.
thread_local const Executor* tl_executor = nullptr;
thread_local std::size_t tl_owner = 0;
}  // namespace

Executor::~Executor() { stop(); }

std::size_t Executor::add_owner(MessageHandler* handler) {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) throw std::logic_error("add_owner after start()");
  owners_.push_back(std::make_unique<Owner>());
  owners_.back()->handler = handler;
  return owners_.size() - 1;
}

void Executor::start() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_ || stopped_.load(std::memory_order_acquire)) return;
  started_ = true;
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    owners_[i]->worker = std::thread([this, i] { run_worker(i); });
  }
  timer_thread_ = std::thread([this] { run_timers(); });
}

void Executor::stop() {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    timers_.clear();
    deadline_of_.clear();
  }
  timer_cv_.notify_all();
  for (auto& owner : owners_) {
    // Taking the mutex orders the flag before any waiter's predicate check.
    { const std::lock_guard<std::mutex> lock(owner->mutex); }
    owner->cv.notify_all();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
  for (auto& owner : owners_) {
    if (owner->worker.joinable()) owner->worker.join();
  }
  for (auto& owner : owners_) {
    std::deque<Task> dropped;
    {
      const std::lock_guard<std::mutex> lock(owner->mutex);
      dropped.swap(owner->queue);
    }
    finish(dropped.size());
  }
}

void Executor::enqueue(std::size_t owner, Task task) {
  Owner& o = *owners_[owner];
  bool idle = false;
  {
    const std::lock_guard<std::mutex> lock(o.mutex);
    if (stopped_.load(std::memory_order_acquire)) return;
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    o.queue.push_back(std::move(task));
    idle = !o.busy;
  }
  // A busy owner's runner looks at the queue when it clears the flag.
  if (idle) o.cv.notify_one();
}

void Executor::deliver(std::size_t owner, Message msg) {
  enqueue(owner, Task{std::move(msg), {}});
}

void Executor::post(std::size_t owner, std::function<void()> fn) {
  if (fn) enqueue(owner, Task{{}, std::move(fn)});
}

bool Executor::run_or_deliver(std::size_t owner, Message msg) {
  Owner& o = *owners_[owner];
  {
    // Decide and queue under one acquisition: a loaded owner's worker
    // takes this mutex once per task, and a second acquisition here per
    // message contended with it enough for the worker to fall behind.
    const std::lock_guard<std::mutex> lock(o.mutex);
    if (stopped_.load(std::memory_order_acquire)) return false;
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (o.busy || !o.queue.empty()) {
      // A busy owner's runner looks at the queue when it clears the flag.
      o.queue.push_back(Task{std::move(msg), {}});
      return false;
    }
    o.busy = true;
  }
  if (o.handler != nullptr) o.handler->on_message(msg);
  bool queued = false;
  {
    const std::lock_guard<std::mutex> lock(o.mutex);
    o.busy = false;
    queued = !o.queue.empty();
  }
  if (queued) o.cv.notify_one();
  finish(1);
  return true;
}

void Executor::finish(std::size_t tasks) {
  if (tasks == 0) return;
  if (inflight_.fetch_sub(tasks, std::memory_order_acq_rel) == tasks) {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

bool Executor::wait_idle(util::Duration timeout) {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  return idle_cv_.wait_for(lock, std::chrono::nanoseconds(timeout), [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

bool Executor::on_owner(std::size_t owner) const {
  return tl_executor == this && tl_owner == owner;
}

bool Executor::on_worker() const { return tl_executor == this; }

void Executor::set_after_task(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) throw std::logic_error("set_after_task after start()");
  after_task_ = std::move(hook);
}

void Executor::run_worker(std::size_t index) {
  tl_executor = this;
  tl_owner = index;
  Owner& o = *owners_[index];
  std::unique_lock<std::mutex> lock(o.mutex);
  while (true) {
    // Queued work waits while run_or_deliver() has the owner on another
    // thread.
    o.cv.wait(lock, [&] {
      return (!o.queue.empty() && !o.busy) ||
             stopped_.load(std::memory_order_acquire);
    });
    // stop() drops whatever is still queued once the workers are joined.
    if (stopped_.load(std::memory_order_acquire)) break;
    {
      Task task = std::move(o.queue.front());
      o.queue.pop_front();
      o.busy = true;
      lock.unlock();
      if (task.fn) {
        task.fn();
      } else if (o.handler != nullptr) {
        o.handler->on_message(task.msg);
      }
    }
    if (after_task_) after_task_();
    lock.lock();
    o.busy = false;
    finish(1);
  }
  tl_executor = nullptr;
}

TimerId Executor::schedule(std::size_t owner, util::Duration delay,
                           std::function<void()> fn) {
  const std::uint64_t id = next_timer_.fetch_add(1, std::memory_order_relaxed);
  if (delay <= 0) {
    post(owner, std::move(fn));
    return TimerId{id};
  }
  const TimerKey key{clock_.now() + delay, id};
  bool new_head = false;
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    if (stopped_.load(std::memory_order_acquire)) return TimerId{id};
    new_head = timers_.empty() || key < timers_.begin()->first;
    timers_.emplace(key, Timer{owner, std::move(fn)});
    deadline_of_.emplace(id, key.first);
  }
  // Only an earlier head changes how long the timer thread must sleep.
  if (new_head) timer_cv_.notify_one();
  return TimerId{id};
}

void Executor::cancel(TimerId id) {
  const std::lock_guard<std::mutex> lock(timer_mutex_);
  const auto it = deadline_of_.find(id.value());
  if (it == deadline_of_.end()) return;
  timers_.erase(TimerKey{it->second, it->first});
  deadline_of_.erase(it);
}

std::size_t Executor::pending_timer_count() const {
  const std::lock_guard<std::mutex> lock(timer_mutex_);
  return timers_.size();
}

void Executor::run_timers() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!stopped_.load(std::memory_order_acquire)) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto head = timers_.begin();
    const util::Duration wait = head->first.first - clock_.now();
    if (wait > 0) {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds(wait));
      continue;
    }
    Timer due = std::move(head->second);
    deadline_of_.erase(head->first.second);
    timers_.erase(head);
    lock.unlock();
    post(due.owner, std::move(due.fn));
    lock.lock();
  }
}

}  // namespace discover::net
