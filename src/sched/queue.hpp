// Bounded MPMC queue — the results channel from the parallel explorer's
// replay workers to its committer.
//
// Deliberately simple (one mutex, two condvars): a queue operation costs
// orders of magnitude less than the replay that produced the item, so it is
// nowhere near the hot path. A finite bound gives backpressure (producers
// block while the queue is full); the explorer's results channel is
// unbounded, because the committer may need every earlier result before it
// can commit the next one.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

namespace erpi::sched {

/// What happened to a push(): accepted, or refused because the queue was
/// closed (shutdown). The two used to be conflated in a bool, which made a
/// stop-on-violation cancellation indistinguishable from backpressure for
/// the producer — an enum forces callers to name the shutdown case.
enum class QueuePush { Pushed, Closed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full (backpressure). Returns QueuePush::Closed
  /// — dropping the item — once the queue has been closed, including when the
  /// close() arrives while this push is blocked on a full queue.
  QueuePush push(T item) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return QueuePush::Closed;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return QueuePush::Pushed;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed *and* drained — remaining items are still handed out after
  /// close(), so no work is lost on shutdown.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return std::optional<T>(std::move(item));
  }

  /// Wake every waiter: push becomes a no-op, pop drains what remains.
  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace erpi::sched
