// Bounded multi-producer FIFO feeding the per-shard worker threads.
//
// Multiple producers (any thread calling push_samples / flush) enqueue; the
// single shard worker blocks in wait_pop. close() drains gracefully: the
// worker keeps popping until the queue is empty, then wait_pop returns
// nullopt and the worker exits.
//
// Capacity and backpressure: an unbounded queue would let a producer that
// outruns extraction buffer raw ECG without limit — the pipeline OOMs
// instead of pushing back. A WorkQueue is therefore always bounded: it is
// constructed with a capacity (> 0), and push() blocks while the queue
// holds `capacity` data items, until the worker drains one (or the queue is
// closed, in which case the item is rejected). A fast producer is throttled
// to the pipeline's real throughput and nothing pushed is ever lost.
//
// Control items (push_control: flush fences, evictions, stream ends) do not
// count toward capacity and never wait, so a fence can always reach a
// worker even when producers have the queue saturated.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

namespace svt::rt {

template <typename T>
class WorkQueue {
 public:
  /// Throws std::invalid_argument on capacity 0: every queue is bounded.
  explicit WorkQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw std::invalid_argument("WorkQueue: capacity must be > 0");
  }

  /// Enqueue a data item, blocking while the queue is full. Returns true if
  /// the item was enqueued, false if it was rejected (queue closed,
  /// including while blocked waiting for space).
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_cv_.wait(lock, [this] { return data_count_ < capacity_ || closed_; });
      if (closed_) return false;
      items_.push_back(Entry{std::move(item), false});
      ++data_count_;
    }
    pop_cv_.notify_one();
    return true;
  }

  /// Enqueue a control item: always accepted while open, exempt from
  /// capacity. Returns false only if the queue is closed.
  bool push_control(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(Entry{std::move(item), true});
    }
    pop_cv_.notify_one();
    return true;
  }

  /// Block until an item is available (returns it) or the queue is closed
  /// and drained (returns nullopt).
  std::optional<T> wait_pop() {
    std::optional<T> item;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      pop_cv_.wait(lock, [this] { return !items_.empty() || closed_; });
      if (items_.empty()) return std::nullopt;
      if (!items_.front().control) --data_count_;
      item = std::move(items_.front().item);
      items_.pop_front();
      wake = space_wake_due_locked();
    }
    if (wake) space_cv_.notify_all();
    return item;
  }

  /// Non-blocking pop: the next item if one is queued, nullopt otherwise
  /// (regardless of closed state — a closed queue still drains). Lets a
  /// consumer coalesce everything immediately available after a blocking
  /// wait_pop, e.g. the shard worker gathering one lane round.
  std::optional<T> try_pop() {
    std::optional<T> item;
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      if (!items_.front().control) --data_count_;
      item = std::move(items_.front().item);
      items_.pop_front();
      wake = space_wake_due_locked();
    }
    if (wake) space_cv_.notify_all();
    return item;
  }

  /// Stop accepting items; wake blocked producers (their items are rejected)
  /// and wake the worker once the backlog drains.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    pop_cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Items currently queued (data + control).
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  struct Entry {
    T item;
    bool control = false;
  };

  /// Low-water producer wake (called under mutex_ after a pop). Waking a
  /// capacity-blocked producer on EVERY freed slot ping-pongs two context
  /// switches per chunk: the producer refills the one slot and blocks
  /// again. Waking only once the queue has drained to half capacity lets
  /// each wake buy a capacity/2-chunk push burst. Liveness: the consumer
  /// keeps popping while items remain, so a drain that leaves producers
  /// asleep always continues down to the low-water mark (empty is below
  /// every mark); close() still wakes unconditionally.
  bool space_wake_due_locked() const { return data_count_ <= capacity_ / 2; }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable pop_cv_;    ///< Signalled when an item arrives / close().
  std::condition_variable space_cv_;  ///< Signalled when a data slot frees / close().
  std::deque<Entry> items_;
  std::size_t data_count_ = 0;  ///< Non-control entries in items_.
  bool closed_ = false;
};

}  // namespace svt::rt
