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
// constructed with a capacity (> 0) and a BackpressurePolicy describing what
// push() does when the queue holds `capacity` data items:
//
//  * kBlock      — push() blocks until the worker drains an item (or the
//                  queue is closed, in which case the item is rejected). The
//                  lossless policy: a fast producer is throttled to the
//                  pipeline's real throughput.
//  * kDropOldest — push() evicts the oldest *data* item to make room and
//                  succeeds immediately, incrementing dropped(). The
//                  freshness policy for live monitoring: when the pipeline
//                  falls behind, old telemetry is sacrificed for new.
//
// Control items (push_control: flush fences, eviction requests) are exempt
// from both policies: they are never dropped, never evicted, and do not
// count toward capacity — so a fence can always reach a worker even when
// producers have the queue saturated, and drop-oldest can never discard a
// barrier (which would deadlock the fence protocol).
//
// Evicted data items are logged, not silently destroyed: the consumer
// drains them with take_evicted() — the sharded engine recycles the evicted
// chunks' sample buffers, and the gateway's send queue counts the decision
// windows it shed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace svt::rt {

/// What push() does when a bounded queue is full (see WorkQueue).
enum class BackpressurePolicy {
  kBlock,      ///< Throttle the producer until the worker catches up.
  kDropOldest  ///< Evict the oldest data item; count it in dropped().
};

template <typename T>
class WorkQueue {
 public:
  /// Throws std::invalid_argument on capacity 0: every queue is bounded.
  explicit WorkQueue(std::size_t capacity, BackpressurePolicy policy = BackpressurePolicy::kBlock)
      : capacity_(capacity), policy_(policy) {
    if (capacity_ == 0) throw std::invalid_argument("WorkQueue: capacity must be > 0");
  }

  /// Enqueue a data item, applying the backpressure policy when the queue is
  /// full. Returns true if the item was enqueued, false if it was rejected
  /// (queue closed, including while blocked waiting for space).
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (policy_ == BackpressurePolicy::kBlock)
        space_cv_.wait(lock, [this] { return data_count_ < capacity_ || closed_; });
      if (closed_) return false;
      if (data_count_ >= capacity_) {
        // kDropOldest: evict the oldest data entry (control entries are
        // never evicted and never count toward capacity). The victim is
        // logged for take_evicted(), so the consumer sees every eviction.
        for (auto it = items_.begin(); it != items_.end(); ++it) {
          if (!it->control) {
            evicted_.push_back(std::move(it->item));
            items_.erase(it);
            --data_count_;
            ++dropped_;
            break;
          }
        }
      }
      items_.push_back(Entry{std::move(item), false});
      ++data_count_;
    }
    pop_cv_.notify_one();
    return true;
  }

  /// Enqueue a control item: always accepted while open, never dropped or
  /// evicted, exempt from capacity. Returns false only if the queue is
  /// closed.
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
  /// wait_pop, e.g. the network writer batching queued frames into one send.
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

  /// Drain the log of evicted data items (in eviction order). A consumer of
  /// a kDropOldest queue must call this regularly, or the log grows with
  /// every eviction.
  std::vector<T> take_evicted() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(evicted_, {});
  }

  /// Data items evicted by kDropOldest since construction.
  std::size_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Items currently queued (data + control).
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }
  BackpressurePolicy policy() const { return policy_; }

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
  const BackpressurePolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable pop_cv_;    ///< Signalled when an item arrives / close().
  std::condition_variable space_cv_;  ///< Signalled when a data slot frees / close().
  std::deque<Entry> items_;
  std::vector<T> evicted_;      ///< Evicted data items awaiting take_evicted().
  std::size_t data_count_ = 0;  ///< Non-control entries in items_.
  std::size_t dropped_ = 0;
  bool closed_ = false;
};

}  // namespace svt::rt
