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
// Scheduler hooks (all for the sharded engine's ward-scale scheduler):
//
//  * Evicted data items are logged, not silently destroyed — the consumer
//    drains them with take_evicted() so per-patient task accounting (the
//    steal-fence cutoff) stays exact even under drop-oldest.
//  * set_forced_drop(true) makes push() behave as kDropOldest regardless of
//    the constructed policy — the deadline controller's load-shedding lever
//    — with those evictions counted separately in forced_dropped().
//  * extract_matching() atomically removes every queued entry matching a
//    predicate (preserving their relative order) so a migration can move a
//    patient's backlog wholesale to another shard; reinsert_front() puts an
//    extraction back when the migration has to be retried, and
//    push_control_behind_data() requeues the retried token behind one data
//    item so it can never starve a capacity-blocked producer.
#pragma once

#include <chrono>
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
      if (policy_ == BackpressurePolicy::kBlock && !forced_drop_) {
        space_cv_.wait(lock,
                       [this] { return data_count_ < capacity_ || closed_ || forced_drop_; });
      }
      if (closed_) return false;
      if (data_count_ >= capacity_) {
        // kDropOldest (or forced shedding): evict the oldest data entry
        // (control entries are never evicted and never count toward
        // capacity). The victim is logged for take_evicted(), so consumers
        // tracking per-patient task counts see every eviction.
        for (auto it = items_.begin(); it != items_.end(); ++it) {
          if (!it->control) {
            evicted_.push_back(std::move(it->item));
            items_.erase(it);
            --data_count_;
            ++dropped_;
            if (forced_drop_) ++forced_dropped_;
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

  /// Enqueue a control item at the FRONT of the queue: the consumer sees it
  /// before any queued work. For control messages whose ordering relative to
  /// data is accounted for out of band (migration tokens: the hand-off
  /// protocol extracts the patient's queued chunks wherever they sit, so the
  /// token jumping the backlog is what makes stealing drain a hot shard
  /// promptly instead of after it). Never use for fences — a fence means
  /// "everything pushed before me" and must stay FIFO. Returns false only if
  /// the queue is closed.
  bool push_control_front(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_front(Entry{std::move(item), true});
    }
    pop_cv_.notify_one();
    return true;
  }

  /// Enqueue a control item just BEHIND the first queued data item (at the
  /// very front when no data is queued). This is the migration retry slot:
  /// a token whose cutoff check failed because a producer's push is still
  /// in flight must stay near the head (the hand-off should complete
  /// promptly) but must NOT monopolise it — if that producer is blocked on
  /// a full kBlock queue, a head-inserted token would be re-popped forever
  /// while the data slot the push is waiting for never frees. Landing
  /// behind one data item guarantees the consumer drains a slot between
  /// retries, so a capacity-blocked producer always makes progress.
  /// Returns false only if the queue is closed.
  bool push_control_behind_data(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      auto it = items_.begin();
      while (it != items_.end() && it->control) ++it;
      // Just behind the first data entry; at the very front when only
      // control entries are queued (no data slot to yield, so promptness
      // wins — exactly push_control_front's semantics).
      items_.insert(it == items_.end() ? items_.begin() : std::next(it),
                    Entry{std::move(item), true});
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

  /// Like wait_pop, but gives up after `timeout`. Returns the next item when
  /// one arrives in time; otherwise nullopt, with `timed_out` distinguishing
  /// a timeout (queue still live — the caller may do idle work such as a
  /// steal attempt and pop again) from closed-and-drained (the caller should
  /// exit, exactly like wait_pop returning nullopt).
  std::optional<T> wait_pop_for(std::chrono::milliseconds timeout, bool& timed_out) {
    timed_out = false;
    std::optional<T> item;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!pop_cv_.wait_for(lock, timeout, [this] { return !items_.empty() || closed_; })) {
        timed_out = true;
        return std::nullopt;
      }
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

  /// Deadline-mode load shedding: while set, push() sheds like kDropOldest
  /// regardless of the constructed policy (blocked producers are released).
  /// Clearing it restores the constructed behaviour.
  void set_forced_drop(bool forced) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      forced_drop_ = forced;
    }
    space_cv_.notify_all();
  }

  /// Drain the log of evicted data items (in eviction order). The consumer
  /// calls this each loop iteration to settle per-patient task accounting.
  std::vector<T> take_evicted() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(evicted_, {});
  }

  /// An extracted entry: the item plus whether it was queued as control.
  struct Extracted {
    T item;
    bool control = false;
  };

  /// Atomically remove every queued entry whose item matches `pred`,
  /// appending them to `out` in queue order. Returns how many were removed.
  /// The single consumer uses this to lift one patient's backlog out of its
  /// queue for migration; per-patient FIFO order is preserved end to end.
  template <typename Pred>
  std::size_t extract_matching(Pred&& pred, std::vector<Extracted>& out) {
    std::size_t extracted = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = items_.begin(); it != items_.end();) {
        if (pred(static_cast<const T&>(it->item))) {
          if (!it->control) --data_count_;
          out.push_back(Extracted{std::move(it->item), it->control});
          it = items_.erase(it);
          ++extracted;
        } else {
          ++it;
        }
      }
    }
    if (extracted > 0) space_cv_.notify_all();
    return extracted;
  }

  /// Put an extraction back at the FRONT of the queue, preserving its
  /// order (used when a migration attempt must be retried). Front insertion
  /// keeps the extracted entries ahead of everything queued since — their
  /// per-patient order is what matters, and they were the oldest entries.
  void reinsert_front(std::vector<Extracted>&& entries) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (!it->control) ++data_count_;
        items_.push_front(Entry{std::move(it->item), it->control});
      }
    }
    pop_cv_.notify_one();
  }

  /// Data items evicted by kDropOldest since construction.
  std::size_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Subset of dropped() evicted while forced shedding was active.
  std::size_t forced_dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return forced_dropped_;
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
  /// every mark); close(), set_forced_drop() and extract_matching() still
  /// wake unconditionally.
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
  std::size_t forced_dropped_ = 0;
  bool closed_ = false;
  bool forced_drop_ = false;  ///< Deadline-mode shedding override.
};

}  // namespace svt::rt
