// WorkQueue backpressure: every queue is bounded (capacity 0 is rejected); a
// full queue with a slow consumer must block (kBlock) or drop the oldest data
// item with an accurate count (kDropOldest), control items must bypass both
// policies, and concurrent push + close must never deadlock — blocked
// producers wake and their items are rejected.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rt/work_queue.hpp"

namespace svt::rt {
namespace {

TEST(WorkQueue, ZeroCapacityIsRejected) {
  EXPECT_THROW(WorkQueue<int>(0), std::invalid_argument);
  EXPECT_THROW(WorkQueue<int>(0, BackpressurePolicy::kDropOldest), std::invalid_argument);
}

TEST(WorkQueue, FifoBelowCapacity) {
  WorkQueue<int> queue(100);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(queue.push(i));
  EXPECT_EQ(queue.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(queue.wait_pop(), i);
  EXPECT_EQ(queue.dropped(), 0u);
}

TEST(WorkQueue, BlockPolicyBlocksUntilConsumerDrains) {
  WorkQueue<int> queue(2, BackpressurePolicy::kBlock);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));

  // The third push must block until the consumer pops.
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(3));
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());  // Still blocked on the full queue.

  EXPECT_EQ(queue.wait_pop(), 1);  // Frees a slot; the producer completes.
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.wait_pop(), 2);
  EXPECT_EQ(queue.wait_pop(), 3);
  EXPECT_EQ(queue.dropped(), 0u);  // kBlock never drops.
}

TEST(WorkQueue, DropOldestEvictsWithAccurateCount) {
  WorkQueue<int> queue(2, BackpressurePolicy::kDropOldest);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(queue.push(i));  // Never blocks.
  EXPECT_EQ(queue.dropped(), 3u);                           // 1, 2, 3 evicted.
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.wait_pop(), 4);  // The freshest two survive, in order.
  EXPECT_EQ(queue.wait_pop(), 5);
  // Evictions are logged, in eviction order, until the consumer drains them.
  EXPECT_EQ(queue.take_evicted(), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(queue.take_evicted().empty());
}

TEST(WorkQueue, ControlItemsBypassCapacityAndEviction) {
  WorkQueue<int> queue(1, BackpressurePolicy::kDropOldest);
  EXPECT_TRUE(queue.push(10));
  EXPECT_TRUE(queue.push_control(-1));  // Exempt from capacity: no eviction.
  EXPECT_EQ(queue.dropped(), 0u);
  EXPECT_TRUE(queue.push(11));  // Evicts 10, NOT the control item.
  EXPECT_EQ(queue.dropped(), 1u);
  EXPECT_EQ(queue.wait_pop(), -1);  // FIFO order preserved across kinds.
  EXPECT_EQ(queue.wait_pop(), 11);

  // Control pushes also skip the kBlock wait: on a full blocking queue a
  // control item (a flush fence) must land immediately.
  WorkQueue<int> blocking(1, BackpressurePolicy::kBlock);
  EXPECT_TRUE(blocking.push(20));
  EXPECT_TRUE(blocking.push_control(-2));  // Would deadlock if it blocked.
  EXPECT_EQ(blocking.wait_pop(), 20);
  EXPECT_EQ(blocking.wait_pop(), -2);
}

TEST(WorkQueue, CloseRejectsLatePushesAndDrainsBacklog) {
  WorkQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  queue.close();
  EXPECT_FALSE(queue.push(2));          // Rejected, not silently queued.
  EXPECT_FALSE(queue.push_control(3));  // Control items too.
  EXPECT_EQ(queue.wait_pop(), 1);       // Backlog still drains...
  EXPECT_EQ(queue.wait_pop(), std::nullopt);  // ...then the worker exits.
}

TEST(WorkQueue, CloseWakesBlockedProducersNoDeadlock) {
  // Many producers hammer a tiny blocking queue while a slow consumer takes
  // a few items; then the queue closes mid-stream. Every producer must
  // return (no deadlock) and blocked pushes must report rejection.
  WorkQueue<int> queue(2, BackpressurePolicy::kBlock);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        (queue.push(i) ? accepted : rejected).fetch_add(1);
    });
  }
  int popped = 0;
  for (; popped < 5; ++popped) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(queue.wait_pop().has_value());
  }
  queue.close();  // Producers blocked in push() must wake and bail out.
  for (auto& t : producers) t.join();
  while (queue.wait_pop().has_value()) ++popped;  // Drain the backlog.

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped, accepted.load());  // Accepted exactly = consumable.
  EXPECT_GT(rejected.load(), 0);       // close() really did reject pushes.
}

TEST(WorkQueue, ConcurrentProducersConsumerStress) {
  // Drop-oldest under contention: nothing deadlocks, and every pushed item
  // is either consumed or counted as dropped.
  WorkQueue<int> queue(8, BackpressurePolicy::kDropOldest);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(queue.push(i));
    });
  }
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    while (queue.wait_pop().has_value()) consumed.fetch_add(1);
  });
  for (auto& t : producers) t.join();
  queue.close();
  consumer.join();
  EXPECT_EQ(consumed.load() + static_cast<int>(queue.dropped()),
            kProducers * kPerProducer);
}

}  // namespace
}  // namespace svt::rt
