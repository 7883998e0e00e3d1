// Ward-scale scheduler: placement policies, whole-patient work stealing
// (forced churn and natural steals must be bit-exact against the
// single-threaded oracle), the deadline controller (degrades under
// saturation, untouched otherwise), and the WorkQueue scheduler hooks the
// migration protocol is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/work_queue.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;

/// A skewed ward: one hot patient carries several times the signal of the
/// rest, so static hashing leaves one shard backlogged — the scenario
/// stealing exists for.
std::map<int, ecg::EcgWaveform> make_skewed_ward(int hot_patient) {
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 90;
  for (int pid : {1, 2, 3, 7}) ward[pid] = synth_ecg(40.0, static_cast<std::uint64_t>(seed++));
  ward[hot_patient] = synth_ecg(150.0, static_cast<std::uint64_t>(seed++));
  return ward;
}

std::vector<rt::WindowResult> reference_results(const std::map<int, ecg::EcgWaveform>& ward) {
  rt::StreamClassifier reference(detector(), short_window_config());
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  for (const auto& [pid, wf] : ward) reference.end_stream(pid);
  return reference.flush();
}

// --- Placement policies ------------------------------------------------------

TEST(Placement, FibonacciIsPureAndInRange) {
  for (int pid = -10; pid < 100; ++pid) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      const std::size_t s = rt::fibonacci_shard(pid, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, rt::fibonacci_shard(pid, shards));  // Pure in (id, count).
    }
  }
}

TEST(Placement, LeastLoadedPrefersQueueThenPatientsThenIndex) {
  rt::LeastLoadedPlacement policy;
  {
    const std::vector<rt::ShardLoad> loads = {{5, 1}, {2, 9}, {3, 0}};
    EXPECT_EQ(policy.place(42, loads), 1u);  // Fewest queued wins outright.
  }
  {
    const std::vector<rt::ShardLoad> loads = {{2, 3}, {2, 1}, {2, 2}};
    EXPECT_EQ(policy.place(42, loads), 1u);  // Queue tie: fewest patients.
  }
  {
    const std::vector<rt::ShardLoad> loads = {{2, 1}, {2, 1}, {2, 1}};
    EXPECT_EQ(policy.place(42, loads), 0u);  // Full tie: lowest index.
  }
}

TEST(Placement, EngineConsultsCustomPolicyOncePerPatient) {
  /// Counts placement consultations and pins every patient to shard 1.
  struct PinnedPolicy final : rt::PlacementPolicy {
    std::atomic<int> calls{0};
    std::size_t place(int, std::span<const rt::ShardLoad> shards) override {
      ++calls;
      return shards.size() > 1 ? 1 : 0;
    }
  };
  const auto policy = std::make_shared<PinnedPolicy>();
  Collector collector;
  rt::EngineOptions options = engine_options(2, collector.sink());
  options.placement = policy;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));
  const std::vector<double> chunk(100, 0.0);
  for (int push = 0; push < 5; ++push) engine.push_samples(17, chunk);
  engine.flush();
  EXPECT_EQ(policy->calls.load(), 1) << "placement must be consulted once per patient";
  EXPECT_EQ(engine.shard_of(17), 1u);
}

// --- WorkQueue scheduler hooks ----------------------------------------------

TEST(WorkQueueSchedulerHooks, ExtractMatchingLiftsInOrderAndReinsertRestores) {
  rt::WorkQueue<int> queue(8);
  for (int v : {1, 10, 2, 11, 3, 12}) queue.push(v);
  std::vector<rt::WorkQueue<int>::Extracted> tens;
  EXPECT_EQ(queue.extract_matching([](const int& v) { return v >= 10; }, tens), 3u);
  ASSERT_EQ(tens.size(), 3u);
  EXPECT_EQ(tens[0].item, 10);  // Queue order preserved within the match.
  EXPECT_EQ(tens[1].item, 11);
  EXPECT_EQ(tens[2].item, 12);
  EXPECT_EQ(queue.size(), 3u);

  queue.reinsert_front(std::move(tens));
  std::vector<int> drained;
  while (auto v = queue.try_pop()) drained.push_back(*v);
  EXPECT_EQ(drained, (std::vector<int>{10, 11, 12, 1, 2, 3}));
}

TEST(WorkQueueSchedulerHooks, ControlBehindDataYieldsTheHeadSlot) {
  rt::WorkQueue<int> queue(4);
  ASSERT_TRUE(queue.push_control(100));  // A control entry already at the head.
  queue.push(1);
  queue.push(2);
  // The retried migration token: near the head, but behind one data item so
  // the consumer drains a slot (and a capacity-blocked producer can land)
  // between retries.
  ASSERT_TRUE(queue.push_control_behind_data(200));
  std::vector<int> drained;
  while (auto v = queue.try_pop()) drained.push_back(*v);
  EXPECT_EQ(drained, (std::vector<int>{100, 1, 200, 2}));

  // No data queued: the front is safe (no producer can be capacity-blocked).
  rt::WorkQueue<int> controls_only(4);
  controls_only.push_control(7);
  controls_only.push_control_behind_data(8);
  drained.clear();
  while (auto v = controls_only.try_pop()) drained.push_back(*v);
  EXPECT_EQ(drained, (std::vector<int>{8, 7}));
}

TEST(WorkQueueSchedulerHooks, EvictionsAreLoggedForSettlement) {
  rt::WorkQueue<int> queue(2, rt::BackpressurePolicy::kDropOldest);
  queue.push(1);
  queue.push(2);
  queue.push(3);  // Evicts 1.
  queue.push(4);  // Evicts 2.
  EXPECT_EQ(queue.dropped(), 2u);
  EXPECT_EQ(queue.take_evicted(), (std::vector<int>{1, 2}));
  EXPECT_TRUE(queue.take_evicted().empty());  // Drained.
}

TEST(WorkQueueSchedulerHooks, ForcedDropShedsUnderBlockPolicyAndCounts) {
  rt::WorkQueue<int> queue(1, rt::BackpressurePolicy::kBlock);
  queue.push(1);
  queue.set_forced_drop(true);
  queue.push(2);  // Would block; forced shedding evicts 1 instead.
  EXPECT_EQ(queue.dropped(), 1u);
  EXPECT_EQ(queue.forced_dropped(), 1u);
  EXPECT_EQ(queue.take_evicted(), (std::vector<int>{1}));
  queue.set_forced_drop(false);
  auto v = queue.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2);
}

// --- Work stealing / migration ----------------------------------------------

// Forced migration churn: the hot patient is re-homed onto every shard in
// turn while its stream is mid-flight. Per-patient decisions must stay
// bit-identical to the single-threaded oracle at any worker count — a
// migration moves the patient's exact filter/ring/threshold state and its
// queued backlog wholesale, so WHERE a window is computed can never change
// WHAT it computes.
TEST(WardScheduler, ForcedMigrationChurnIsBitExact) {
  const int hot = 3;
  const auto ward = make_skewed_ward(hot);
  const auto want = reference_results(ward);
  ASSERT_FALSE(want.empty());

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Collector collector;
    rt::ShardedStreamClassifier engine(detector(), short_window_config(),
                                       engine_options(workers, collector.sink()));

    std::map<int, std::size_t> offsets;
    const std::size_t chunk = 733;  // Odd: windows straddle chunks.
    std::size_t round = 0;
    bool any_left = true;
    while (any_left) {
      any_left = false;
      for (const auto& [pid, wf] : ward) {
        std::size_t& off = offsets[pid];
        if (off >= wf.samples_mv.size()) continue;
        const std::size_t n = std::min(chunk, wf.samples_mv.size() - off);
        engine.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
        off += n;
        if (off < wf.samples_mv.size()) any_left = true;
      }
      // Churn: re-home the hot patient onto a different shard every round,
      // mid-stream, while its chunks are still queued.
      engine.rebalance_patient(hot, round++ % workers);
    }
    for (const auto& [pid, wf] : ward) engine.end_stream(pid);
    engine.flush();

    EXPECT_TRUE(collector.single_patient_batches) << workers << " workers";
    EXPECT_TRUE(collector.time_ordered) << workers << " workers";
    expect_bit_identical(collector.all(), want, "forced churn");
    // flush() is a total fence: in-flight migrations have resolved, so the
    // counters and the route table are settled, not just the result stream.
    const auto sched = engine.scheduler_stats();
    if (workers >= 2) {
      EXPECT_GT(sched.migrations, 0u) << workers << " workers: churn must actually migrate";
      // A settled engine re-homes deterministically: the next rebalance must
      // have landed by the time its fence returns.
      const std::size_t target = (engine.shard_of(hot) + 1) % workers;
      engine.rebalance_patient(hot, target);
      engine.flush();
      EXPECT_EQ(engine.shard_of(hot), target) << "rebalance must land across a fence";
    } else {
      EXPECT_EQ(sched.migrations, 0u) << "single shard: nowhere to migrate";
    }
  }
}

// Cache-carrying migration: the incremental feature pipeline's segment
// cache (20/10 is stride-aligned, so it is active here) must migrate WITH
// the patient. Every cached product is a deterministic function of the beat
// stream and the request sequence is fixed per emitted window, so the
// engine's hit/miss/eviction counters must EQUAL the single-threaded
// oracle's under any churn schedule — a dropped or rebuilt-from-cold cache
// would show up as extra misses, a stale one as wrong windows (checked
// bit-exactly too).
TEST(WardScheduler, MigrationCarriesSegmentCacheCoherently) {
  const int hot = 3;
  const auto ward = make_skewed_ward(hot);

  rt::StreamClassifier oracle(detector(), short_window_config());
  for (const auto& [pid, wf] : ward) oracle.push_samples(pid, wf.samples_mv);
  for (const auto& [pid, wf] : ward) oracle.end_stream(pid);
  const auto want = oracle.flush();
  const auto want_stats = oracle.cache_stats();
  ASSERT_GT(want_stats.hits, 0u);
  ASSERT_FALSE(want.empty());

  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    Collector collector;
    rt::ShardedStreamClassifier engine(detector(), short_window_config(),
                                       engine_options(workers, collector.sink()));

    std::map<int, std::size_t> offsets;
    std::size_t round = 0;
    bool any_left = true;
    while (any_left) {  // Steal mid-ward under churn: re-home every round.
      any_left = false;
      for (const auto& [pid, wf] : ward) {
        std::size_t& off = offsets[pid];
        if (off >= wf.samples_mv.size()) continue;
        const std::size_t n = std::min<std::size_t>(733, wf.samples_mv.size() - off);
        engine.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
        off += n;
        if (off < wf.samples_mv.size()) any_left = true;
      }
      engine.rebalance_patient(hot, round++ % workers);
    }
    for (const auto& [pid, wf] : ward) engine.end_stream(pid);
    engine.flush();
    EXPECT_GT(engine.scheduler_stats().migrations, 0u) << workers << " workers";

    expect_bit_identical(collector.all(), want, "cache-carrying churn");
    const auto stats = engine.cache_stats();  // Quiescent: flushed above.
    EXPECT_EQ(stats.hits, want_stats.hits) << workers << " workers";
    EXPECT_EQ(stats.misses, want_stats.misses) << workers << " workers";
    EXPECT_EQ(stats.evictions, want_stats.evictions) << workers << " workers";
  }
}

// Natural stealing: every patient hashes to shard 0 of 2, so the second
// worker sits idle unless it steals. It must steal (migrations > 0) and the
// decision stream must stay bit-identical.
TEST(WardScheduler, IdleWorkerStealsBacklogBitExactly) {
  // Patient ids chosen to collide on shard 0 under the default hash at 2
  // shards — the pathological ward static placement cannot spread.
  std::vector<int> colliding;
  for (int pid = 1; colliding.size() < 4; ++pid)
    if (rt::fibonacci_shard(pid, 2) == 0) colliding.push_back(pid);
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 140;
  for (int pid : colliding) ward[pid] = synth_ecg(60.0, static_cast<std::uint64_t>(seed++));
  const auto want = reference_results(ward);

  Collector collector;
  rt::EngineOptions options;
  options.num_workers = 2;
  options.stealing.enable = true;
  options.stealing.min_backlog = 1;
  // Throttle delivery: the raw extraction pipeline chews through this ward in
  // a millisecond or two, which leaves the idle worker's steal poll nothing
  // to observe. A brief sleep per delivered batch keeps the victim's backlog
  // visible for many poll periods without changing any computed value.
  auto inner = collector.sink();
  options.sink = [inner](std::span<const rt::WindowResult> batch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inner(batch);
  };
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  // Small chunks, pushed flat out: shard 0's queue backs up, shard 1 idles
  // into its steal scan.
  std::map<int, std::size_t> offsets;
  const std::size_t chunk = 250;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, wf] : ward) {
      std::size_t& off = offsets[pid];
      if (off >= wf.samples_mv.size()) continue;
      const std::size_t n = std::min(chunk, wf.samples_mv.size() - off);
      engine.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
      off += n;
      if (off < wf.samples_mv.size()) any_left = true;
    }
  }
  // Keep the ward streaming (no fence yet — a pending fence pauses steal
  // scans) until the idle worker has stolen; the throttled sink keeps the
  // backlog alive for hundreds of poll periods, so this resolves in a few
  // milliseconds.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.scheduler_stats().steals == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (const auto& [pid, wf] : ward) engine.end_stream(pid);
  engine.flush();

  const auto sched = engine.scheduler_stats();
  EXPECT_GT(sched.steals, 0u) << "an idle worker facing a backlogged ward must steal";
  EXPECT_GT(sched.migrations, 0u);
  EXPECT_TRUE(collector.single_patient_batches);
  EXPECT_TRUE(collector.time_ordered);
  expect_bit_identical(collector.all(), want, "natural stealing");
}

// Regression: a migration token retried while a producer sits blocked on a
// full kBlock queue must not monopolise the queue head. The worker has to
// drain the data item whose slot the blocked push is waiting for, or the
// cutoff (settled + queued == issued) can never be satisfied — the shard
// would spin on the token forever and flush() would hang in its
// migration-drain wait.
TEST(WardScheduler, MigrationRetryDoesNotDeadlockCapacityBlockedProducer) {
  // Two patients whose ids collide on shard 0 of 2 under the default hash.
  std::vector<int> colliding;
  for (int pid = 1; colliding.size() < 2; ++pid)
    if (rt::fibonacci_shard(pid, 2) == 0) colliding.push_back(pid);
  const int a = colliding[0];
  const int b = colliding[1];

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> delivering{false};

  Collector collector;
  auto inner = collector.sink();
  rt::EngineOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1;  // The second queued chunk blocks its producer.
  options.sink = [&](std::span<const rt::WindowResult> batch) {
    delivering = true;
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    inner(batch);
  };
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  const auto wf_a = synth_ecg(60.0, 4242);
  const auto wf_b = synth_ecg(40.0, 4243);
  // First chunk covers a full 20 s window at 250 Hz, so delivery fires and
  // worker 0 parks in the gated sink with a's first chunk not yet settled.
  const std::size_t first = 6000;
  engine.push_samples(a, std::span(wf_a.samples_mv).subspan(0, first));
  while (!delivering) std::this_thread::yield();

  engine.push_samples(b, std::span(wf_b.samples_mv).subspan(0, 500));  // Fills the slot.
  std::thread producer([&] {
    // Queue full, worker parked: this push blocks after counting as issued —
    // exactly the in-flight state the migration cutoff has to wait out.
    engine.push_samples(
        a, std::span(wf_a.samples_mv).subspan(first, wf_a.samples_mv.size() - first));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  engine.rebalance_patient(a, 1);  // Token lands ahead of b's queued chunk.
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();

  producer.join();  // The regression: under a head-parked token this hangs.
  engine.push_samples(b,
                      std::span(wf_b.samples_mv).subspan(500, wf_b.samples_mv.size() - 500));
  for (int pid : {a, b}) engine.end_stream(pid);
  engine.flush();
  EXPECT_EQ(engine.shard_of(a), 1u) << "the retried migration must eventually land";
  EXPECT_GT(engine.scheduler_stats().migrations, 0u);

  std::map<int, ecg::EcgWaveform> ward;
  ward[a] = wf_a;
  ward[b] = wf_b;
  expect_bit_identical(collector.all(), reference_results(ward), "blocked-producer migration");
}

TEST(WardScheduler, RebalanceValidatesAndPreRoutesUnknownPatients) {
  Collector collector;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(),
                                     engine_options(2, collector.sink()));
  EXPECT_THROW(engine.rebalance_patient(1, 7), std::invalid_argument);
  engine.rebalance_patient(999, 1);  // Unknown: pre-route, nothing to migrate.
  EXPECT_EQ(engine.shard_of(999), 1u);
  EXPECT_EQ(engine.scheduler_stats().migrations, 0u);
}

// --- Deadline mode -----------------------------------------------------------

// Saturated: an unreachable p99 target must walk the controller through
// stride widening into forced shedding, with every action counted.
TEST(WardScheduler, DeadlineControllerDegradesUnderSaturation) {
  rt::EngineOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.deadline.target_p99_s = 1e-9;  // Any real latency breaches.
  options.deadline.poll_interval_s = 0.005;
  options.sink = [](std::span<const rt::WindowResult>) {};
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  const auto wf = synth_ecg(60.0, 555);
  const std::size_t chunk = 500;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  rt::SchedulerStats sched;
  // Keep the ward under load until the controller has escalated to forced
  // shedding (level 3) — each poll escalates one level.
  do {
    for (std::size_t off = 0; off + chunk <= wf.samples_mv.size(); off += chunk)
      for (int pid : {1, 2, 3})
        engine.push_samples(pid, std::span(wf.samples_mv).subspan(off, chunk));
    sched = engine.scheduler_stats();
  } while (sched.shed_activations == 0 && std::chrono::steady_clock::now() < deadline);

  EXPECT_GT(sched.stride_widenings, 0u) << "stride must widen before shedding";
  EXPECT_GT(sched.shed_activations, 0u) << "saturation must reach forced shedding";
  EXPECT_GT(sched.deadline_level, 0u);
}

// Every shard queue is bounded (deadline mode's level-3 shedding evicts
// against the bound), so a zero capacity is rejected at construction with
// or without the controller.
TEST(WardScheduler, ZeroQueueCapacityIsRejected) {
  Collector collector;
  for (const double target_p99_s : {0.0, 0.005}) {
    rt::EngineOptions options = engine_options(1, collector.sink());
    options.queue_capacity = 0;
    options.deadline.target_p99_s = target_p99_s;
    EXPECT_THROW(
        rt::ShardedStreamClassifier(detector(), short_window_config(), std::move(options)),
        std::invalid_argument)
        << "target_p99_s " << target_p99_s;
  }
}

// Unsaturated: a comfortable target must leave the stream untouched — zero
// scheduler actions and bit-identical results.
TEST(WardScheduler, DeadlineControllerIdleWhenTargetIsMet) {
  const auto ward = make_skewed_ward(3);
  const auto want = reference_results(ward);

  Collector collector;
  rt::EngineOptions options = engine_options(2, collector.sink());
  options.deadline.target_p99_s = 100.0;  // Never approached.
  options.deadline.poll_interval_s = 0.005;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));
  for (const auto& [pid, wf] : ward) engine.push_samples(pid, wf.samples_mv);
  for (const auto& [pid, wf] : ward) engine.end_stream(pid);
  engine.flush();

  const auto sched = engine.scheduler_stats();
  EXPECT_EQ(sched.stride_widenings, 0u);
  EXPECT_EQ(sched.shed_activations, 0u);
  EXPECT_EQ(sched.shed_chunks, 0u);
  EXPECT_EQ(sched.deadline_level, 0u);
  expect_bit_identical(collector.all(), want, "deadline idle");
}

}  // namespace
}  // namespace svt
