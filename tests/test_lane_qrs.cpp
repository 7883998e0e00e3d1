// LaneQrsDetector: per-lane bit-exact parity with StreamingQrsDetector
// across dispatch tiers (scalar, and SSE2 where the build has it),
// pack sizes 1..kMaxLanes, arbitrary ragged chunkings (including idle
// lanes mid-round), mid-stream evict/join, and end-of-record finish.
//
// Parity oracle: a dedicated scalar StreamingQrsDetector per lane fed the
// same samples. Every comparison is exact (amplitudes by bit pattern) — the
// lane engine promises bit-identity, not closeness.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/simd_dispatch.hpp"
#include "ecg/lane_qrs.hpp"
#include "rt/window_extractor.hpp"
#include "support/fixtures.hpp"
#include "support/streaming_qrs.hpp"

namespace svt {
namespace {

using namespace test;

/// Tiers this build can execute, ignoring any SVT_LANE_ISA narrowing so the
/// parity sweep always covers both.
std::vector<common::SimdTier> available_tiers() {
  std::vector<common::SimdTier> tiers{common::SimdTier::kScalar};
  if (common::widest_simd_tier() >= common::SimdTier::kSse2)
    tiers.push_back(common::SimdTier::kSse2);
  return tiers;
}

/// Forces the dispatch tier for a scope; restores the previous tier after.
struct TierGuard {
  explicit TierGuard(common::SimdTier tier) : prev(common::simd_tier()) {
    common::set_simd_tier_override(tier);
  }
  ~TierGuard() { common::set_simd_tier_override(prev); }
  common::SimdTier prev;
};

void expect_lane_matches(const ecg::LaneQrsDetector& pack, std::size_t lane,
                         const ecg::StreamingQrsDetector& ref) {
  ASSERT_EQ(pack.samples_seen(lane), ref.samples_seen()) << "lane " << lane;
  EXPECT_EQ(pack.final_through(lane), ref.final_through()) << "lane " << lane;
  const auto& got = pack.beats(lane);
  const auto& want = ref.beats();
  ASSERT_EQ(got.size(), want.size()) << "lane " << lane;
  // Amplitudes compare by bit pattern: a NaN never equals itself.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sample_index, want[i].sample_index) << "lane " << lane << " beat " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].amplitude_mv),
              std::bit_cast<std::uint64_t>(want[i].amplitude_mv))
        << "lane " << lane << " beat " << i;
  }
}

/// kMaxLanes clean synthetic records at `fs_hz`.
std::vector<std::vector<double>> clean_records(double fs_hz) {
  std::vector<std::vector<double>> records;
  for (std::size_t p = 0; p < ecg::LaneQrsDetector::kMaxLanes; ++p)
    records.push_back(synth_ecg(30.0, 11000 + p, fs_hz).samples_mv);
  return records;
}

/// kMaxLanes records whose integrated signal a candidate-mask scan could
/// misread: 0 leading flat line, 1 flat gap, 2 flat throughout (exact-zero
/// plateaus: >= holds, > fails), 3 NaN burst, 4 +Inf sample, 5 -Inf
/// sample, 6 a sinusoid, 7 clean. The 37-sample integration window holds
/// exactly three periods of the sinusoid's squared derivative, so its
/// integrated signal is flat to within an ulp and ties its neighbours at
/// local maxima: the only record here on which the >= / > of the
/// local-maximum test changes the beats. They pin today's behaviour,
/// poisoned streams included.
std::vector<std::vector<double>> poisoned_records() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> records;
  for (std::size_t p = 0; p < ecg::LaneQrsDetector::kMaxLanes; ++p)
    records.push_back(synth_ecg(30.0, 3100 + p).samples_mv);
  const auto at_s = [](double t) { return static_cast<std::ptrdiff_t>(t * 250.0); };
  std::fill(records[0].begin(), records[0].begin() + at_s(4.0), 0.0);
  std::fill(records[1].begin() + at_s(12.0), records[1].begin() + at_s(15.0), 0.0);
  std::fill(records[2].begin(), records[2].end(), 0.0);
  std::fill(records[3].begin() + at_s(20.0), records[3].begin() + at_s(20.2), kNaN);
  records[4][at_s(15.0)] = kInf;
  records[5][at_s(18.0)] = -kInf;
  const double hz = 3.0 * 250.0 / (2.0 * 37.0);
  for (std::size_t k = 0; k < records[6].size(); ++k)
    records[6][k] = std::sin(2.0 * std::numbers::pi * hz * static_cast<double>(k) / 250.0);
  return records;
}

TEST(LaneQrs, TierIsClampedToBuild) {
  EXPECT_LE(common::simd_tier(), common::widest_simd_tier());
  EXPECT_STREQ(ecg::lane_isa_name(), common::simd_tier_name(common::simd_tier()));
  {
    // Asking for SSE2 yields the widest tier the build has (clamped to
    // scalar where SSE2 is not the baseline).
    TierGuard guard(common::SimdTier::kSse2);
    EXPECT_EQ(common::simd_tier(), common::widest_simd_tier());
  }
  TierGuard guard(common::SimdTier::kScalar);
  EXPECT_EQ(common::simd_tier(), common::SimdTier::kScalar);
  EXPECT_STREQ(ecg::lane_isa_name(), "scalar");
}

// Every tier x every pack size, ragged random chunking with idle rounds:
// each lane's beat stream must be bit-identical to its dedicated scalar
// detector, before and after finish(). Ragged rounds step every lane both
// in lockstep and alone, on clean records and on poisoned ones at 250 Hz,
// and on clean records at 500 Hz, where the 75-sample integration window
// spans two 64-sample blocks, so a stream's scalar warmup takes two steps.
TEST(LaneQrs, ParityAcrossTiersPackSizesAndChunkings) {
  struct RecordSet {
    double fs;
    std::vector<std::vector<double>> records;
  };
  const std::vector<RecordSet> sets{
      {250.0, clean_records(250.0)}, {250.0, poisoned_records()}, {500.0, clean_records(500.0)}};
  // Not vacuous: beats follow the plateau and precede the NaN burst, a flat
  // line has no local maxima at all, and the 500 Hz records have beats.
  const auto beats_of = [](const RecordSet& set, std::size_t p) {
    ecg::StreamingQrsDetector ref(set.fs);
    ref.push(set.records[p]);
    ref.finish();
    return ref.beats().size();
  };
  EXPECT_GT(beats_of(sets[1], 0), 0u);
  EXPECT_EQ(beats_of(sets[1], 2), 0u);
  EXPECT_GT(beats_of(sets[1], 3), 0u);
  EXPECT_GT(beats_of(sets[2], 0), 20u);
  for (const auto& [fs, records] : sets) {
    for (const auto tier : available_tiers()) {
      TierGuard guard(tier);
      for (std::size_t size = 1; size <= ecg::LaneQrsDetector::kMaxLanes; ++size) {
        ecg::LaneQrsDetector pack(fs);
        ASSERT_EQ(pack.tier(), tier);
        std::vector<std::size_t> lane_of(size);
        std::vector<std::size_t> offset(size, 0);
        std::vector<ecg::StreamingQrsDetector> refs;
        std::uint64_t total = 0;
        for (std::size_t p = 0; p < size; ++p) {
          lane_of[p] = pack.add_lane();
          refs.emplace_back(fs);
          refs.back().push(records[p]);
          total += records[p].size();
        }
        ASSERT_EQ(pack.active_lanes(), size);

        // Ragged rounds: each lane advances by 0..300 samples per round, so
        // packs mix lockstep blocks, scalar tails, and idle-lane rounds.
        std::mt19937_64 rng(77 * size + static_cast<std::uint64_t>(tier));
        std::uniform_int_distribution<std::size_t> len_dist(0, 300);
        bool any_left = true;
        while (any_left) {
          any_left = false;
          std::vector<ecg::LaneQrsDetector::LaneChunk> chunks;
          for (std::size_t p = 0; p < size; ++p) {
            const auto& samples = records[p];
            if (offset[p] >= samples.size()) continue;
            any_left = true;
            const std::size_t len = std::min(len_dist(rng), samples.size() - offset[p]);
            if (len == 0) continue;
            chunks.push_back({lane_of[p],
                              std::span<const double>(samples).subspan(offset[p], len)});
            offset[p] += len;
          }
          if (!chunks.empty()) pack.push(chunks);
        }
        EXPECT_EQ(pack.vector_samples() + pack.scalar_samples(), total);

        for (std::size_t p = 0; p < size; ++p) expect_lane_matches(pack, lane_of[p], refs[p]);
        for (std::size_t p = 0; p < size; ++p) {
          pack.finish(lane_of[p]);
          refs[p].finish();
          expect_lane_matches(pack, lane_of[p], refs[p]);
        }
      }
    }
  }
}

// A rate that is not finite, leaves no room for the 5-15 Hz band-pass, or
// whose 2 s learning window exceeds 2^53 samples is rejected at
// construction, before any sample count is cast from it.
TEST(LaneQrs, RejectsUnusableSamplingRates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double fs : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), 30.0, kInf, 1e300,
                          std::nextafter(0x1p52, kInf)})
    EXPECT_THROW(ecg::LaneQrsDetector{fs}, std::invalid_argument) << fs;
  for (const double fs : {250.0, 500.0, 0x1p52})
    EXPECT_NO_THROW(ecg::LaneQrsDetector{fs}) << fs;
}

// A lane evicted mid-stream must not perturb the other lanes, and a new
// stream joining the freed slot must start from fresh detector state.
TEST(LaneQrs, MidStreamEvictAndJoinLeaveOtherLanesBitExact) {
  std::vector<ecg::EcgWaveform> records;
  for (std::size_t p = 0; p < 5; ++p) records.push_back(synth_ecg(24.0, 500 + p));
  const double fs = records.front().fs_hz;

  for (const auto tier : available_tiers()) {
    TierGuard guard(tier);
    ecg::LaneQrsDetector pack(fs);
    std::vector<std::size_t> lane_of(4);
    std::vector<ecg::StreamingQrsDetector> refs;
    for (std::size_t p = 0; p < 4; ++p) {
      lane_of[p] = pack.add_lane();
      refs.emplace_back(fs);
      refs.back().push(records[p].samples_mv);
      refs.back().finish();
    }

    // First half in lockstep, then evict patient 1 mid-stream.
    const std::size_t half = records[0].samples_mv.size() / 2;
    std::vector<ecg::LaneQrsDetector::LaneChunk> chunks;
    for (std::size_t p = 0; p < 4; ++p)
      chunks.push_back({lane_of[p], std::span<const double>(records[p].samples_mv).first(half)});
    pack.push(chunks);
    pack.remove_lane(lane_of[1]);
    EXPECT_FALSE(pack.lane_active(lane_of[1]));
    EXPECT_EQ(pack.active_lanes(), 3u);

    // Patient 4 joins the freed slot and streams a fresh record while the
    // survivors finish theirs.
    const std::size_t joined = pack.add_lane();
    EXPECT_EQ(joined, lane_of[1]);  // Fixed slots: the freed slot is reused.
    EXPECT_EQ(pack.samples_seen(joined), 0);
    refs.emplace_back(fs);
    refs.back().push(records[4].samples_mv);
    refs.back().finish();

    chunks.clear();
    for (std::size_t p = 0; p < 4; ++p) {
      if (p == 1) continue;
      chunks.push_back(
          {lane_of[p], std::span<const double>(records[p].samples_mv).subspan(half)});
    }
    chunks.push_back({joined, std::span<const double>(records[4].samples_mv)});
    pack.push(chunks);

    for (std::size_t p = 0; p < 4; ++p) {
      if (p == 1) continue;
      pack.finish(lane_of[p]);
      expect_lane_matches(pack, lane_of[p], refs[p]);
    }
    pack.finish(joined);
    expect_lane_matches(pack, joined, refs[4]);
  }
}

// push_one in arbitrary chunkings is the same stream as one whole-record
// push (chunking invariance carries over from the scalar engine).
TEST(LaneQrs, PushOneChunkingInvariant) {
  const auto wf = synth_ecg(20.0, 42);
  for (const auto tier : available_tiers()) {
    TierGuard guard(tier);
    ecg::LaneQrsDetector whole(wf.fs_hz);
    const std::size_t wl = whole.add_lane();
    whole.push_one(wl, wf.samples_mv);
    whole.finish(wl);

    ecg::LaneQrsDetector chunked(wf.fs_hz);
    const std::size_t cl = chunked.add_lane();
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<std::size_t> chunk_dist(1, 97);
    std::span<const double> rest(wf.samples_mv);
    while (!rest.empty()) {
      const std::size_t n = std::min(chunk_dist(rng), rest.size());
      chunked.push_one(cl, rest.first(n));
      rest = rest.subspan(n);
    }
    chunked.finish(cl);

    const auto& a = whole.beats(wl);
    const auto& b = chunked.beats(cl);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].sample_index, b[i].sample_index) << i;
      EXPECT_EQ(a[i].amplitude_mv, b[i].amplitude_mv) << i;
    }
  }
}

// Lockstep traffic on a vector tier actually takes the vector path, and a
// freed slot's ring storage stays pooled (resident footprint is bounded by
// the pack width, not by patient churn).
TEST(LaneQrs, VectorOccupancyAndPooledResidency) {
  const auto wf = synth_ecg(16.0, 99);
  ecg::LaneQrsDetector pack(wf.fs_hz);
  const std::size_t a = pack.add_lane();
  const std::size_t b = pack.add_lane();
  std::vector<ecg::LaneQrsDetector::LaneChunk> chunks{
      {a, std::span<const double>(wf.samples_mv)}, {b, std::span<const double>(wf.samples_mv)}};
  pack.push(chunks);
  const std::uint64_t n = wf.samples_mv.size();
  if (pack.tier() >= common::SimdTier::kSse2) {
    // Each lane's first 37 samples (the 150 ms integration window at 250 Hz)
    // run scalar, the rest in lockstep.
    EXPECT_EQ(pack.scalar_samples(), 2u * 37);
    EXPECT_EQ(pack.vector_samples(), 2 * (n - 37));
  } else {
    EXPECT_EQ(pack.vector_samples(), 0u);
  }
  EXPECT_EQ(pack.vector_samples() + pack.scalar_samples(), 2 * n);

  const std::size_t resident_full = pack.resident_bytes();
  EXPECT_GT(resident_full, 0u);
  // Churn the same two slots many times: the pooled rings are reused, so
  // residency never grows past the high-water mark of two occupied slots.
  for (int round = 0; round < 16; ++round) {
    pack.remove_lane(a);
    pack.remove_lane(b);
    EXPECT_EQ(pack.resident_bytes(), resident_full);
    ASSERT_EQ(pack.add_lane(), a);
    ASSERT_EQ(pack.add_lane(), b);
    pack.push_one(a, std::span<const double>(wf.samples_mv).first(256));
    EXPECT_EQ(pack.resident_bytes(), resident_full);
  }
}

// --- WindowExtractor on lane packs ---------------------------------------

rt::StreamConfig short_windows() {
  rt::StreamConfig config;
  config.window_s = 5.0;
  config.stride_s = 2.5;
  config.min_beats = 2;
  return config;
}

void expect_windows_equal(const std::vector<rt::ExtractedWindow>& got,
                          const std::vector<rt::ExtractedWindow>& want, int patient) {
  ASSERT_EQ(got.size(), want.size()) << "patient " << patient;
  for (std::size_t w = 0; w < got.size(); ++w) {
    EXPECT_EQ(got[w].start_s, want[w].start_s) << "patient " << patient << " window " << w;
    EXPECT_EQ(got[w].num_beats, want[w].num_beats) << "patient " << patient << " window " << w;
    for (std::size_t f = 0; f < features::kNumFeatures; ++f)
      EXPECT_EQ(got[w].raw_features[f], want[w].raw_features[f])
          << "patient " << patient << " window " << w << " feature " << f;
  }
}

// push_batch over lane packs emits byte-identical windows to the dedicated
// per-patient push_samples path — for every tier, and with 9 patients the
// population spills into a second pack. Two inputs: short windows with
// each patient's chunk length drawn on its own, and the paper's 180 s / 30 s
// windows with one length per round, so every patient completes its
// windows in the same round and the extractor fits their 720-point AR
// models in pairs, against the solo path's one fit per call.
TEST(LaneWindowExtractor, BatchWindowsBitIdenticalToPerPatientPath) {
  struct Input {
    const char* name;
    rt::StreamConfig config;
    double duration_s;
    bool shared_lengths;  ///< One chunk length per round for every patient.
  };
  rt::StreamConfig paper;
  paper.window_s = 180.0;
  paper.stride_s = 30.0;
  const Input inputs[] = {{"5 s / 2.5 s", short_windows(), 40.0, false},
                          {"180 s / 30 s", paper, 280.0, true}};
  constexpr std::size_t kPatients = ecg::LaneQrsDetector::kMaxLanes + 1;
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    std::vector<ecg::EcgWaveform> records;
    for (std::size_t p = 0; p < kPatients; ++p)
      records.push_back(synth_ecg(input.duration_s, 2200 + p));

    // Reference: each patient alone through its own extractor, whole record.
    std::vector<std::vector<rt::ExtractedWindow>> want(kPatients);
    for (std::size_t p = 0; p < kPatients; ++p) {
      rt::WindowExtractor solo(input.config);
      auto sink = [&](rt::ExtractedWindow&& window) { want[p].push_back(std::move(window)); };
      solo.push_samples(static_cast<int>(p), records[p].samples_mv, sink);
      solo.end_patient(static_cast<int>(p), sink);
    }

    for (const auto tier : available_tiers()) {
      TierGuard guard(tier);
      rt::WindowExtractor batch(input.config);
      std::vector<std::vector<rt::ExtractedWindow>> got(kPatients);
      auto sink = [&](rt::ExtractedWindow&& window) {
        got[static_cast<std::size_t>(window.patient_id)].push_back(std::move(window));
      };

      std::mt19937_64 rng(31 + static_cast<std::uint64_t>(tier));
      std::uniform_int_distribution<std::size_t> len_dist(0, 800);
      std::vector<std::size_t> offset(kPatients, 0);
      bool any_left = true;
      while (any_left) {
        any_left = false;
        const std::size_t round_len = len_dist(rng);
        std::vector<rt::WindowExtractor::PatientChunk> chunks;
        for (std::size_t p = 0; p < kPatients; ++p) {
          const auto& samples = records[p].samples_mv;
          if (offset[p] >= samples.size()) continue;
          any_left = true;
          const std::size_t drawn = input.shared_lengths ? round_len : len_dist(rng);
          const std::size_t len = std::min(drawn, samples.size() - offset[p]);
          if (len == 0) continue;
          chunks.push_back({static_cast<int>(p),
                            std::span<const double>(samples).subspan(offset[p], len)});
          offset[p] += len;
        }
        if (!chunks.empty()) batch.push_batch(chunks, sink);
      }
      for (std::size_t p = 0; p < kPatients; ++p) batch.end_patient(static_cast<int>(p), sink);

      for (std::size_t p = 0; p < kPatients; ++p)
        expect_windows_equal(got[p], want[p], static_cast<int>(p));
      EXPECT_GT(want[0].size(), 2u);  // The comparison is not vacuous.
    }
  }
}

// A patient id repeated within one batch is a caller error: it throws
// before any state changes (no patient is created, no lane steps), and the
// extractor goes on serving its patients bit-exactly.
TEST(LaneWindowExtractor, RepeatedPatientIdThrowsAndLeavesStateUntouched) {
  const auto a = synth_ecg(30.0, 4100);
  const auto b = synth_ecg(30.0, 4101);
  const auto config = short_windows();
  const std::size_t half = a.samples_mv.size() / 2;
  const auto first = [&](const ecg::EcgWaveform& wf) {
    return std::span<const double>(wf.samples_mv).first(half);
  };
  const auto second = [&](const ecg::EcgWaveform& wf) {
    return std::span<const double>(wf.samples_mv).subspan(half);
  };
  std::vector<std::vector<rt::ExtractedWindow>> want(2), got(2);
  auto want_sink = [&](rt::ExtractedWindow&& window) {
    want[static_cast<std::size_t>(window.patient_id)].push_back(std::move(window));
  };
  auto got_sink = [&](rt::ExtractedWindow&& window) {
    got[static_cast<std::size_t>(window.patient_id)].push_back(std::move(window));
  };

  rt::WindowExtractor reference(config);
  std::vector<rt::WindowExtractor::PatientChunk> chunks{{0, first(a)}, {1, first(b)}};
  reference.push_batch(chunks, want_sink);
  const std::size_t buffered_a = reference.buffered_samples(0);
  chunks = {{0, second(a)}, {1, second(b)}};
  reference.push_batch(chunks, want_sink);
  reference.end_patient(0, want_sink);
  reference.end_patient(1, want_sink);

  rt::WindowExtractor extractor(config);
  chunks = {{0, first(a)}, {1, first(b)}};
  extractor.push_batch(chunks, got_sink);
  const auto lane_samples = [&extractor] {
    return extractor.stats().lane_vector_samples + extractor.stats().lane_scalar_samples;
  };
  const std::uint64_t stepped = lane_samples();
  // Patient 2 is new and repeated: the throw must come before it is created.
  chunks = {{2, second(b)}, {0, second(a)}, {2, second(b)}};
  EXPECT_THROW(extractor.push_batch(chunks, got_sink), std::invalid_argument);
  EXPECT_EQ(extractor.num_patients(), 2u);
  EXPECT_FALSE(extractor.erase_patient(2));  // Never created.
  EXPECT_EQ(lane_samples(), stepped);
  EXPECT_EQ(extractor.buffered_samples(0), buffered_a);
  chunks = {{0, second(a)}, {1, second(b)}};
  extractor.push_batch(chunks, got_sink);
  extractor.end_patient(0, got_sink);
  extractor.end_patient(1, got_sink);

  expect_windows_equal(got[0], want[0], 0);
  expect_windows_equal(got[1], want[1], 1);
  EXPECT_GT(want[0].size(), 2u);
}

// Evicting patients reclaims detector scratch: residency is bounded by the
// live population's high-water mark and returns to zero when the ward
// empties, no matter how many patients churned through.
TEST(LaneWindowExtractor, EvictionReclaimsDetectorScratch) {
  const auto wf = synth_ecg(10.0, 7);
  rt::WindowExtractor extractor(short_windows());
  auto sink = [](rt::ExtractedWindow&&) {};
  EXPECT_EQ(extractor.resident_detector_bytes(), 0u);

  for (int p = 0; p < 12; ++p)
    extractor.push_samples(p, std::span<const double>(wf.samples_mv).first(512), sink);
  const std::size_t high_water = extractor.resident_detector_bytes();
  EXPECT_GT(high_water, 0u);

  // Churn 100 patients through the same ward size: pooled lanes and
  // released packs keep residency at (or below) the high-water mark.
  for (int p = 12; p < 112; ++p) {
    extractor.erase_patient(p - 12);
    extractor.push_samples(p, std::span<const double>(wf.samples_mv).first(512), sink);
    EXPECT_LE(extractor.resident_detector_bytes(), high_water);
    EXPECT_EQ(extractor.num_patients(), 12u);
  }
  for (int p = 100; p < 112; ++p) extractor.erase_patient(p);
  EXPECT_EQ(extractor.num_patients(), 0u);
  EXPECT_EQ(extractor.resident_detector_bytes(), 0u);

  // end_patient reclaims the same way.
  extractor.push_samples(0, wf.samples_mv, sink);
  EXPECT_GT(extractor.resident_detector_bytes(), 0u);
  extractor.end_patient(0, sink);
  EXPECT_EQ(extractor.resident_detector_bytes(), 0u);
}

// The occupancy counters survive eviction (retired packs fold into the
// totals) and account for every sample pushed.
TEST(LaneWindowExtractor, OccupancyCountersSurviveChurn) {
  const auto wf = synth_ecg(10.0, 8);
  rt::WindowExtractor extractor(short_windows());
  auto sink = [](rt::ExtractedWindow&&) {};
  std::uint64_t pushed = 0;
  for (int p = 0; p < 6; ++p) {
    std::vector<rt::WindowExtractor::PatientChunk> chunks;
    for (int q = 0; q <= p; ++q)
      chunks.push_back({q, std::span<const double>(wf.samples_mv).first(512)});
    extractor.push_batch(chunks, sink);
    pushed += static_cast<std::uint64_t>(chunks.size()) * 512;
  }
  for (int p = 0; p < 6; ++p) extractor.erase_patient(p);
  EXPECT_EQ(extractor.stats().lane_vector_samples + extractor.stats().lane_scalar_samples, pushed);
}

}  // namespace
}  // namespace svt
