// Cohort replay driver: replaying a writer-generated WFDB cohort through
// rt::CohortReplayer must yield per-patient results bit-identical to feeding
// the same (decoded) samples directly to the single-threaded
// StreamClassifier — under 1/2/4 workers — with end_stream() flushing the
// trailing windows a live stream would hold back, per-record stats that add
// up, real-time pacing that actually paces, and loud failures on mismatched
// or ambiguous cohorts.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "io/cohort_fixture.hpp"
#include "io/wfdb.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/stream_classifier.hpp"
#include "support/fixtures.hpp"
#include "support/temp_dir.hpp"

namespace svt {
namespace {

using namespace test;

/// A fixture cohort, in a temp directory removed when the returned owner
/// goes out of scope, whose records end exactly on a window boundary, so
/// the trailing window is only recoverable through the end-of-record path.
TempDir fixture_dir(const std::string& tag, std::size_t patients = 4, double duration_s = 50.0) {
  TempDir dir("replay_" + tag);
  io::CohortFixtureParams params;
  params.num_patients = patients;
  params.duration_s = duration_s;
  io::write_synthetic_cohort(dir.string(), params);
  return dir;
}

/// Decode every record the way the replayer does (ECG channel, ADC -> mV).
std::map<int, std::vector<double>> decoded_cohort(const std::string& dir) {
  std::map<int, std::vector<double>> samples;
  for (const auto& name : io::read_records_index(dir)) {
    const auto record = io::read_record(dir, name);
    samples[rt::CohortReplayer::patient_id_of(name)] =
        record.signal_mv(io::ecg_channel(record.header));
  }
  return samples;
}

/// Reference: the same samples pushed directly into the single-threaded
/// engine, with the same end-of-record semantics.
std::map<int, std::vector<rt::WindowResult>> direct_results(
    const std::map<int, std::vector<double>>& cohort, bool end_streams = true) {
  rt::StreamClassifier reference(servable(), short_window_config());
  for (const auto& [pid, samples] : cohort) {
    reference.push_samples(pid, samples);
    if (end_streams) reference.end_stream(pid);
  }
  std::map<int, std::vector<rt::WindowResult>> split;
  for (const auto& r : reference.flush()) split[r.patient_id].push_back(r);
  return split;
}

TEST(CohortReplay, BitIdenticalToDirectStreamingUnder124Workers) {
  const TempDir fixture = fixture_dir("parity");
  const std::string dir = fixture.string();
  const auto cohort = decoded_cohort(dir);
  const auto want = direct_results(cohort);
  ASSERT_FALSE(want.empty());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Collector collector;
    auto registry = default_registry();
    rt::CohortReplayer replayer(registry, short_window_config(),
                                engine_options(workers, collector.sink()));
    const auto report = replayer.replay_directory(dir);

    ASSERT_EQ(collector.per_patient.size(), want.size()) << workers << " workers";
    std::size_t total = 0;
    for (const auto& [pid, mine] : collector.per_patient) {
      ASSERT_TRUE(want.count(pid)) << "patient " << pid;
      const auto& theirs = want.at(pid);
      ASSERT_EQ(mine.size(), theirs.size()) << workers << " workers, patient " << pid;
      for (std::size_t w = 0; w < mine.size(); ++w) {
        EXPECT_DOUBLE_EQ(mine[w].start_s, theirs[w].start_s) << "patient " << pid;
        EXPECT_EQ(mine[w].decision_value, theirs[w].decision_value)
            << workers << " workers, patient " << pid << " window " << w;
        EXPECT_EQ(mine[w].label, theirs[w].label) << "patient " << pid;
        EXPECT_EQ(mine[w].num_beats, theirs[w].num_beats) << "patient " << pid;
      }
      total += mine.size();
    }

    // The report's accounting matches what actually arrived.
    EXPECT_EQ(report.windows, total);
    EXPECT_EQ(report.records.size(), cohort.size());
    for (const auto& stats : report.records) {
      EXPECT_EQ(stats.windows, collector.per_patient.at(stats.patient_id).size());
      EXPECT_GT(stats.samples, 0u);
      EXPECT_GT(stats.x_realtime, 0.0);
    }
    EXPECT_GT(report.x_realtime, 0.0);
  }
}

TEST(CohortReplay, EndStreamRecoversTrailingWindows) {
  // The fixtures end on a window boundary: a live stream would hold the last
  // window back (emission lag), so a replay WITHOUT end-of-record semantics
  // delivers strictly fewer windows than the replayer does.
  const TempDir fixture = fixture_dir("tail", 2);
  const std::string dir = fixture.string();
  const auto cohort = decoded_cohort(dir);
  const auto with_end = direct_results(cohort, true);
  const auto without_end = direct_results(cohort, false);
  std::size_t n_with = 0, n_without = 0;
  for (const auto& [pid, r] : with_end) n_with += r.size();
  for (const auto& [pid, r] : without_end) n_without += r.size();
  ASSERT_GT(n_with, n_without);

  Collector collector;
  auto registry = default_registry();
  rt::CohortReplayer replayer(registry, short_window_config(), engine_options(2, collector.sink()));
  const auto report = replayer.replay_directory(dir);
  EXPECT_EQ(report.windows, n_with);  // The replayer wires end_stream per record.
}

TEST(CohortReplay, PacedReplayHonoursTheSpeedMultiple) {
  const TempDir fixture = fixture_dir("paced", 1, 12.0);
  const std::string dir = fixture.string();
  auto registry = default_registry();
  rt::CohortReplayer replayer(registry, short_window_config(), engine_options(1, {}));
  rt::ReplayOptions options;
  options.speed = 60.0;
  options.chunk_s = 2.0;
  const auto report = replayer.replay_directory(dir, options);
  ASSERT_EQ(report.records.size(), 1u);
  // The final chunk is admitted no earlier than its stream time / speed.
  const double min_wall = (report.records[0].duration_s - options.chunk_s) / options.speed;
  EXPECT_GE(report.records[0].wall_s, 0.9 * min_wall);
}

TEST(CohortReplay, MismatchedSamplingRateSkipsTheRecordNotTheCohort) {
  const TempDir fixture = fixture_dir("fs", 2, 50.0);
  const std::string dir = fixture.string();
  const auto names = io::read_records_index(dir);
  ASSERT_EQ(names.size(), 2u);
  // Re-record the second monitor at the wrong rate: it must be skipped with
  // a per-record reason while the rest of the ward replays normally.
  auto bad = io::read_record(dir, names[1]);
  bad.header.fs_hz = 360.0;
  io::write_record(dir, bad.header, bad.adc);

  const int good_pid = rt::CohortReplayer::patient_id_of(names[0]);
  const auto good = io::read_record(dir, names[0]);
  std::map<int, std::vector<double>> good_cohort;
  good_cohort[good_pid] = good.signal_mv(io::ecg_channel(good.header));
  const auto want = direct_results(good_cohort);

  auto registry = default_registry();
  Collector collector;
  rt::CohortReplayer replayer(registry, short_window_config(), engine_options(2, collector.sink()));
  const auto report = replayer.replay_directory(dir);

  EXPECT_EQ(report.skipped_records, 1u);
  ASSERT_EQ(report.records.size(), 2u);
  const auto& skipped = report.records[1];
  EXPECT_TRUE(skipped.skipped);
  EXPECT_NE(skipped.skip_reason.find("360"), std::string::npos) << skipped.skip_reason;
  EXPECT_EQ(skipped.windows, 0u);
  EXPECT_FALSE(report.records[0].skipped);
  EXPECT_TRUE(report.records[0].skip_reason.empty());

  // The surviving record's stream is untouched by the skip: bit-identical
  // to direct streaming, and nothing was delivered for the skipped patient.
  ASSERT_EQ(collector.per_patient.size(), 1u);
  ASSERT_EQ(collector.per_patient.count(good_pid), 1u);
  const auto& got = collector.per_patient.at(good_pid);
  const auto& expected = want.at(good_pid);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(got[w].start_s, expected[w].start_s);
    EXPECT_EQ(got[w].decision_value, expected[w].decision_value);
    EXPECT_EQ(got[w].label, expected[w].label);
  }
}

TEST(CohortReplay, DuplicatePatientIdsThrow) {
  const TempDir fixture = fixture_dir("dup", 1, 10.0);
  const std::string dir = fixture.string();
  auto registry = default_registry();
  rt::CohortReplayer replayer(registry, short_window_config(), engine_options(1, {}));
  EXPECT_THROW(replayer.replay_records(dir, {"p001", "p001"}, {}), std::invalid_argument);
}

TEST(CohortReplay, RejectsNonFiniteOrOversizedOptions) {
  // A NaN or infinite chunk_s would pass a `<= 0` check and reach a
  // float-to-size_t cast; a NaN speed would replay unpaced.
  const TempDir fixture = fixture_dir("options", 1, 30.0);
  const std::string dir = fixture.string();
  auto registry = default_registry();
  rt::CohortReplayer replayer(registry, short_window_config(), engine_options(1, {}));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double chunk_s : {nan, inf, -inf, 0.0, -4.0, 0x1p53}) {
    rt::ReplayOptions options;
    options.chunk_s = chunk_s;
    EXPECT_THROW(replayer.replay_records(dir, {"p001"}, options), std::invalid_argument)
        << "chunk_s " << chunk_s;
  }
  for (const double speed : {nan, inf, -1.0}) {
    rt::ReplayOptions options;
    options.speed = speed;
    EXPECT_THROW(replayer.replay_records(dir, {"p001"}, options), std::invalid_argument)
        << "speed " << speed;
  }
  // Nothing was streamed, and the replayer still works.
  EXPECT_EQ(replayer.engine().stats().delivered_windows, 0u);
  const auto report = replayer.replay_records(dir, {"p001"}, {});
  EXPECT_EQ(report.records.size(), 1u);
  EXPECT_GT(report.windows, 0u);
}

TEST(CohortReplay, PatientIdParsing) {
  EXPECT_EQ(rt::CohortReplayer::patient_id_of("p007"), 7);
  EXPECT_EQ(rt::CohortReplayer::patient_id_of("100"), 100);
  EXPECT_EQ(rt::CohortReplayer::patient_id_of("chb01_46"), 46);
  EXPECT_THROW(rt::CohortReplayer::patient_id_of("norecordnumber"), std::invalid_argument);
  // A timestamp-sized record number cannot be a patient id: still the
  // documented exception type, not a stray std::out_of_range.
  EXPECT_THROW(rt::CohortReplayer::patient_id_of("s20260731054201"), std::invalid_argument);
}

TEST(CohortReplay, SyntheticModelIsDeterministic) {
  // The golden-file gate depends on the fixture model being seed-stable.
  const auto a = rt::synthetic_full_feature_model(21);
  const auto b = rt::synthetic_full_feature_model(21);
  ASSERT_EQ(a.model().support_vectors.size(), b.model().support_vectors.size());
  EXPECT_EQ(a.model().support_vectors, b.model().support_vectors);
  EXPECT_EQ(a.model().alpha_y, b.model().alpha_y);
  EXPECT_EQ(a.selected_features().size(), features::kNumFeatures);
  ASSERT_TRUE(a.quantized().has_value());
}

}  // namespace
}  // namespace svt
