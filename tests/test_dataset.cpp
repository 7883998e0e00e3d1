#include "ecg/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

namespace svt::ecg {
namespace {

DatasetParams small_params() {
  DatasetParams p;
  p.windows_per_session = 8;
  return p;
}

TEST(Dataset, PaperShapedStructure) {
  const auto ds = generate_dataset(small_params());
  EXPECT_EQ(ds.sessions.size(), 24u);
  EXPECT_EQ(ds.patients.size(), 7u);
  EXPECT_EQ(ds.num_windows(), 24u * 8u);
  std::size_t seizures = 0;
  for (const auto& s : ds.sessions) seizures += s.seizures.size();
  EXPECT_EQ(seizures, 34u);
  EXPECT_GT(ds.num_seizure_windows(), 0u);
  EXPECT_LT(ds.num_seizure_windows(), ds.num_windows() / 4);
}

TEST(Dataset, EverySessionHasAtLeastOneSeizure) {
  const auto ds = generate_dataset(small_params());
  for (const auto& s : ds.sessions) EXPECT_GE(s.seizures.size(), 1u);
}

TEST(Dataset, SessionsCycleThroughCohort) {
  const auto ds = generate_dataset(small_params());
  std::set<int> patients;
  for (const auto& s : ds.sessions) patients.insert(s.patient_id);
  EXPECT_EQ(patients.size(), 7u);
}

TEST(Dataset, WindowsCarrySignals) {
  const auto ds = generate_dataset(small_params());
  for (const auto& s : ds.sessions) {
    ASSERT_EQ(s.windows.size(), 8u);
    for (const auto& w : s.windows) {
      EXPECT_GT(w.rr.size(), 100u);   // ~3 minutes of beats.
      EXPECT_GT(w.edr.values.size(), 500u);  // 180 s at 4 Hz.
      EXPECT_TRUE(w.label == 1 || w.label == -1);
    }
  }
}

TEST(Dataset, IctalWindowsOverlapSeizures) {
  const auto ds = generate_dataset(small_params());
  for (const auto& s : ds.sessions) {
    for (const auto& w : s.windows) {
      bool overlaps = false;
      for (const auto& sz : s.seizures) {
        if (sz.overlaps(w.start_s, w.start_s + 180.0)) overlaps = true;
      }
      if (w.label == 1) EXPECT_TRUE(overlaps);
    }
  }
}

TEST(Dataset, DeterministicInSeed) {
  const auto a = generate_dataset(small_params());
  const auto b = generate_dataset(small_params());
  ASSERT_EQ(a.num_windows(), b.num_windows());
  const auto wa = a.all_windows();
  const auto wb = b.all_windows();
  for (std::size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i]->rr.size(), wb[i]->rr.size());
    EXPECT_EQ(wa[i]->label, wb[i]->label);
    if (!wa[i]->rr.rr_s.empty()) EXPECT_DOUBLE_EQ(wa[i]->rr.rr_s[0], wb[i]->rr.rr_s[0]);
  }
}

TEST(Dataset, DifferentSeedsDiffer) {
  auto p1 = small_params();
  auto p2 = small_params();
  p2.seed = 43;
  const auto a = generate_dataset(p1);
  const auto b = generate_dataset(p2);
  bool any_diff = false;
  const auto wa = a.all_windows();
  const auto wb = b.all_windows();
  for (std::size_t i = 0; i < wa.size() && !any_diff; ++i) {
    if (wa[i]->rr.size() != wb[i]->rr.size()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Dataset, Validation) {
  DatasetParams bad = small_params();
  bad.num_sessions = 0;
  EXPECT_THROW(generate_dataset(bad), std::invalid_argument);
  bad = small_params();
  bad.windows_per_session = 0;
  EXPECT_THROW(generate_dataset(bad), std::invalid_argument);
  bad = small_params();
  bad.window_s = -1.0;
  EXPECT_THROW(generate_dataset(bad), std::invalid_argument);
}

}  // namespace
}  // namespace svt::ecg
