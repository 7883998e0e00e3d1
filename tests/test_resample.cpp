#include "dsp/resample.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace svt::dsp {
namespace {

TEST(Interpolate, ExactOnLinearFunction) {
  std::vector<double> t{0.0, 1.0, 3.0, 7.0};
  std::vector<double> v{0.0, 2.0, 6.0, 14.0};  // v = 2t.
  for (double q : {0.5, 1.7, 2.9, 5.0, 6.99}) {
    EXPECT_NEAR(interpolate_at(t, v, q), 2.0 * q, 1e-12);
  }
}

TEST(Interpolate, ClampsOutsideRange) {
  std::vector<double> t{1.0, 2.0};
  std::vector<double> v{10.0, 20.0};
  EXPECT_DOUBLE_EQ(interpolate_at(t, v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(interpolate_at(t, v, 5.0), 20.0);
}

TEST(Interpolate, Validation) {
  std::vector<double> t{1.0, 1.0};
  std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(interpolate_at(t, v, 1.0), std::invalid_argument);  // Non-increasing.
  std::vector<double> t2{1.0};
  std::vector<double> v2{1.0};
  EXPECT_THROW(interpolate_at(t2, v2, 1.0), std::invalid_argument);  // Too short.
  std::vector<double> v3{1.0, 2.0, 3.0};
  std::vector<double> t3{1.0, 2.0};
  EXPECT_THROW(interpolate_at(t3, v3, 1.0), std::invalid_argument);  // Size mismatch.
}

TEST(Resample, UniformGridProperties) {
  std::vector<double> t{0.0, 0.8, 1.7, 2.4, 4.0};
  std::vector<double> v{0.0, 0.8, 1.7, 2.4, 4.0};  // Identity: v = t.
  double start = -1.0;
  std::vector<double> values;
  resample_linear_into(t, v, 4.0, start, values);
  EXPECT_DOUBLE_EQ(start, 0.0);
  EXPECT_EQ(values.size(), 17u);  // floor(4s * 4Hz) + 1.
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(values[i], static_cast<double>(i) / 4.0, 1e-12);
  }
}

TEST(Resample, GridBitIdenticalToInterpolateAtEveryPoint) {
  // Irregular beat times: the intervals between them span no grid point,
  // one, or many, at offsets that do not line up with the grid.
  // resample_linear_into walks the source segments forward; interpolate_at
  // binary-searches each query. Both must give the same bits everywhere.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> amplitude(-1.5, 1.5);
  std::size_t spans[3] = {};  // Intervals covering 0, 1 and >= 3 grid points.
  std::vector<double> out;
  for (const double fs : {4.0, 7.0}) {
    for (int series = 0; series < 40; ++series) {
      std::vector<double> t{10.0 * unit(rng)};
      std::vector<double> v{amplitude(rng)};
      for (int k = 0; k < 60; ++k) {
        // Gap in grid steps: under one, about one, or many.
        const double u = unit(rng);
        const double r = unit(rng);
        const double steps = u < 0.4 ? 0.9 * r : u < 0.7 ? 1.0 + 0.9 * r : 3.0 + 20.0 * r;
        t.push_back(t.back() + steps / fs);
        v.push_back(amplitude(rng));
      }
      double start = 0.0;
      resample_linear_into(t, v, fs, start, out);
      ASSERT_EQ(start, t.front());
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], interpolate_at(t, v, start + static_cast<double>(i) / fs))
            << "fs " << fs << " series " << series << " point " << i;
      }
      for (std::size_t k = 1; k < t.size(); ++k) {
        const double covered = std::ceil((t[k] - start) * fs) - std::ceil((t[k - 1] - start) * fs);
        if (covered == 0.0) ++spans[0];
        if (covered == 1.0) ++spans[1];
        if (covered >= 3.0) ++spans[2];
      }
    }
  }
  EXPECT_GT(spans[0], 0u);
  EXPECT_GT(spans[1], 0u);
  EXPECT_GT(spans[2], 0u);
}

TEST(Resample, RejectsBadRate) {
  std::vector<double> t{0.0, 1.0};
  std::vector<double> v{0.0, 1.0};
  double start = 0.0;
  std::vector<double> values;
  EXPECT_THROW(resample_linear_into(t, v, 0.0, start, values), std::invalid_argument);
}

class ResampleSineProperty : public ::testing::TestWithParam<double> {};

TEST_P(ResampleSineProperty, PreservesSlowSine) {
  // Unevenly sampled slow sine resampled to 4 Hz stays close to the truth.
  const double f = GetParam();
  std::vector<double> t, v;
  double time = 0.0;
  std::size_t i = 0;
  while (time < 30.0) {
    t.push_back(time);
    v.push_back(std::sin(2.0 * std::numbers::pi * f * time));
    time += 0.7 + 0.3 * std::sin(static_cast<double>(i++));  // Uneven spacing.
  }
  double start = 0.0;
  std::vector<double> values;
  resample_linear_into(t, v, 4.0, start, values);
  for (std::size_t k = 0; k < values.size(); ++k) {
    const double tk = start + static_cast<double>(k) / 4.0;
    EXPECT_NEAR(values[k], std::sin(2.0 * std::numbers::pi * f * tk), 0.15);
  }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ResampleSineProperty, ::testing::Values(0.05, 0.1));

}  // namespace
}  // namespace svt::dsp
