#include "rt/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "features/af_features.hpp"
#include "features/feature_types.hpp"
#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "features/psd_features.hpp"

namespace svt::rt {

namespace {

class ApneaWorkload final : public Workload {
 public:
  const char* name() const override { return "apnea"; }
  std::size_t num_features() const override { return features::kNumFeatures; }

  std::string feature_name(std::size_t index) const override {
    const auto& catalog = features::feature_catalog();
    if (index >= catalog.size())
      throw std::out_of_range("ApneaWorkload: feature index out of range");
    return catalog[index].name;
  }

  void extract(const WindowSubstrate& s, features::FeatureScratch& scratch,
               std::span<double> out) const override {
    SVT_ASSERT(out.size() == features::kNumFeatures && s.psd != nullptr);
    std::size_t off = 0;
    features::compute_hrv_features(s.rr_s, scratch,
                                   out.subspan(off, features::kNumHrvFeatures));
    off += features::kNumHrvFeatures;
    features::compute_lorentz_features(s.rr_s, scratch,
                                       out.subspan(off, features::kNumLorentzFeatures));
    off += features::kNumLorentzFeatures;
    // The extractor fitted the AR model (in pairs, behind the AR gate).
    SVT_ASSERT(s.ar.size() == features::kNumArFeatures);
    std::copy(s.ar.begin(), s.ar.end(), out.begin() + static_cast<std::ptrdiff_t>(off));
    off += features::kNumArFeatures;
    // The provider applies the PSD gates and hands back the averaged
    // memoized periodograms (null = gates failed, keep the zero fill —
    // exactly compute_psd_features' early-out contract).
    const auto psd_out = out.subspan(off, features::kNumPsdFeatures);
    std::fill(psd_out.begin(), psd_out.end(), 0.0);
    if (const dsp::PsdEstimate* psd = s.psd->window_psd(scratch))
      features::summarize_psd(*psd, s.edr_fs_hz, psd_out);
  }
};

class AfWorkload final : public Workload {
 public:
  const char* name() const override { return "af"; }
  std::size_t num_features() const override { return features::kNumAfFeatures; }

  std::string feature_name(std::size_t index) const override {
    static const char* names[features::kNumAfFeatures] = {
        "af_rmssd_ratio", "af_turning_point_ratio", "af_shannon_entropy"};
    if (index >= features::kNumAfFeatures)
      throw std::out_of_range("AfWorkload: feature index out of range");
    return names[index];
  }

  void extract(const WindowSubstrate& s, features::FeatureScratch& scratch,
               std::span<double> out) const override {
    features::compute_af_features(s.rr_s, scratch, out);
  }
};

}  // namespace

std::shared_ptr<const Workload> apnea_workload() {
  static const auto instance = std::make_shared<const ApneaWorkload>();
  return instance;
}

std::shared_ptr<const Workload> af_workload() {
  static const auto instance = std::make_shared<const AfWorkload>();
  return instance;
}

}  // namespace svt::rt
