#include "features/extractor.hpp"

#include <stdexcept>

#include "common/assert.hpp"
#include "features/ar_features.hpp"
#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "features/psd_features.hpp"

namespace svt::features {

std::string category_name(FeatureCategory c) {
  switch (c) {
    case FeatureCategory::kHrv: return "HRV";
    case FeatureCategory::kLorentz: return "Lorentz";
    case FeatureCategory::kAr: return "AR";
    case FeatureCategory::kPsd: return "PSD";
  }
  return "unknown";
}

const std::vector<FeatureInfo>& feature_catalog() {
  static const std::vector<FeatureInfo> catalog = [] {
    std::vector<FeatureInfo> c;
    c.reserve(kNumFeatures);
    const char* hrv_names[] = {"mean_hr",  "mean_nn", "sdnn",   "rmssd",
                               "pnn50",    "cvnn",    "sd_hr",  "rr_iqr"};
    const char* lorentz_names[] = {"sd1", "sd2", "sd1_sd2", "ellipse_area",
                                   "csi", "cvi", "centroid_dist"};
    std::size_t idx = 0;
    for (const char* n : hrv_names)
      c.push_back({idx++, n, FeatureCategory::kHrv});
    for (const char* n : lorentz_names)
      c.push_back({idx++, n, FeatureCategory::kLorentz});
    for (std::size_t i = 0; i < kNumArFeatures; ++i)
      c.push_back({idx++, "edr_ar_a" + std::to_string(i + 1), FeatureCategory::kAr});
    for (std::size_t i = 0; i < kNumPsdBands; ++i)
      c.push_back({idx++, "edr_psd_band" + std::to_string(i + 1), FeatureCategory::kPsd});
    c.push_back({idx++, "edr_psd_total", FeatureCategory::kPsd});
    c.push_back({idx++, "edr_psd_lf_hf", FeatureCategory::kPsd});
    c.push_back({idx++, "edr_psd_peak_f", FeatureCategory::kPsd});
    c.push_back({idx++, "edr_psd_edge95", FeatureCategory::kPsd});
    SVT_ASSERT(c.size() == kNumFeatures);
    return c;
  }();
  return catalog;
}

FeatureCategory category_of(std::size_t index) {
  const auto& catalog = feature_catalog();
  if (index >= catalog.size()) throw std::out_of_range("category_of: feature index out of range");
  return catalog[index].category;
}

double category_gain(FeatureCategory c) {
  // Powers of two, chosen so that (a) ranges stay heterogeneous across
  // categories (3 octaves -- the property Eq. 6's per-feature scaling
  // exploits) and (b) typical dot products are O(1), keeping the quadratic
  // kernel's +1 meaningful: (x.z + 1)^2 must blend a linear and a quadratic
  // channel, not degenerate to the homogeneous (x.z)^2 whose f(x) = f(-x)
  // symmetry cannot express this task's class geometry.
  switch (c) {
    case FeatureCategory::kHrv: return 0.5;
    case FeatureCategory::kLorentz: return 0.25;
    case FeatureCategory::kPsd: return 0.125;
    case FeatureCategory::kAr: return 0.0625;
  }
  return 1.0;
}

std::vector<double> category_gains(const std::vector<std::size_t>& feature_indices) {
  std::vector<double> gains;
  gains.reserve(feature_indices.size());
  for (std::size_t j : feature_indices) gains.push_back(category_gain(category_of(j)));
  return gains;
}

void extract_features(const ecg::RrSeries& rr, const ecg::RespirationSeries& edr,
                      FeatureScratch& scratch, std::span<double> out) {
  SVT_ASSERT(out.size() == kNumFeatures);
  std::size_t off = 0;
  compute_hrv_features(rr.rr_s, scratch, out.subspan(off, kNumHrvFeatures));
  off += kNumHrvFeatures;
  compute_lorentz_features(rr.rr_s, scratch, out.subspan(off, kNumLorentzFeatures));
  off += kNumLorentzFeatures;
  compute_ar_features(edr.values, scratch, out.subspan(off, kNumArFeatures));
  off += kNumArFeatures;
  compute_psd_features(edr.values, edr.fs_hz, scratch, out.subspan(off, kNumPsdFeatures));
}

std::vector<double> extract_features(const ecg::WindowRecord& window) {
  FeatureScratch scratch;
  std::vector<double> f(kNumFeatures);
  extract_features(window.rr, window.edr, scratch, f);
  return f;
}

FeatureMatrix extract_feature_matrix(const ecg::Dataset& dataset) {
  FeatureMatrix m;
  const auto windows = dataset.all_windows();
  m.samples.reserve(windows.size());
  m.labels.reserve(windows.size());
  m.session_index.reserve(windows.size());
  m.patient_id.reserve(windows.size());
  for (const auto* w : windows) {
    m.samples.push_back(extract_features(*w));
    m.labels.push_back(w->label);
    m.session_index.push_back(w->session_index);
    m.patient_id.push_back(w->patient_id);
  }
  return m;
}

FeatureMatrix FeatureMatrix::select_features(const std::vector<std::size_t>& kept) const {
  FeatureMatrix out;
  out.labels = labels;
  out.session_index = session_index;
  out.patient_id = patient_id;
  out.samples.reserve(samples.size());
  for (const auto& row : samples) {
    std::vector<double> r;
    r.reserve(kept.size());
    for (std::size_t j : kept) {
      if (j >= row.size()) throw std::out_of_range("select_features: feature index out of range");
      r.push_back(row[j]);
    }
    out.samples.push_back(std::move(r));
  }
  return out;
}

FeatureMatrix FeatureMatrix::select_rows(const std::vector<std::size_t>& rows) const {
  FeatureMatrix out;
  out.samples.reserve(rows.size());
  out.labels.reserve(rows.size());
  out.session_index.reserve(rows.size());
  out.patient_id.reserve(rows.size());
  for (std::size_t i : rows) {
    if (i >= samples.size()) throw std::out_of_range("select_rows: row index out of range");
    out.samples.push_back(samples[i]);
    out.labels.push_back(labels[i]);
    out.session_index.push_back(session_index[i]);
    out.patient_id.push_back(patient_id[i]);
  }
  return out;
}

}  // namespace svt::features
