// Reusable per-worker workspace for the zero-allocation feature path.
//
// One FeatureScratch holds every buffer the 53-feature extraction chain
// needs — the HRV heart-rate / successive-difference / percentile buffers,
// the Lorentz rotation buffers, the two-lane Burg error series and models,
// and the Welch segment / taper / FFT-plan scratch — so steady-state
// window emission performs no heap allocation (every vector keeps its
// capacity between windows; the FFT plan cache holds one plan per distinct
// length seen).
//
// Ownership: scratch is NOT thread-safe and carries no per-patient state —
// every value is fully overwritten per call, so one scratch can serve any
// number of interleaved patients (asserted by tests/test_features.cpp). The
// sharded engine gives each worker thread its own scratch via the worker's
// private WindowExtractor.
//
// Bit-exactness: each feature family has one entry point,
// compute_*_features over value spans with a scratch, and the allocating
// extract_features delegates to its scratch overload with a local scratch,
// so every path agrees bit-for-bit. The one exception is the AR family on
// the served path: rt::WindowExtractor fits its windows' AR models two at a
// time with dsp::ar_burg (each lane bit-identical to a lone fit) behind the
// same ar_fit_gate, and hands them to the workloads on the substrate.
#pragma once

#include <vector>

#include "dsp/ar_model.hpp"
#include "dsp/spectral.hpp"

namespace svt::features {

struct FeatureScratch {
  // HRV (features 1-8).
  std::vector<double> hr;      ///< Instantaneous heart rate per interval.
  std::vector<double> diffs;   ///< Successive RR differences.
  /// RR copy: the HRV IQR reorders it (percentile_select), the AF entropy
  /// sorts it.
  std::vector<double> sorted;
  // Lorentz (features 9-15).
  std::vector<double> u, v;  ///< 45-degree rotated successive-pair axes.
  // AR (features 16-24): the dataset path's fits, and the streaming
  // extractor's pairs.
  dsp::BurgScratch burg;
  // PSD (features 25-53).
  dsp::SpectralScratch spectral;
  dsp::PsdEstimate psd;
};

}  // namespace svt::features
