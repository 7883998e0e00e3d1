// The scalar Burg recursion: the oracle of the library's two-lane fit.
//
// Test-only. The library has one Burg fit, dsp::ar_burg, which fits two
// equal-length series in lockstep (two lanes per SSE2 instruction on
// x86-64). This is the one-series recursion each lane must reproduce: mean
// removal, the reflection sums, the step-up and the error updates, one
// series at a time. The parity suite compares each lane's coefficients and
// noise variance with it by bit pattern.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/ar_model.hpp"

namespace svt::dsp {

/// Burg's method on one series. Throws if x.size() <= order or order == 0.
ArModel ar_burg_scalar(std::span<const double> x, std::size_t order);

}  // namespace svt::dsp
