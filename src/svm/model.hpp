// Trained SVM model (paper Eq. 1): the support vectors, their signed weights
// alpha_i * y_i, the bias b and the kernel. Provides per-window float
// inference, for any kernel, and text serialisation. Training, cross-
// validation and the parity tests use it as is; serving packs it
// (rt::PackedModel, quadratic kernel only, matching decision_value per
// window) or quantises it (core::QuantizedModel). Nothing here depends on
// the serving runtime.
#pragma once

#include <iosfwd>
#include <istream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "svm/kernel.hpp"

namespace svt::svm {

struct SvmModel {
  Kernel kernel;
  std::vector<std::vector<double>> support_vectors;
  std::vector<double> alpha_y;  ///< alpha_i * y_i per SV, in (-C, C).
  double bias = 0.0;

  std::size_t num_support_vectors() const { return support_vectors.size(); }
  std::size_t num_features() const {
    return support_vectors.empty() ? 0 : support_vectors.front().size();
  }

  /// Decision value f(x) = sum_i alpha_y_i k(x, sv_i) + b (paper Eq. 1
  /// before the sign). Throws std::invalid_argument on size mismatch.
  double decision_value(std::span<const double> x) const;

  /// Class label: sign of the decision value (+1 / -1; 0 maps to +1).
  int predict(std::span<const double> x) const;

  /// The per-SV importance norm used for budgeting (paper Eq. 5):
  /// ||SV_i|| = ||alpha_i||^2 * k(x_i, x_i).
  std::vector<double> sv_norms() const;

  /// Text serialisation (round-trippable).
  void save(std::ostream& os) const;
  static SvmModel load(std::istream& is);
};

/// Helpers for the project's line-oriented "tag value..." model text format,
/// shared by every persistable artefact (SvmModel, core::QuantizedModel,
/// StandardScaler, rt::ServableModel) so they all fail the same way on
/// corrupt input.
namespace io {

/// Read one whitespace-delimited token and require it to equal `tag`; throws
/// std::invalid_argument("<ctx>: expected '<tag>'") otherwise.
void expect_tag(std::istream& is, const char* tag, const char* ctx);

/// Require the two-token header "<magic> <version>"; throws
/// std::invalid_argument("<ctx>: bad header") on mismatch.
void expect_header(std::istream& is, const char* magic, const char* version, const char* ctx);

/// Throw std::invalid_argument("<ctx>: truncated") if the stream has failed
/// (call after a block of extractions).
void require_good(const std::istream& is, const char* ctx);

/// Read one value; throws std::invalid_argument("<ctx>: truncated") when
/// the stream has none left.
template <typename T>
T read_value(std::istream& is, const char* ctx) {
  T value{};
  if (!(is >> value)) throw std::invalid_argument(std::string(ctx) + ": truncated");
  return value;
}

/// Append `count` values to `out`, one at a time as they are read, so a
/// corrupt count allocates no more than the stream actually holds; throws
/// like read_value at the first missing value.
template <typename T>
void read_values(std::istream& is, std::size_t count, std::vector<T>& out, const char* ctx) {
  for (std::size_t i = 0; i < count; ++i) out.push_back(read_value<T>(is, ctx));
}

}  // namespace io

}  // namespace svt::svm
