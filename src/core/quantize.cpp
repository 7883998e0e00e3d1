#include "core/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "fixed/fixed_point.hpp"
#include "fixed/range_selection.hpp"
#include "hw/arith_model.hpp"

namespace svt::core {

hw::PipelineConfig design_pipeline(std::size_t num_features, std::size_t num_support_vectors,
                                   const std::optional<QuantConfig>& quant) {
  hw::PipelineConfig pipeline;
  pipeline.num_features = num_features;
  pipeline.num_support_vectors = num_support_vectors;
  if (quant) {
    pipeline.feature_bits = quant->feature_bits;
    pipeline.alpha_bits = quant->alpha_bits;
    pipeline.dot_truncate_bits = quant->dot_truncate_bits;
    pipeline.square_truncate_bits = quant->square_truncate_bits;
  } else {
    pipeline.feature_bits = 64;
    pipeline.alpha_bits = 64;
  }
  return pipeline;
}

QuantizedModel QuantizedModel::build(const svt::svm::SvmModel& model, const QuantConfig& config) {
  using svt::svm::KernelType;
  if (model.kernel.type != KernelType::kPolynomial || model.kernel.degree != 2)
    throw std::invalid_argument("QuantizedModel: kernel must be quadratic polynomial");
  if (model.num_support_vectors() == 0)
    throw std::invalid_argument("QuantizedModel: model has no support vectors");
  if (config.feature_bits < 2 || config.feature_bits > 20)
    throw std::invalid_argument("QuantizedModel: feature_bits outside [2,20]");
  if (config.alpha_bits < 2 || config.alpha_bits > 32)
    throw std::invalid_argument("QuantizedModel: alpha_bits outside [2,32]");
  if (config.dot_truncate_bits < 0 || config.square_truncate_bits < 0)
    throw std::invalid_argument("QuantizedModel: negative truncation");

  QuantizedModel qm;
  qm.config_ = config;

  const std::size_t nfeat = model.num_features();
  const std::size_t nsv = model.num_support_vectors();

  // --- Eq. 6 per-feature ranges over the SV set ------------------------------
  const auto sv_columns = fixed::to_columns(model.support_vectors);
  qm.ranges_ = fixed::select_feature_ranges(sv_columns);
  qm.max_range_log2_ = *std::max_element(qm.ranges_.begin(), qm.ranges_.end());
  if (config.homogeneous) {
    std::fill(qm.ranges_.begin(), qm.ranges_.end(), qm.max_range_log2_);
  }
  // --- Quantise SVs (packed row-major: the kernel's SV table) ------------------
  qm.q_sv_packed_.resize(nsv * nfeat);
  for (std::size_t i = 0; i < nsv; ++i) {
    for (std::size_t j = 0; j < nfeat; ++j) {
      const fixed::QuantFormat fmt{config.feature_bits, qm.ranges_[j]};
      qm.q_sv_packed_[i * nfeat + j] = fmt.quantize(model.support_vectors[i][j]);
    }
  }

  // --- Quantise alpha_y with one global power-of-two range ---------------------
  double alpha_max = 0.0;
  for (double a : model.alpha_y) alpha_max = std::max(alpha_max, std::abs(a));
  int ra = 0;
  if (alpha_max > 0.0) ra = static_cast<int>(std::ceil(std::log2(alpha_max)));
  // Keep ra so that alpha_max < 2^ra (strictly); equality needs one more bit.
  while (std::ldexp(1.0, ra) <= alpha_max) ++ra;
  qm.alpha_range_log2_ = ra;
  const fixed::QuantFormat alpha_fmt{config.alpha_bits, ra};
  qm.q_alpha_y_.resize(nsv);
  for (std::size_t i = 0; i < nsv; ++i) qm.q_alpha_y_[i] = alpha_fmt.quantize(model.alpha_y[i]);

  // --- Stage widths and scale anchors (shared with load()) ---------------------
  qm.compute_derived(nsv);

  // lsb of the widest feature format; dot products are aligned to lsb_max^2.
  const double lsb_max = std::ldexp(1.0, qm.max_range_log2_ - config.feature_bits + 1);
  const double dot_scale = lsb_max * lsb_max;
  qm.q_one_ = fixed::saturate(
      static_cast<std::int64_t>(std::llround(model.kernel.coef0 / dot_scale)),
      qm.pipeline_.mac1_accumulator_bits());

  const long double bias_q = static_cast<long double>(model.bias) / qm.acc2_scale_;
  qm.q_bias_ = fixed::saturate128(static_cast<__int128>(llroundl(bias_q)),
                           std::min(126, qm.pipeline_.mac2_accumulator_bits()));
  return qm;
}

void QuantizedModel::compute_derived(std::size_t nsv) {
  const std::size_t nfeat = ranges_.size();
  max_range_log2_ = *std::max_element(ranges_.begin(), ranges_.end());
  product_shifts_.resize(nfeat);
  for (std::size_t j = 0; j < nfeat; ++j) {
    // The scale-back shift is applied to int64 products: a spread wider
    // than 31 octaves would need a >= 64-bit shift (UB), so reject it the
    // same way the width checks below reject unrepresentable configs.
    if (max_range_log2_ - ranges_[j] > 31)
      throw std::invalid_argument(
          "QuantizedModel: feature range spread exceeds 31 octaves (shift > 62)");
    product_shifts_[j] = 2 * (max_range_log2_ - ranges_[j]);
  }

  // --- Hardware design point / stage widths -----------------------------------
  pipeline_.num_features = nfeat;
  pipeline_.num_support_vectors = nsv;
  pipeline_.feature_bits = config_.feature_bits;
  pipeline_.alpha_bits = config_.alpha_bits;
  pipeline_.dot_truncate_bits = config_.dot_truncate_bits;
  pipeline_.square_truncate_bits = config_.square_truncate_bits;
  // Width-driven truncation: discard however many extra LSBs are needed for
  // the squarer input to fit 31 bits (kin * kin must be exact in int64). A
  // real accelerator would make the same choice to bound the squarer array.
  {
    const int mac1_bits = 2 * config_.feature_bits +
                          hw::clog2(std::max<std::size_t>(nfeat, 1)) + 1;
    const int needed = mac1_bits - 31;
    if (needed > config_.dot_truncate_bits) pipeline_.dot_truncate_bits = needed;
  }
  config_.dot_truncate_bits = pipeline_.dot_truncate_bits;
  // The kernel shifts int64 values right by each truncation.
  if (config_.dot_truncate_bits > 63 || config_.square_truncate_bits > 63)
    throw std::invalid_argument("QuantizedModel: truncation wider than 63 bits");
  pipeline_.validate();
  SVT_ASSERT(pipeline_.kernel_input_bits() <= 31);

  // The real value of one MAC2 LSB, anchored at the widest feature format.
  const double lsb_max = std::ldexp(1.0, max_range_log2_ - config_.feature_bits + 1);
  const double dot_scale = lsb_max * lsb_max;
  const fixed::QuantFormat alpha_fmt{config_.alpha_bits, alpha_range_log2_};
  const double kernel_in_scale = dot_scale * std::ldexp(1.0, config_.dot_truncate_bits);
  const double kernel_out_scale =
      kernel_in_scale * kernel_in_scale * std::ldexp(1.0, config_.square_truncate_bits);
  acc2_scale_ = kernel_out_scale * alpha_fmt.lsb();
}

void QuantizedModel::save(std::ostream& os) const {
  os << "svmtailor-qmodel v1\n";
  os << "bits " << config_.feature_bits << ' ' << config_.alpha_bits << ' '
     << config_.dot_truncate_bits << ' ' << config_.square_truncate_bits << ' '
     << (config_.homogeneous ? 1 : 0) << '\n';
  os << "nsv " << num_support_vectors() << '\n';
  os << "nfeat " << num_features() << '\n';
  os << "ranges";
  for (int r : ranges_) os << ' ' << r;
  os << '\n';
  os << "alpha_range " << alpha_range_log2_ << '\n';
  os << "qone " << q_one_ << '\n';
  os << "qbias " << fixed::to_string_int128(q_bias_) << '\n';
  // One line per SV: its quantised weight, then its quantised features --
  // the same row shape as SvmModel::save, but in integers.
  const std::size_t nfeat = num_features();
  for (std::size_t i = 0; i < num_support_vectors(); ++i) {
    os << q_alpha_y_[i];
    for (std::size_t j = 0; j < nfeat; ++j) os << ' ' << q_sv_packed_[i * nfeat + j];
    os << '\n';
  }
}

QuantizedModel QuantizedModel::load(std::istream& is) {
  using svt::svm::io::expect_header;
  using svt::svm::io::expect_tag;
  using svt::svm::io::read_value;
  using svt::svm::io::read_values;
  using svt::svm::io::require_good;
  expect_header(is, "svmtailor-qmodel", "v1", "QuantizedModel::load");
  QuantizedModel qm;
  int homogeneous = 0;
  expect_tag(is, "bits", "QuantizedModel::load");
  is >> qm.config_.feature_bits >> qm.config_.alpha_bits >> qm.config_.dot_truncate_bits >>
      qm.config_.square_truncate_bits >> homogeneous;
  qm.config_.homogeneous = homogeneous != 0;
  std::size_t nsv = 0, nfeat = 0;
  expect_tag(is, "nsv", "QuantizedModel::load");
  is >> nsv;
  expect_tag(is, "nfeat", "QuantizedModel::load");
  is >> nfeat;
  require_good(is, "QuantizedModel::load");
  if (nsv == 0 || nfeat == 0)
    throw std::invalid_argument("QuantizedModel::load: empty SV table");
  if (qm.config_.feature_bits < 2 || qm.config_.feature_bits > 20 ||
      qm.config_.alpha_bits < 2 || qm.config_.alpha_bits > 32 ||
      qm.config_.dot_truncate_bits < 0 || qm.config_.square_truncate_bits < 0)
    throw std::invalid_argument("QuantizedModel::load: config out of range");
  expect_tag(is, "ranges", "QuantizedModel::load");
  for (std::size_t j = 0; j < nfeat; ++j) {
    const int r = read_value<int>(is, "QuantizedModel::load");
    // Keep every ldexp/QuantFormat scale finite and the shift table (checked
    // again in compute_derived) representable.
    if (r < -62 || r > 62)
      throw std::invalid_argument("QuantizedModel::load: feature range outside [-62,62]");
    qm.ranges_.push_back(r);
  }
  expect_tag(is, "alpha_range", "QuantizedModel::load");
  is >> qm.alpha_range_log2_;
  if (is && (qm.alpha_range_log2_ < -62 || qm.alpha_range_log2_ > 62))
    throw std::invalid_argument("QuantizedModel::load: alpha range outside [-62,62]");
  expect_tag(is, "qone", "QuantizedModel::load");
  is >> qm.q_one_;
  expect_tag(is, "qbias", "QuantizedModel::load");
  std::string bias_text;
  is >> bias_text;
  require_good(is, "QuantizedModel::load");
  qm.q_bias_ = fixed::parse_int128(bias_text);
  for (std::size_t i = 0; i < nsv; ++i) {
    qm.q_alpha_y_.push_back(read_value<std::int64_t>(is, "QuantizedModel::load"));
    read_values(is, nfeat, qm.q_sv_packed_, "QuantizedModel::load");
  }
  // Derived fields (shift table, pipeline widths, MAC2 scale) are functions
  // of the primaries just read; recomputing them keeps the file format
  // minimal and the loaded engine bit-identical to the built one.
  qm.compute_derived(nsv);
  // Every integer must be one build() could have written: it saturates each
  // to its stage's width, and the kernel's int64/int128 arithmetic is sized
  // on those widths (a wider one overflows it).
  const auto fits = [](std::int64_t v, int bits) {
    return v >= fixed::min_signed_value(bits) && v <= fixed::max_signed_value(bits);
  };
  for (const std::int64_t q : qm.q_sv_packed_)
    if (!fits(q, qm.config_.feature_bits))
      throw std::invalid_argument("QuantizedModel::load: SV integer outside feature_bits");
  for (const std::int64_t q : qm.q_alpha_y_)
    if (!fits(q, qm.config_.alpha_bits))
      throw std::invalid_argument("QuantizedModel::load: alpha_y integer outside alpha_bits");
  if (!fits(qm.q_one_, qm.pipeline_.mac1_accumulator_bits()))
    throw std::invalid_argument("QuantizedModel::load: qone outside the MAC1 accumulator");
  const int bias_bits = std::min(126, qm.pipeline_.mac2_accumulator_bits());
  if (fixed::saturate128(qm.q_bias_, bias_bits) != qm.q_bias_)
    throw std::invalid_argument("QuantizedModel::load: qbias outside the MAC2 accumulator");
  return qm;
}

void QuantizedModel::dequantized_decisions(std::span<const std::vector<double>> xs,
                                           rt::KernelScratch& scratch,
                                           std::vector<double>& out) const {
  const std::size_t nwin = xs.size();
  const std::size_t nfeat = num_features();
  out.resize(nwin);
  if (nwin == 0) return;

  // Quantise every window directly into the feature-major layout the blocked
  // kernel consumes: qxt[f * nwin + w].
  auto& qxt = scratch.qxt;
  qxt.resize(nwin * nfeat);
  for (std::size_t w = 0; w < nwin; ++w) {
    if (xs[w].size() != nfeat)
      throw std::invalid_argument("QuantizedModel: feature-count mismatch");
    for (std::size_t j = 0; j < nfeat; ++j) {
      const fixed::QuantFormat fmt{config_.feature_bits, ranges_[j]};
      qxt[j * nwin + w] = fmt.quantize(xs[w][j]);
    }
  }

  auto& accs = scratch.accs;
  accs.resize(nwin);
  rt::batch_quantized_accumulators(kernel(), qxt.data(), nwin, accs.data());
  for (std::size_t w = 0; w < nwin; ++w) out[w] = static_cast<double>(accs[w]) * acc2_scale_;
}

rt::PackedQuantKernel QuantizedModel::kernel() const {
  rt::PackedQuantKernel kernel;
  kernel.nfeat = num_features();
  kernel.nsv = num_support_vectors();
  kernel.q_svs = q_sv_packed_.data();
  kernel.q_alpha_y = q_alpha_y_.data();
  kernel.product_shifts = product_shifts_.data();
  kernel.q_one = q_one_;
  kernel.q_bias = q_bias_;
  kernel.mac1_bits = pipeline_.mac1_accumulator_bits();
  kernel.kin_bits = pipeline_.kernel_input_bits();
  kernel.kout_bits = pipeline_.kernel_output_bits();
  kernel.mac2_bits = std::min(126, pipeline_.mac2_accumulator_bits());
  kernel.dot_truncate_bits = config_.dot_truncate_bits;
  kernel.square_truncate_bits = config_.square_truncate_bits;
  return kernel;
}

}  // namespace svt::core
