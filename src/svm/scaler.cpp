#include "svm/scaler.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "svm/model.hpp"

namespace svt::svm {

void StandardScaler::fit(std::span<const std::vector<double>> samples) {
  if (samples.empty()) throw std::invalid_argument("StandardScaler::fit: empty input");
  const std::size_t nfeat = samples.front().size();
  for (const auto& row : samples) {
    if (row.size() != nfeat) throw std::invalid_argument("StandardScaler::fit: ragged rows");
  }
  mean_.assign(nfeat, 0.0);
  std_.assign(nfeat, 0.0);
  const double n = static_cast<double>(samples.size());
  for (const auto& row : samples) {
    for (std::size_t j = 0; j < nfeat; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= n;
  for (const auto& row : samples) {
    for (std::size_t j = 0; j < nfeat; ++j) {
      const double d = row[j] - mean_[j];
      std_[j] += d * d;
    }
  }
  for (double& s : std_) s = std::sqrt(s / n);
}

void StandardScaler::transform_inplace(std::vector<double>& sample) const {
  transform_inplace(std::span<double>(sample));
}

void StandardScaler::transform_inplace(std::span<double> sample) const {
  if (!fitted()) throw std::invalid_argument("StandardScaler: not fitted");
  if (sample.size() != mean_.size())
    throw std::invalid_argument("StandardScaler::transform: size mismatch");
  if (!gains_.empty() && gains_.size() != mean_.size())
    throw std::invalid_argument("StandardScaler::transform: post_gains size mismatch");
  for (std::size_t j = 0; j < sample.size(); ++j) {
    sample[j] = std_[j] > 0.0 ? (sample[j] - mean_[j]) / std_[j] : 0.0;
    if (!gains_.empty()) sample[j] *= gains_[j];
  }
}

std::vector<double> StandardScaler::transform(std::span<const double> sample) const {
  std::vector<double> out(sample.begin(), sample.end());
  transform_inplace(out);
  return out;
}

std::vector<std::vector<double>> StandardScaler::transform_all(
    std::span<const std::vector<double>> samples) const {
  std::vector<std::vector<double>> out;
  out.reserve(samples.size());
  for (const auto& row : samples) out.push_back(transform(row));
  return out;
}

void StandardScaler::save(std::ostream& os) const {
  os << "svmtailor-scaler v1\n";
  os << "mode 0\n";  // The z-score mode; the only one the format still admits.
  os << "nfeat " << mean_.size() << '\n';
  os << std::setprecision(17);
  os << "means";
  for (double m : mean_) os << ' ' << m;
  os << "\nstds";
  for (double s : std_) os << ' ' << s;
  os << "\ngains " << gains_.size();
  for (double g : gains_) os << ' ' << g;
  os << '\n';
}

StandardScaler StandardScaler::load(std::istream& is) {
  io::expect_header(is, "svmtailor-scaler", "v1", "StandardScaler::load");
  StandardScaler s;
  int mode = 0;
  io::expect_tag(is, "mode", "StandardScaler::load");
  is >> mode;
  if (is && mode != 0) throw std::invalid_argument("StandardScaler::load: unknown scaler mode");
  std::size_t nfeat = 0;
  io::expect_tag(is, "nfeat", "StandardScaler::load");
  is >> nfeat;
  io::require_good(is, "StandardScaler::load");
  io::expect_tag(is, "means", "StandardScaler::load");
  io::read_values(is, nfeat, s.mean_, "StandardScaler::load");
  io::expect_tag(is, "stds", "StandardScaler::load");
  io::read_values(is, nfeat, s.std_, "StandardScaler::load");
  std::size_t ngains = 0;
  io::expect_tag(is, "gains", "StandardScaler::load");
  is >> ngains;
  io::require_good(is, "StandardScaler::load");
  io::read_values(is, ngains, s.gains_, "StandardScaler::load");
  return s;
}

}  // namespace svt::svm
