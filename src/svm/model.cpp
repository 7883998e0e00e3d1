#include "svm/model.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace svt::svm {

namespace io {

void expect_tag(std::istream& is, const char* tag, const char* ctx) {
  std::string token;
  is >> token;
  if (!is || token != tag)
    throw std::invalid_argument(std::string(ctx) + ": expected '" + tag + "'");
}

void expect_header(std::istream& is, const char* magic, const char* version, const char* ctx) {
  std::string m, v;
  is >> m >> v;
  if (!is || m != magic || v != version)
    throw std::invalid_argument(std::string(ctx) + ": bad header");
}

void require_good(const std::istream& is, const char* ctx) {
  if (!is) throw std::invalid_argument(std::string(ctx) + ": truncated");
}

}  // namespace io

double SvmModel::decision_value(std::span<const double> x) const {
  double acc = bias;
  for (std::size_t i = 0; i < support_vectors.size(); ++i)
    acc += alpha_y[i] * kernel(x, support_vectors[i]);
  return acc;
}

int SvmModel::predict(std::span<const double> x) const {
  return decision_value(x) >= 0.0 ? +1 : -1;
}

std::vector<double> SvmModel::sv_norms() const {
  std::vector<double> norms(support_vectors.size());
  for (std::size_t i = 0; i < support_vectors.size(); ++i) {
    const double a = alpha_y[i];
    norms[i] = a * a * kernel(support_vectors[i], support_vectors[i]);
  }
  return norms;
}

void SvmModel::save(std::ostream& os) const {
  os << "svmtailor-model v1\n";
  os << "kernel " << static_cast<int>(kernel.type) << ' ' << kernel.degree << ' '
     << std::setprecision(17) << kernel.coef0 << ' ' << kernel.gamma << '\n';
  os << "bias " << std::setprecision(17) << bias << '\n';
  os << "nsv " << support_vectors.size() << '\n';
  os << "nfeat " << num_features() << '\n';
  for (std::size_t i = 0; i < support_vectors.size(); ++i) {
    os << std::setprecision(17) << alpha_y[i];
    for (double v : support_vectors[i]) os << ' ' << std::setprecision(17) << v;
    os << '\n';
  }
}

SvmModel SvmModel::load(std::istream& is) {
  io::expect_header(is, "svmtailor-model", "v1", "SvmModel::load");
  SvmModel m;
  int ktype = 0;
  io::expect_tag(is, "kernel", "SvmModel::load");
  is >> ktype >> m.kernel.degree >> m.kernel.coef0 >> m.kernel.gamma;
  m.kernel.type = static_cast<KernelType>(ktype);
  io::expect_tag(is, "bias", "SvmModel::load");
  is >> m.bias;
  std::size_t nsv = 0, nfeat = 0;
  io::expect_tag(is, "nsv", "SvmModel::load");
  is >> nsv;
  io::expect_tag(is, "nfeat", "SvmModel::load");
  is >> nfeat;
  io::require_good(is, "SvmModel::load");
  std::vector<double> row;
  for (std::size_t i = 0; i < nsv; ++i) {
    m.alpha_y.push_back(io::read_value<double>(is, "SvmModel::load"));
    row.clear();
    io::read_values(is, nfeat, row, "SvmModel::load");
    m.support_vectors.push_back(row);
  }
  return m;
}

}  // namespace svt::svm
