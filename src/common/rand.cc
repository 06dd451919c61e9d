#include "common/rand.h"

namespace ditto {

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta, uint64_t /*seed*/)
    : n_(n), theta_(theta) {
  if (theta_ < 0.0 || theta_ >= 0.995) {
    theta_ = theta_ < 0.0 ? 0.0 : 0.99;  // the Gray method diverges at theta = 1
  }
  zetan_ = ZetaStatic(n, theta_);
  zeta2theta_ = ZetaStatic(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
  rank1_limit_ = 1.0 + std::pow(0.5, theta_);
}

double ZipfianGenerator::ZetaStatic(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < rank1_limit_) {
    return 1;
  }
  const double x = static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t rank = static_cast<uint64_t>(x);
  if (rank >= n_) {
    rank = n_ - 1;
  }
  return rank;
}

}  // namespace ditto
