#include "model/combinatorics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mpcbf::model {
namespace {

// Truncation threshold for expectation sums: terms are probabilities in
// [0,1], the pmf tail bounds the remaining contribution.
constexpr double kTailEpsilon = 1e-16;

// glibc's lgamma writes the process-global `signgam`, so concurrent
// health probes from server workers race on it. All arguments here are
// >= 1, where the gamma function is positive, so the sign output of the
// reentrant variant can be discarded.
double lgamma_safe(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double log_binomial_coefficient(std::uint64_t n, std::uint64_t j) {
  if (j > n) throw std::invalid_argument("log_binomial_coefficient: j > n");
  return lgamma_safe(static_cast<double>(n) + 1.0) -
         lgamma_safe(static_cast<double>(j) + 1.0) -
         lgamma_safe(static_cast<double>(n - j) + 1.0);
}

double binomial_pmf(std::uint64_t n, double p, std::uint64_t j) {
  if (j > n || p < 0.0 || p > 1.0) return 0.0;
  if (p == 0.0) return j == 0 ? 1.0 : 0.0;
  if (p == 1.0) return j == n ? 1.0 : 0.0;
  const double lp = log_binomial_coefficient(n, j) +
                    static_cast<double>(j) * std::log(p) +
                    static_cast<double>(n - j) * std::log1p(-p);
  return std::exp(lp);
}

double binomial_sf(std::uint64_t n, double p, std::uint64_t j) {
  if (j == 0) return 1.0;
  if (j > n) return 0.0;
  // Sum the smaller side for accuracy.
  const double mean = static_cast<double>(n) * p;
  if (static_cast<double>(j) > mean) {
    double s = 0.0;
    for (std::uint64_t i = j; i <= n; ++i) {
      const double t = binomial_pmf(n, p, i);
      s += t;
      if (t < kTailEpsilon * (s + kTailEpsilon) &&
          static_cast<double>(i) > mean) {
        break;
      }
    }
    return std::min(1.0, s);
  }
  double s = 0.0;
  for (std::uint64_t i = 0; i < j; ++i) {
    s += binomial_pmf(n, p, i);
  }
  return std::clamp(1.0 - s, 0.0, 1.0);
}

double poisson_pmf(double lambda, std::uint64_t j) {
  if (lambda < 0.0) return 0.0;
  if (lambda == 0.0) return j == 0 ? 1.0 : 0.0;
  const double lp = static_cast<double>(j) * std::log(lambda) - lambda -
                    lgamma_safe(static_cast<double>(j) + 1.0);
  return std::exp(lp);
}

double poisson_cdf(double lambda, std::uint64_t j) {
  double s = 0.0;
  for (std::uint64_t i = 0; i <= j; ++i) {
    s += poisson_pmf(lambda, i);
  }
  return std::min(1.0, s);
}

double poisson_sf(double lambda, std::uint64_t j) {
  if (j == 0) return 1.0;
  return std::clamp(1.0 - poisson_cdf(lambda, j - 1), 0.0, 1.0);
}

std::uint64_t poisson_inv(double p, double lambda) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("poisson_inv: p");
  if (lambda < 0.0) throw std::invalid_argument("poisson_inv: lambda");
  double cdf = 0.0;
  std::uint64_t x = 0;
  // The quantile is O(lambda + sqrt(lambda) * Phi^{-1}(p)); the loop bound
  // is generous enough for any configuration we evaluate and guards
  // against p so close to 1 that cdf never reaches it in double precision.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(lambda + 64.0 * (std::sqrt(lambda) + 1.0)) +
      64;
  for (;;) {
    cdf += poisson_pmf(lambda, x);
    if (cdf >= p || x >= limit) return x;
    ++x;
  }
}

double expect_binomial(std::uint64_t n, double p,
                       const std::function<double(std::uint64_t)>& phi) {
  if (n == 0 || p <= 0.0) return phi(0);
  if (p >= 1.0) return phi(n);
  const auto mode = static_cast<std::uint64_t>(
      std::min(static_cast<double>(n), (static_cast<double>(n) + 1.0) * p));
  // Walk down from the mode, then up, with pmf computed by ratio updates
  // so the whole expectation is O(width of the distribution).
  const double log_q = std::log1p(-p);
  const double log_p = std::log(p);
  double acc = 0.0;

  double lpmf = log_binomial_coefficient(n, mode) +
                static_cast<double>(mode) * log_p +
                static_cast<double>(n - mode) * log_q;
  // Downward: pmf(j-1) = pmf(j) * j*(1-p) / ((n-j+1)*p)
  {
    double l = lpmf;
    for (std::uint64_t j = mode;; --j) {
      const double w = std::exp(l);
      acc += w * phi(j);
      if (w < kTailEpsilon || j == 0) break;
      l += std::log(static_cast<double>(j)) + log_q -
           std::log(static_cast<double>(n - j + 1)) - log_p;
    }
  }
  // Upward: pmf(j+1) = pmf(j) * (n-j)*p / ((j+1)*(1-p))
  {
    double l = lpmf;
    for (std::uint64_t j = mode; j < n;) {
      l += std::log(static_cast<double>(n - j)) + log_p -
           std::log(static_cast<double>(j + 1)) - log_q;
      ++j;
      const double w = std::exp(l);
      acc += w * phi(j);
      if (w < kTailEpsilon) break;
    }
  }
  return acc;
}

double expect_poisson(double lambda,
                      const std::function<double(std::uint64_t)>& phi) {
  if (lambda <= 0.0) return phi(0);
  const auto mode = static_cast<std::uint64_t>(lambda);
  double acc = 0.0;
  const double log_lambda = std::log(lambda);
  const double lpmf_mode = static_cast<double>(mode) * log_lambda - lambda -
                           lgamma_safe(static_cast<double>(mode) + 1.0);
  {
    double l = lpmf_mode;
    for (std::uint64_t j = mode;; --j) {
      const double w = std::exp(l);
      acc += w * phi(j);
      if (w < kTailEpsilon || j == 0) break;
      l += std::log(static_cast<double>(j)) - log_lambda;
    }
  }
  {
    double l = lpmf_mode;
    for (std::uint64_t j = mode;;) {
      l += log_lambda - std::log(static_cast<double>(j + 1));
      ++j;
      const double w = std::exp(l);
      acc += w * phi(j);
      if (w < kTailEpsilon) break;
    }
  }
  return acc;
}

}  // namespace mpcbf::model
