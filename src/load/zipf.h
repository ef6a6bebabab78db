// Zipf-distributed rank sampling for the load workload model.
// Address popularity in deployed blocklist traffic is heavily skewed —
// a small set of hot addresses (active scams, popular exchanges)
// absorbs most queries — and Zipf(s) is the standard shape for that
// skew. The sampler precomputes the CDF table once (O(n) doubles) and
// inverts a uniform draw by binary search (O(log n) per sample), which
// is exact — no rejection, no approximation — and deterministic for a
// fixed Rng stream.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace cbl::load {

/// Uniform double in [0, 1) using 53 bits of the Rng stream. Shared by
/// every sampler in this library so seed replay covers all of them.
double uniform_unit(Rng& rng);

/// Zipf(s) over ranks {0, ..., n-1}: P(rank = k) = (k+1)^-s / H(n, s)
/// with H the generalized harmonic number. Rank 0 is the most popular.
/// s = 0 degenerates to uniform.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument for n == 0 or s < 0.
  ZipfSampler(std::size_t n, double s);

  /// One rank draw by CDF inversion.
  std::size_t sample(Rng& rng) const;

  /// Closed-form probability of a rank, for shape tests.
  double pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }
  double skew() const { return s_; }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k); back() == 1.0
  double s_;
  double norm_;  // H(n, s)
};

}  // namespace cbl::load
