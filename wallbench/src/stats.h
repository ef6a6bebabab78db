// Sample statistics for the wall-clock benchmark: exact quantiles over
// recorded samples (no histogram bucketing), and the "highest percentile
// that still has ten samples beyond it" rule used for tail metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace wallbench {

/// Linear-interpolated quantile (the "type 7" estimator: rank q*(n-1)
/// between the two nearest order statistics). `q` is clamped to [0, 1].
/// Selection-based, so `values` is reordered. Returns 0 for no samples.
double quantile(std::vector<double>& values, double q);

/// Copying convenience overload.
double quantile_of(std::vector<double> values, double q);

/// The highest percentile, at most p99, with at least `beyond` samples
/// above it: q = 1 - beyond / n, capped at 0.99 and floored at 0.5.
double tail_q(std::size_t n, std::size_t beyond = 10);

double mean(const std::vector<double>& values);

}  // namespace wallbench
