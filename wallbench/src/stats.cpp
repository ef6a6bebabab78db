#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wallbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const double frac = rank - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  if (frac == 0.0 || lo + 1 == values.size()) return lo_value;
  // After nth_element every element past lo_it is >= it, so the next
  // order statistic is the minimum of that tail.
  const double hi_value = *std::min_element(lo_it + 1, values.end());
  return lo_value + frac * (hi_value - lo_value);
}

double quantile_of(std::vector<double> values, double q) {
  return quantile(values, q);
}

double tail_q(std::size_t n, std::size_t beyond) {
  if (n == 0) return 0.5;
  const double q =
      1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.99);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace wallbench
