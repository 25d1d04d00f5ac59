// Exact-sample statistics: every quantile is one of the observed values
// (nearest rank), never an interpolation between them or inside a bucket.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty())
    return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty())
    return 0.0;
  double sum = 0.0;
  for (const double v : values)
    sum += v;
  return sum / static_cast<double>(values.size());
}

} // namespace perfbench
