// Order statistics over measured samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] with linear interpolation between the two
/// nearest ranks; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Quantile `q` of samples measured in whole units (simulated microseconds):
/// a sample x stands for a value spread evenly over [x, x + 1), so the
/// result moves with the share of samples at x instead of sticking to the
/// integer for every seed.
inline double quantile_grouped(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const auto at = std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const double x = v[at];
  const auto lo = std::lower_bound(v.begin(), v.end(), x);
  const auto hi = std::upper_bound(v.begin(), v.end(), x);
  const auto below = static_cast<double>(lo - v.begin());
  return x + std::min(1.0, (rank - below) / static_cast<double>(hi - lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
