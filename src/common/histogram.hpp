// Latency histogram / probability-density estimation.
//
// The paper's Figure 5 plots the probability density function of end-to-end
// latency in microsecond bins; this helper accumulates samples and emits the
// same representation, plus the usual summary statistics for EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace cts {

/// Fixed-bin histogram over Micros samples.
class Histogram {
 public:
  /// Bins of `bin_width` microseconds covering [0, max_value); samples at or
  /// beyond max_value land in a single overflow bin.
  Histogram(Micros bin_width, Micros max_value)
      : bin_width_(bin_width), bins_(static_cast<std::size_t>(max_value / bin_width) + 1, 0) {}

  /// Negative samples indicate a causality bug upstream (a clock that ran
  /// backwards, a receive stamped before its send); they are counted in a
  /// dedicated underflow stat instead of being folded into bin 0 where they
  /// would silently distort the density.
  void add(Micros sample) {
    if (sample < 0) {
      ++underflow_;
      underflow_min_ = std::min(underflow_min_, sample);
      return;
    }
    samples_.push_back(sample);
    sorted_ = false;
    auto idx = static_cast<std::size_t>(sample / bin_width_);
    if (idx >= bins_.size()) idx = bins_.size() - 1;
    ++bins_[idx];
  }

  /// Number of non-negative samples recorded (underflow excluded).
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  /// Number of negative samples rejected by add().
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }

  /// Most negative sample seen, or 0 if none underflowed.
  [[nodiscard]] Micros underflow_min() const { return underflow_ ? underflow_min_ : 0; }

  /// Samples at or beyond max_value (they share the final catch-all bin).
  [[nodiscard]] std::uint64_t overflow() const { return bins_.back(); }

  [[nodiscard]] Micros bin_width() const { return bin_width_; }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double acc = 0.0;
    for (auto s : samples_) acc += static_cast<double>(s);
    return acc / static_cast<double>(samples_.size());
  }

  /// q in [0,1]; e.g. 0.5 = median, 0.99 = p99.
  [[nodiscard]] Micros percentile(double q) const {
    if (samples_.empty()) return 0;
    sort();
    auto idx = static_cast<std::size_t>(q * static_cast<double>(samples_.size() - 1));
    return samples_[idx];
  }

  [[nodiscard]] Micros min() const { return samples_.empty() ? 0 : (sort(), samples_.front()); }
  [[nodiscard]] Micros max() const { return samples_.empty() ? 0 : (sort(), samples_.back()); }

  /// Bin with the highest density (the distribution's mode) — the paper
  /// reports the token-passing time as "peak probability density ~51us".
  /// The overflow catch-all is not a real bin and can never be the mode;
  /// its mass is visible via overflow() instead.
  [[nodiscard]] Micros mode_bin() const {
    if (bins_.size() < 2) return 0;
    auto it = std::max_element(bins_.begin(), bins_.end() - 1);
    return static_cast<Micros>(it - bins_.begin()) * bin_width_;
  }

  /// Probability density per bin (fraction of samples / bin).  Suitable for
  /// printing the Figure-5 style PDF rows.
  [[nodiscard]] std::vector<std::pair<Micros, double>> density() const {
    std::vector<std::pair<Micros, double>> out;
    const double n = static_cast<double>(samples_.empty() ? 1 : samples_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      if (bins_[i] == 0) continue;
      out.emplace_back(static_cast<Micros>(i) * bin_width_, static_cast<double>(bins_[i]) / n);
    }
    return out;
  }

 private:
  void sort() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  Micros bin_width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0;
  Micros underflow_min_ = 0;
  mutable std::vector<Micros> samples_;
  mutable bool sorted_ = false;
};

}  // namespace cts
