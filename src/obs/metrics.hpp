// MetricsRegistry: named counters, gauges and Histogram-backed timers.
//
// The paper's evaluation (Figures 5-6, the 1/9,977/22 CCS message split,
// the ~51us token-passing density) is assembled from per-layer counts and
// latency densities.  This registry gives every layer one place to put
// them, cheap enough to leave enabled in benches: hot paths hold a
// Counter* obtained once via counter() — incrementing is a single add on a
// stable heap slot — and only export walks the name maps.
//
// Lookup-by-name takes std::string_view throughout: a probe with a string
// literal or a composed name does not materialize a temporary std::string
// (the maps use transparent less<> comparison); only get-or-create inserts
// allocate, and only on first use of a name.
//
// Zero dependencies beyond the standard library; JSON is emitted by hand.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.hpp"
#include "common/types.hpp"

namespace cts::obs {

/// A monotonically increasing count.  References returned by
/// MetricsRegistry::counter() are stable for the registry's lifetime, so
/// instrumented layers cache the pointer and skip the map lookup.
struct Counter {
  std::uint64_t value = 0;

  Counter& operator++() {
    ++value;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    value += n;
    return *this;
  }
};

class MetricsRegistry {
 public:
  /// Get-or-create a counter.  The returned reference is stable: counters
  /// live in a node-based map and are never removed.
  Counter& counter(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end()) it = counters_.try_emplace(std::string(name)).first;
    return it->second;
  }

  /// Current value, or 0 if the counter was never created.  Lookup does not
  /// create the counter, so probing for absent names is side-effect free.
  [[nodiscard]] std::uint64_t value(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
  }

  /// Set a point-in-time gauge (last observed value wins).
  void set_gauge(std::string_view name, std::int64_t v) { gauge_slot(name) = v; }

  /// Get-or-create a gauge's storage slot.  Stable reference (node-based
  /// map): export/sync paths resolve the slot once and assign through it.
  std::int64_t& gauge_slot(std::string_view name) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name), 0).first;
    return it->second;
  }

  /// Get-or-create a histogram timer.  bin_width/max_value apply only on
  /// creation; later calls with the same name return the existing instance.
  Histogram& histogram(std::string_view name, Micros bin_width, Micros max_value) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.try_emplace(std::string(name), bin_width, max_value).first;
    }
    return it->second;
  }

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Whole registry as a JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  ///    mean, p50, p99, min, max, mode_bin, underflow, overflow, bin_width,
  ///    density: [[bin_start_us, count_fraction], ...]}}}
  [[nodiscard]] std::string to_json() const;

  /// Human-readable dump: one "name value" line per counter/gauge plus one
  /// summary line per histogram.
  [[nodiscard]] std::string summary() const;

  /// Write to_json() to `path`.  Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  // Deliberately std::map, not cts::FlatMap: counter()/gauge_slot()
  // references must stay stable for the registry's lifetime (hot paths
  // cache Counter*), which requires node-based storage.  These maps are
  // only walked at export time.  std::less<> enables string_view probes
  // without a temporary std::string.
  // detlint:allow(hot-path-map): node-based storage is the point — stable
  // Counter&/gauge references; lookups are amortized away by handle caching.
  std::map<std::string, Counter, std::less<>> counters_;
  // detlint:allow(hot-path-map): same stable-reference requirement as
  // counters_ (gauge_slot hands out long-lived slot references).
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  // detlint:allow(hot-path-map): histograms are created once and looked up
  // at export; Histogram& references must survive later creations.
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace cts::obs
