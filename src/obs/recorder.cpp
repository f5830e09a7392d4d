#include "obs/recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "obs/merge.hpp"

namespace cts::obs {

std::string Recorder::summary() {
  sync_sim_stats();
  std::ostringstream out;
  out << metrics_.summary();
  // detlint:allow(hot-path-map): export-time tally over the finished trace,
  // not a per-event path; sorted-by-name output is the point.
  std::map<std::string, std::size_t> tallies;
  for (const auto& e : trace_.events()) ++tallies[to_string(e.kind)];
  for (const auto& [name, n] : tallies) out << "trace." << name << " " << n << "\n";
  if (trace_.dropped() > 0) out << "trace.dropped " << trace_.dropped() << "\n";
  return out.str();
}

namespace {

/// The variable parser behind export_from_env and export_merged_from_env:
/// calls `write_metrics` / `write_trace` with each path the variables
/// request for `label`.  Returns the number of files written.
template <typename WriteMetrics, typename WriteTrace>
int export_to_env_paths(const std::string& label, WriteMetrics write_metrics,
                        WriteTrace write_trace) {
  int written = 0;
  auto emit = [&](const std::string& metrics_path, const std::string& trace_path) {
    // The variables are an explicit request to export, so a failed write
    // (typically a missing directory) warns instead of silently skipping.
    if (!metrics_path.empty()) {
      if (write_metrics(metrics_path)) ++written;
      else std::fprintf(stderr, "warning: could not write metrics to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      if (write_trace(trace_path)) ++written;
      else std::fprintf(stderr, "warning: could not write trace to %s\n", trace_path.c_str());
    }
  };
  if (const char* dir = std::getenv("CTS_OBS_DIR"); dir && *dir) {
    const std::string base = std::string(dir) + "/" + label;
    emit(base + ".metrics.json", base + ".trace.jsonl");
  }
  const char* mj = std::getenv("CTS_METRICS_JSON");
  const char* tj = std::getenv("CTS_TRACE_JSONL");
  emit(mj ? mj : "", tj ? tj : "");
  return written;
}

}  // namespace

int export_from_env(Recorder& rec, const std::string& label) {
  rec.sync_sim_stats();
  return export_to_env_paths(
      label, [&](const std::string& path) { return rec.metrics().write_json(path); },
      [&](const std::string& path) { return rec.trace().write_jsonl(path); });
}

// Declared in obs/merge.hpp; defined here to share the parser.
int export_merged_from_env(const std::vector<Recorder*>& islands, const std::string& label) {
  return export_to_env_paths(
      label, [&](const std::string& path) { return export_merged_files(islands, path, ""); },
      [&](const std::string& path) { return export_merged_files(islands, "", path); });
}

}  // namespace cts::obs
