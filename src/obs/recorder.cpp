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

/// The CTS_OBS_DIR parser behind export_from_env and export_merged_from_env:
/// calls `write_metrics` / `write_trace` with `<dir>/<label>.metrics.json`
/// and `<dir>/<label>.trace.jsonl`.  Returns the number of files written.
template <typename WriteMetrics, typename WriteTrace>
int export_to_obs_dir(const std::string& label, WriteMetrics write_metrics,
                      WriteTrace write_trace) {
  const char* dir = std::getenv("CTS_OBS_DIR");
  if (dir == nullptr || *dir == '\0') return 0;
  const std::string base = std::string(dir) + "/" + label;
  // The variable is an explicit request to export, so a failed write
  // (typically a missing directory) warns instead of silently skipping.
  int written = 0;
  auto emit = [&](auto& write, const std::string& path, const char* what) {
    if (write(path)) ++written;
    else std::fprintf(stderr, "warning: could not write %s to %s\n", what, path.c_str());
  };
  emit(write_metrics, base + ".metrics.json", "metrics");
  emit(write_trace, base + ".trace.jsonl", "trace");
  return written;
}

}  // namespace

int export_from_env(Recorder& rec, const std::string& label) {
  rec.sync_sim_stats();
  return export_to_obs_dir(
      label, [&](const std::string& path) { return rec.metrics().write_json(path); },
      [&](const std::string& path) { return rec.trace().write_jsonl(path); });
}

// Declared in obs/merge.hpp; defined here to share the parser.
int export_merged_from_env(const std::vector<Recorder*>& islands, const std::string& label) {
  return export_to_obs_dir(
      label, [&](const std::string& path) { return export_merged_files(islands, path, ""); },
      [&](const std::string& path) { return export_merged_files(islands, "", path); });
}

}  // namespace cts::obs
