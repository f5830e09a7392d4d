#include "obs/merge.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace cts::obs {

namespace {

struct Tagged {
  TraceEvent e;
  std::size_t island;
  std::size_t pos;  // record order within the island
};

}  // namespace

std::string merged_trace_jsonl(const std::vector<Recorder*>& islands) {
  std::vector<Tagged> all;
  std::size_t total = 0;
  for (const Recorder* rec : islands) total += rec->trace().events().size();
  all.reserve(total);
  for (std::size_t i = 0; i < islands.size(); ++i) {
    std::size_t p = 0;
    for (const TraceEvent& e : islands[i]->trace().events()) all.push_back(Tagged{e, i, p++});
  }
  // Each island's log is already non-decreasing in `at`; the canonical
  // total order is (at, island, within-island position).
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.e.at != y.e.at) return x.e.at < y.e.at;
    if (x.island != y.island) return x.island < y.island;
    return x.pos < y.pos;
  });

  std::ostringstream out;
  for (const Tagged& t : all) {
    const TraceEvent& e = t.e;
    out << "{\"at\": " << e.at << ", \"island\": " << t.island << ", \"kind\": \""
        << to_string(e.kind) << "\", \"node\": ";
    if (e.node == NodeId::kInvalid) {
      out << "null";
    } else {
      out << e.node;
    }
    out << ", \"replica\": ";
    if (e.replica == ReplicaId::kInvalid) {
      out << "null";
    } else {
      out << e.replica;
    }
    out << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"c\": " << e.c << "}\n";
  }
  return out.str();
}

std::string merged_metrics_json(const std::vector<Recorder*>& islands) {
  std::ostringstream out;
  out << "{\"islands\": [";
  for (std::size_t i = 0; i < islands.size(); ++i) {
    islands[i]->sync_sim_stats();
    if (i != 0) out << ", ";
    out << "{\"island\": " << i << ", \"metrics\": " << islands[i]->metrics().to_json() << "}";
  }
  out << "]}\n";
  return out.str();
}

bool export_merged_files(const std::vector<Recorder*>& islands,
                         const std::string& metrics_path, const std::string& trace_path) {
  bool ok = true;
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    if (f) f << merged_metrics_json(islands);
    ok = ok && static_cast<bool>(f);
  }
  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    if (f) f << merged_trace_jsonl(islands);
    ok = ok && static_cast<bool>(f);
  }
  return ok;
}

}  // namespace cts::obs
