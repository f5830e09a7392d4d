// Deterministic merge of per-island Recorder streams.
//
// A parallel (archipelago) run produces one Recorder per island; exporting
// them as one document must not depend on worker count or thread timing.
// Both merges below are pure functions of the recorders' contents and the
// island order the caller passes (island ids ascending, by convention):
//
//   * merged_trace_jsonl — one JSONL stream ordered by (time, island,
//     within-island record order).  Rows are the standard TraceLog format
//     with an "island" field appended;
//   * merged_metrics_json — {"islands": [{"island": i, "metrics": ...}]}
//     with each island's registry rendered by its own to_json().
//
// The double-run determinism test diffs these byte-for-byte between serial
// and parallel executions of the same archipelago.
#pragma once

#include <string>
#include <vector>

namespace cts::obs {

class Recorder;

/// Merge the islands' trace logs into one JSONL document, ordered by
/// (at, island index, record order).  Each row is TraceLog::to_jsonl()'s
/// format plus `"island": <i>` after the "at" field.
[[nodiscard]] std::string merged_trace_jsonl(const std::vector<Recorder*>& islands);

/// All islands' metrics as one JSON object.  Syncs each island's simulator
/// stats into its registry first (same rule as single-island export).
[[nodiscard]] std::string merged_metrics_json(const std::vector<Recorder*>& islands);

/// Write both documents.  Empty path skips that file; returns true if every
/// requested write succeeded.
bool export_merged_files(const std::vector<Recorder*>& islands,
                         const std::string& metrics_path, const std::string& trace_path);

/// The multi-island analogue of export_from_env (recorder.hpp): honors
/// CTS_OBS_DIR, writing the *merged* documents.  Returns the number of files written; failed writes warn.
int export_merged_from_env(const std::vector<Recorder*>& islands, const std::string& label);

}  // namespace cts::obs
