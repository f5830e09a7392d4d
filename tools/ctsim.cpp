// ctsim — scenario driver for the consistent time service stack.
//
// Runs the full simulated testbed (client + replicated time server or KV
// store, one ring or many) under a user-specified topology, replication
// style, workload, network conditions, and fault schedule, then reports
// latency, CCS traffic, drift, and consistency checks (app/scenario.hpp).
// Several seeds run as a sweep across worker threads and print one JSON
// line per seed, in the order given, identical for any --threads value.
//
// Examples:
//   ctsim --servers 5 --invocations 2000
//   ctsim --style passive --checkpoint-every 10 --fault crash:0@200ms --invocations 500
//   ctsim --servers 3 --loss 0.02 --fault crash:2@100ms --fault recover:2@400ms --seed 9
//   ctsim --style semiactive --drift mean --mean-delay 45 --invocations 10000
//   ctsim --topology 4x3 --kv --seed 1-8 --threads 4 > sweep.jsonl
//   ctsim --kv --chaos 12 --invocations 120 --style passive --checkpoint-every 6 --seed 329
#include <cstdio>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "sim/sweep.hpp"

using namespace cts;
using namespace cts::app;

int main(int argc, char** argv) {
  const ScenarioArgs args = parse_scenario_args(argc, argv);
  if (!args.error.empty()) {
    if (args.error != "usage") std::fprintf(stderr, "%s\n", args.error.c_str());
    std::fprintf(stderr, "usage: %s [options]\n%s", argv[0], scenario_usage());
    return 2;
  }

  if (args.seeds.size() == 1) {
    const ScenarioResult r = run_scenario(args.spec);
    std::fputs(r.report.c_str(), stdout);
    return r.ok() ? 0 : 1;
  }

  // One scenario per seed; each runs its rings serially, and the workers
  // go to the seeds.  Each closure writes only its own verdict slot.
  std::vector<std::uint8_t> ok(args.seeds.size(), 0);
  sim::ScenarioSweep sweep;
  for (std::size_t i = 0; i < args.seeds.size(); ++i) {
    ScenarioSpec spec = args.spec;
    spec.seed = args.seeds[i];
    spec.threads = 1;
    spec.label = "ctsim-seed" + std::to_string(spec.seed);
    sweep.add(spec.label, [spec, &verdict = ok[i]] {
      const ScenarioResult r = run_scenario(spec);
      verdict = r.ok() ? 1 : 0;
      return r.json_line();
    });
  }
  bool all_ok = true;
  for (const sim::SweepResult& r : sweep.run(args.spec.threads)) {
    std::fputs(r.output.c_str(), stdout);
    all_ok = all_ok && ok[r.index] != 0;
  }
  return all_ok ? 0 : 1;
}
