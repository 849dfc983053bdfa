// Workload-shift scenario: the DBMS workload changes character at runtime
// (indexed OLTP-style point lookups -> non-indexed analytical scans). The
// ECL's drift detection notices that the applied configuration no longer
// behaves as its energy profile predicted, flags the profile, and the
// multiplexed adaptation relearns it while serving queries.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/workload_shift
#include <cstdio>

#include "experiment/drift_trace.h"
#include "hwsim/machine.h"

using namespace ecldb;

int main() {
  // The runner primes the energy profiles on the indexed workload for 30 s,
  // then drives the phases: indexed at 50 % load for 20 s, then scans at
  // 50 % load for 40 s.
  experiment::DriftTraceParams params;
  params.phases = {
      {experiment::DriftWorkload::kIndexed, 0.5, Seconds(20), Seconds(20)},
      {experiment::DriftWorkload::kScan, 0.5, Seconds(40), Seconds(40)}};
  const experiment::DriftTraceResult r = experiment::RunDriftTrace(params);

  std::printf("%-6s %-10s\n", "t s", "power W");
  for (size_t t = 0; t < r.power_w.size(); ++t) {
    std::printf("%-6zu %-10.1f%s\n", t + 1, r.power_w[t],
                t + 1 == 21 ? "   <-- workload switch" : "");
  }

  const hwsim::Topology topo = hwsim::MachineParams::HaswellEp().topology;
  std::printf("\n%-12s %-8s %-10s %s\n", "phase", "adapt s", "mux evals",
              "best config");
  for (const experiment::DriftTracePhase& ph : r.phases) {
    char best[64] = "-";
    if (ph.best_config) {
      const hwsim::SocketConfig& hw = ph.best_config->hw;
      std::snprintf(best, sizeof(best), "%2d thr @ %.1f GHz, uncore %.1f",
                    hw.ActiveThreadCount(), hw.MeanActiveCoreFreq(topo),
                    hw.uncore_freq_ghz);
    }
    std::printf("%-12s %-8.0f %-10lld %s\n", ph.workload.c_str(), ph.adapt_s,
                static_cast<long long>(ph.evals), best);
  }
  std::printf(
      "\nAfter the switch, drift detection invalidates the profile and the "
      "multiplexed adaptation reevaluates configurations in the background "
      "until the new optimum is found (adapt s: seconds until no "
      "configuration was left stale; -1: never).\n");
  return 0;
}
