// Latency-SLA scenario: the ECL treats a user-defined query latency limit
// as a soft constraint. This example sweeps the limit and shows the
// energy/latency trade-off under the bursty twitter-like load profile —
// tighter limits force the system-level ECL to keep more capacity online.
#include <cstdio>
#include <memory>

#include "experiment/experiment.h"
#include "workload/kv.h"
#include "workload/load_profile.h"

using namespace ecldb;

int main() {
  experiment::WorkloadFactory factory =
      [](engine::Engine* engine) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = true;  // latency-bound point lookups
    return std::make_unique<workload::KvWorkload>(engine, params);
  };
  workload::TwitterProfile load(/*seed=*/7, Seconds(60));

  std::printf("%-12s %-12s %-10s %-10s %-12s\n", "limit ms", "avg power W",
              "p99 ms", "viol %", "saving %");

  experiment::RunOptions baseline;
  baseline.mode = experiment::ControlMode::kBaseline;
  experiment::NodeRig base_rig(factory, baseline);
  const experiment::RunResult base = experiment::Run(base_rig, load);
  std::printf("%-12s %-12.1f %-10.1f %-10.2f %-12s\n", "baseline",
              base.avg_power_w, base.p99_ms, 0.0, "-");

  for (double limit_ms : {400.0, 100.0, 30.0}) {
    experiment::RunOptions options;
    options.mode = experiment::ControlMode::kEcl;
    options.ecl.system.latency_limit_ms = limit_ms;
    experiment::NodeRig rig(factory, options);
    const experiment::RunResult r = experiment::Run(rig, load);
    std::printf("%-12.0f %-12.1f %-10.1f %-10.2f %-12.1f\n", limit_ms,
                r.avg_power_w, r.p99_ms, 100.0 * r.violation_frac,
                experiment::SavingsPercent(base, r));
  }
  std::printf(
      "\nThe limit is a SOFT constraint: a reactive control loop cannot "
      "guarantee it, but pressure from the system-level ECL curbs "
      "race-to-idle and raises discovery aggressiveness as the limit "
      "approaches.\n");
  return 0;
}
