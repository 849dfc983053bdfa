// Quickstart: build the simulated Haswell-EP server, the data-oriented
// in-memory engine, and the Energy-Control Loop; drive a key-value
// workload at 40 % load and compare energy against the race-to-idle
// baseline.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "experiment/experiment.h"
#include "workload/kv.h"
#include "workload/load_profile.h"

using namespace ecldb;

int main() {
  // A workload factory builds the benchmark against a fresh engine; here:
  // the paper's custom key-value store, non-indexed (bandwidth-bound
  // partition scans).
  experiment::WorkloadFactory factory =
      [](engine::Engine* engine) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    return std::make_unique<workload::KvWorkload>(engine, params);
  };

  // 40 % of the baseline capacity for 30 seconds (virtual time; this runs
  // in a few wall-clock seconds).
  workload::ConstantProfile load(0.4, Seconds(30));

  // A rig builds machine + engine + workload + controller; Run primes it,
  // drives the load and drains every query. A rig runs once.
  experiment::RunOptions baseline;
  baseline.mode = experiment::ControlMode::kBaseline;
  experiment::NodeRig base_rig(factory, baseline);
  const experiment::RunResult base = experiment::Run(base_rig, load);

  experiment::RunOptions with_ecl;
  with_ecl.mode = experiment::ControlMode::kEcl;
  with_ecl.ecl.system.latency_limit_ms = 100.0;  // the soft constraint
  experiment::NodeRig ecl_rig(factory, with_ecl);
  const experiment::RunResult ecl = experiment::Run(ecl_rig, load);

  std::printf("baseline: %6.1f W avg, p99 latency %5.1f ms\n",
              base.avg_power_w, base.p99_ms);
  std::printf("ECL:      %6.1f W avg, p99 latency %5.1f ms\n",
              ecl.avg_power_w, ecl.p99_ms);
  std::printf("energy saving: %.1f %%\n", experiment::SavingsPercent(base, ecl));
  std::printf("most energy-efficient configuration found: %s\n",
              ecl.best_config.c_str());
  return 0;
}
