#ifndef ECLDB_BENCH_ADAPTATION_EXPERIMENT_H_
#define ECLDB_BENCH_ADAPTATION_EXPERIMENT_H_

// Shared runner for the Figure 15/16 energy-profile adaptation experiment:
// the workload suddenly switches from the indexed to the non-indexed
// key-value benchmark at t = 40 s (a major workload change); the database
// load is fixed to 50 %; the three ECL settings differ in how the energy
// profile is maintained (static / online / multiplexed).

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ecl/ecl.h"
#include "engine/engine.h"
#include "experiment/node_rig.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

namespace ecldb::bench {

enum class AdaptationMode { kStatic, kOnline, kMultiplexed };

inline const char* AdaptationName(AdaptationMode mode) {
  switch (mode) {
    case AdaptationMode::kStatic:
      return "ECL static";
    case AdaptationMode::kOnline:
      return "ECL online";
    case AdaptationMode::kMultiplexed:
      return "ECL multiplexed";
  }
  return "?";
}

struct AdaptationResult {
  std::vector<double> power_w;      // sampled once per second
  double energy_j = 0.0;            // total over the 120 s run
  double energy_after_switch_j = 0.0;
  double mean_ms_after = 0.0;       // latency stats after the switch
  double p99_ms_after = 0.0;
  double violation_frac_after = 0.0;
  std::string final_best_config;
};

inline AdaptationResult RunAdaptationExperiment(AdaptationMode mode) {
  // All modes prime on the indexed workload, so they start with an
  // accurate profile of the OLD workload; the scan workload is built right
  // after it and parked here.
  std::unique_ptr<workload::KvWorkload> scan;
  experiment::NodeRig rig(
      [&scan](engine::Engine* engine) {
        workload::KvParams pi;
        pi.indexed = true;
        auto indexed = std::make_unique<workload::KvWorkload>(engine, pi);
        workload::KvParams ps;
        ps.indexed = false;
        scan = std::make_unique<workload::KvWorkload>(engine, ps);
        return indexed;
      },
      experiment::RunOptions{});
  sim::Simulator& sim = rig.simulator();
  hwsim::Machine& machine = rig.machine();
  engine::Engine& engine = rig.engine();
  ecl::EnergyControlLoop& loop = *rig.loop();
  rig.Prime();
  switch (mode) {
    case AdaptationMode::kStatic:
      loop.SetAdaptation(false, false);
      break;
    case AdaptationMode::kOnline:
      loop.SetAdaptation(true, false);
      break;
    case AdaptationMode::kMultiplexed:
      loop.SetAdaptation(true, true);
      break;
  }

  // Phase 1: indexed workload at 50 % load for 40 s.
  workload::ConstantProfile phase1(0.5, Seconds(40));
  workload::DriverParams dp1;
  dp1.capacity_qps = rig.capacity();
  workload::LoadDriver driver1(&sim, &engine, &rig.workload(), &phase1, dp1);

  // Phase 2: sudden switch to the non-indexed workload for 80 s.
  workload::ConstantProfile phase2(0.5, Seconds(80));
  workload::DriverParams dp2;
  dp2.capacity_qps = workload::BaselineCapacityQps(machine.params(), *scan);
  workload::LoadDriver driver2(&sim, &engine, scan.get(), &phase2, dp2);

  AdaptationResult result;
  const double e0 = machine.TotalEnergyJoules();
  driver1.Start();
  double e_at_switch = 0.0;
  double e_prev = e0;
  // t is the elapsed time at the start of each 1 s step; phase 1 ends and
  // the scan workload starts at exactly 40 s.
  for (int t = 0; t < 120; ++t) {
    if (t == 40) {
      driver2.Start();
      e_at_switch = machine.TotalEnergyJoules();
      engine.latency().ResetRunStats();
    }
    sim.RunFor(Seconds(1));
    // Per-second average power (instantaneous reads alias with RTI).
    const double e = machine.TotalEnergyJoules();
    result.power_w.push_back(e - e_prev);
    e_prev = e;
  }
  result.energy_j = machine.TotalEnergyJoules() - e0;
  result.energy_after_switch_j = machine.TotalEnergyJoules() - e_at_switch;
  result.mean_ms_after = engine.latency().all().Mean();
  result.p99_ms_after = engine.latency().all().Percentile(99);
  result.violation_frac_after = engine.latency().all().FractionAbove(
      rig.options().ecl.system.latency_limit_ms);
  const profile::EnergyProfile& prof = loop.socket(0).profile();
  if (prof.MostEfficientIndex() >= 0) {
    result.final_best_config = Describe(
        machine.topology(), prof.config(prof.MostEfficientIndex()));
  }
  return result;
}

}  // namespace ecldb::bench

#endif  // ECLDB_BENCH_ADAPTATION_EXPERIMENT_H_
