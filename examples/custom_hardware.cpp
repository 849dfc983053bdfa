// Custom-hardware scenario: the ECL's energy profiles are hardware
// independent (paper Section 7: no hand-crafted models, measured at
// runtime). The same code runs unchanged on the paper's Haswell-EP and on
// a newer Skylake-SP-class machine — and even on a user-defined topology.
#include <cstdio>
#include <memory>

#include "experiment/experiment.h"
#include "workload/kv.h"
#include "workload/load_profile.h"

using namespace ecldb;

namespace {

void Compare(const char* name, const hwsim::MachineParams& machine) {
  experiment::WorkloadFactory factory =
      [](engine::Engine* engine) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    return std::make_unique<workload::KvWorkload>(engine, params);
  };
  workload::ConstantProfile load(0.35, Seconds(25));

  experiment::RunOptions base;
  base.machine = machine;
  base.mode = experiment::ControlMode::kBaseline;
  experiment::RunOptions ecl = base;
  ecl.mode = experiment::ControlMode::kEcl;

  experiment::NodeRig base_rig(factory, base);
  const auto rb = experiment::Run(base_rig, load);
  experiment::NodeRig ecl_rig(factory, ecl);
  const auto re = experiment::Run(ecl_rig, load);
  std::printf("%-28s %2d sockets x %2d cores | baseline %6.1f W | ECL %6.1f W "
              "| saving %4.1f %% | best: %s\n",
              name, machine.topology.num_sockets,
              machine.topology.cores_per_socket, rb.avg_power_w,
              re.avg_power_w, experiment::SavingsPercent(rb, re),
              re.best_config.c_str());
}

}  // namespace

int main() {
  std::printf("non-indexed key-value store at 35 %% load, 100 ms limit\n\n");
  Compare("Haswell-EP (paper's SUT)", hwsim::MachineParams::HaswellEp());
  Compare("Skylake-SP class", hwsim::MachineParams::SkylakeSp());

  // A hypothetical narrow edge server: one socket, six cores.
  hwsim::MachineParams edge = hwsim::MachineParams::HaswellEp();
  edge.topology = hwsim::Topology{1, 6, 2};
  edge.power.pkg_base_halted_w = {8.0};
  edge.bandwidth.peak_gbps = 25.0;
  Compare("custom edge box (1x6 cores)", edge);

  std::printf(
      "\nNo controller code changes between machines: the configuration "
      "generator enumerates whatever the frequency tables/topology offer, "
      "and the profiles are measured through RAPL-style counters at "
      "runtime.\n");
  return 0;
}
