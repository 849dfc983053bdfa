// Golden determinism tests for the steady-state fast-forward: the same
// scripted scenario is run once with fast-forward disabled (every slice
// fully solved) and once enabled, and every software-visible counter must
// be bit-identical. This is the contract that makes the optimisation safe
// to leave on everywhere (see docs/architecture.md).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/load_profile.h"
#include "workload/micro.h"
#include "workload/work_profiles.h"

namespace ecldb::hwsim {
namespace {

/// Everything software can observe about a Machine at the end of a run.
struct Observed {
  std::vector<uint64_t> rapl_uj;       // socket-major, {pkg, dram}
  std::vector<double> exact_j;         // same order
  std::vector<uint64_t> instructions;  // per hardware thread
  std::vector<double> ops_credit;      // per hardware thread
  std::vector<double> core_freq;       // effective, per socket thread 0
  double total_j = 0.0;
};

Observed Collect(Machine* machine) {
  Observed o;
  const Topology& topo = machine->topology();
  for (SocketId s = 0; s < topo.num_sockets; ++s) {
    for (RaplDomain d : {RaplDomain::kPackage, RaplDomain::kDram}) {
      o.rapl_uj.push_back(machine->ReadRaplUj(s, d));
      o.exact_j.push_back(machine->ExactEnergyJoules(s, d));
    }
    o.core_freq.push_back(
        machine->effective_config().sockets[static_cast<size_t>(s)]
            .core_freq_ghz[0]);
  }
  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    o.instructions.push_back(machine->ReadInstructions(t));
    o.ops_credit.push_back(machine->TakeCompletedOps(t));
  }
  o.total_j = machine->TotalEnergyJoules();
  return o;
}

/// The scripted scenario: long idle gaps (C6 promotion), an EET-delayed
/// turbo grant crossed mid-gap, turbo-budget drain to exhaustion under
/// Firestarter, partial slices at odd times, and load/config churn.
Observed RunScenario(bool fast_forward) {
  sim::Simulator sim;
  sim.set_fast_forward(fast_forward);
  Machine machine(&sim, MachineParams::HaswellEp());
  const Topology& topo = machine.topology();

  // 1. Long idle stretch: crosses the shallow->deep C-state promotion and
  //    then stays stationary for thousands of slices.
  sim.RunFor(Seconds(3));

  // 2. Balanced EPB with a turbo request: the 1 s EET grant boundary lies
  //    in the middle of an otherwise stationary 2 s window.
  machine.SetEpb(EpbSetting::kBalanced);
  machine.ApplySocketConfig(0, SocketConfig::FirstThreads(topo, 2, 3.1, 1.2));
  machine.SetThreadLoad(0, &workload::ComputeBound(), 1.0);
  sim.RunFor(Seconds(2));

  // 3. Partial slices at off-grid times.
  sim.RunFor(Micros(1500));
  machine.SetThreadLoad(0, &workload::ComputeBound(), 0.7);
  sim.RunFor(Micros(700));

  // 4. Turbo-budget drain: all-core Firestarter above the sustainable
  //    power threshold; the budget-exhaustion boundary interrupts the
  //    stationary window and the grant is revoked.
  machine.SetEpb(EpbSetting::kPerformance);
  machine.ApplySocketConfig(0, SocketConfig::AllOn(topo, 3.1, 3.0));
  for (int t = 0; t < topo.threads_per_socket(); ++t) {
    machine.SetThreadLoad(t, &workload::Firestarter(), 1.0);
  }
  sim.RunFor(Seconds(3));

  // 5. Back to idle across the C6 promotion again, then a short re-wake.
  machine.ClearThreadLoads();
  machine.ApplySocketConfig(0, SocketConfig::Idle(topo));
  sim.RunFor(Seconds(2));
  machine.ApplySocketConfig(1, SocketConfig::FirstThreads(topo, 1, 1.2, 1.2));
  machine.SetThreadLoad(topo.threads_per_socket(), &workload::MemoryScan(),
                        0.5);
  sim.RunFor(Millis(333));

  return Collect(&machine);
}

TEST(FastForwardGoldenTest, MachineCountersBitIdentical) {
  const Observed slow = RunScenario(false);
  const Observed fast = RunScenario(true);
  ASSERT_EQ(slow.rapl_uj.size(), fast.rapl_uj.size());
  for (size_t i = 0; i < slow.rapl_uj.size(); ++i) {
    EXPECT_EQ(slow.rapl_uj[i], fast.rapl_uj[i]) << "rapl domain " << i;
    EXPECT_EQ(slow.exact_j[i], fast.exact_j[i]) << "exact energy " << i;
  }
  ASSERT_EQ(slow.instructions.size(), fast.instructions.size());
  for (size_t t = 0; t < slow.instructions.size(); ++t) {
    EXPECT_EQ(slow.instructions[t], fast.instructions[t]) << "thread " << t;
    EXPECT_EQ(slow.ops_credit[t], fast.ops_credit[t]) << "thread " << t;
  }
  for (size_t s = 0; s < slow.core_freq.size(); ++s) {
    EXPECT_EQ(slow.core_freq[s], fast.core_freq[s]) << "socket " << s;
  }
  EXPECT_EQ(slow.total_j, fast.total_j);
}

TEST(FastForwardGoldenTest, FastForwardActuallyEngages) {
  // Sanity check that the fast path is reachable at all: a clean steady
  // window must report a stationarity horizon beyond `now`. Without this,
  // the bit-identity test above would pass vacuously.
  sim::Simulator sim;
  sim.set_fast_forward(true);
  ASSERT_TRUE(sim.fast_forward_enabled());
  Machine machine(&sim, MachineParams::HaswellEp());
  machine.SetThreadLoad(0, &workload::ComputeBound(), 1.0);
  sim.RunFor(Seconds(1));
  EXPECT_TRUE(sim.fast_forward_enabled());
}

experiment::WorkloadFactory MicroFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    return std::make_unique<workload::MicroWorkload>(
        e, workload::ComputeBound(), 1e6, 2);
  };
}

experiment::RunResult RunMicro(const workload::LoadProfile& profile,
                               const experiment::RunOptions& options) {
  experiment::NodeRig rig(MicroFactory(), options);
  return experiment::Run(rig, profile);
}

void ExpectResultsIdentical(const experiment::RunResult& a,
                            const experiment::RunResult& b) {
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.capacity_qps, b.capacity_qps);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p95_ms, b.p95_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.max_ms, b.max_ms);
  EXPECT_EQ(a.violation_frac, b.violation_frac);
  EXPECT_EQ(a.best_config, b.best_config);
  // Whole rows, every column (per-socket power and partitions included).
  EXPECT_EQ(a.series.header, b.series.header);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series.rows[i], b.series.rows[i]) << i;
  }
}

TEST(FastForwardGoldenTest, BaselineExperimentBitIdentical) {
  workload::ConstantProfile profile(0.4, Seconds(6));
  experiment::RunOptions options;
  options.mode = experiment::ControlMode::kBaseline;
  options.prime_duration = Seconds(2);
  options.fast_forward = false;
  const experiment::RunResult slow = RunMicro(profile, options);
  options.fast_forward = true;
  const experiment::RunResult fast = RunMicro(profile, options);
  ExpectResultsIdentical(slow, fast);
}

TEST(FastForwardGoldenTest, EclExperimentBitIdentical) {
  // The full stack: scheduler, ECL controllers, profile evaluator, and
  // machine all advancing together. The ECL writes configurations and the
  // scheduler migrates work, so the run alternates between stationary
  // windows and re-solve churn.
  workload::ConstantProfile profile(0.3, Seconds(6));
  experiment::RunOptions options;
  options.mode = experiment::ControlMode::kEcl;
  options.prime_duration = Seconds(5);
  options.fast_forward = false;
  const experiment::RunResult slow = RunMicro(profile, options);
  options.fast_forward = true;
  const experiment::RunResult fast = RunMicro(profile, options);
  ExpectResultsIdentical(slow, fast);
}

}  // namespace
}  // namespace ecldb::hwsim
