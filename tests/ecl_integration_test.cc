#include <gtest/gtest.h>

#include <memory>

#include "experiment/drift_trace.h"
#include "experiment/experiment.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/micro.h"
#include "workload/work_profiles.h"

namespace ecldb {
namespace {

using experiment::ControlMode;
using experiment::RunOptions;
using experiment::RunResult;

experiment::WorkloadFactory KvScanFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

experiment::WorkloadFactory KvIndexedFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = true;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

RunOptions Options(ControlMode mode) {
  RunOptions o;
  o.mode = mode;
  o.prime_duration = Seconds(28);
  return o;
}

RunResult RunArm(const experiment::WorkloadFactory& factory,
                 const workload::LoadProfile& profile, ControlMode mode) {
  experiment::NodeRig rig(factory, Options(mode));
  return experiment::Run(rig, profile);
}

class EclIntegrationTest : public ::testing::Test {};

TEST_F(EclIntegrationTest, EclSavesEnergyAtHalfLoad) {
  workload::ConstantProfile profile(0.5, Seconds(20));
  const RunResult base =
      RunArm(KvScanFactory(), profile, ControlMode::kBaseline);
  const RunResult ecl =
      RunArm(KvScanFactory(), profile, ControlMode::kEcl);
  // Paper Section 6.2: energy savings between 15 % and ~40 % for the
  // bandwidth-bound key-value workload.
  const double savings = experiment::SavingsPercent(base, ecl);
  EXPECT_GT(savings, 15.0);
  EXPECT_LT(savings, 60.0);
  // Both modes keep up with the offered load.
  EXPECT_EQ(base.completed, base.submitted);
  EXPECT_EQ(ecl.completed, ecl.submitted);
}

TEST_F(EclIntegrationTest, EclNeverDrawsMoreThanBaseline) {
  // "The ECL never draws more power than the baseline, because only the
  // most energy-efficient configurations are applied" (Section 6.1).
  for (double load : {0.2, 0.6, 1.0}) {
    workload::ConstantProfile profile(load, Seconds(15));
    const RunResult base =
        RunArm(KvScanFactory(), profile, ControlMode::kBaseline);
    const RunResult ecl =
        RunArm(KvScanFactory(), profile, ControlMode::kEcl);
    EXPECT_LE(ecl.avg_power_w, base.avg_power_w * 1.02) << "load " << load;
  }
}

TEST_F(EclIntegrationTest, LatencyLimitHeldOutsideOverload) {
  workload::ConstantProfile profile(0.5, Seconds(20));
  const RunResult ecl =
      RunArm(KvScanFactory(), profile, ControlMode::kEcl);
  EXPECT_LT(ecl.violation_frac, 0.01);
  EXPECT_LT(ecl.p99_ms, 100.0);
}

TEST_F(EclIntegrationTest, SavingsGrowAsLoadShrinks) {
  // Energy proportionality: the ECL's relative savings are largest at low
  // load where the baseline wastes idle power.
  workload::ConstantProfile low(0.15, Seconds(15));
  workload::ConstantProfile high(0.85, Seconds(15));
  const double save_low = experiment::SavingsPercent(
      RunArm(KvScanFactory(), low, ControlMode::kBaseline),
      RunArm(KvScanFactory(), low, ControlMode::kEcl));
  const double save_high = experiment::SavingsPercent(
      RunArm(KvScanFactory(), high, ControlMode::kBaseline),
      RunArm(KvScanFactory(), high, ControlMode::kEcl));
  EXPECT_GT(save_low, save_high);
}

TEST_F(EclIntegrationTest, IndexedWorkloadAlsoSaves) {
  workload::ConstantProfile profile(0.5, Seconds(20));
  const double savings = experiment::SavingsPercent(
      RunArm(KvIndexedFactory(), profile, ControlMode::kBaseline),
      RunArm(KvIndexedFactory(), profile, ControlMode::kEcl));
  // Paper Table 1: indexed workloads save 15.8 % - 23.4 %.
  EXPECT_GT(savings, 8.0);
  EXPECT_LT(savings, 45.0);
}

TEST_F(EclIntegrationTest, DeterministicForSameOptions) {
  workload::ConstantProfile profile(0.4, Seconds(10));
  const RunResult a =
      RunArm(KvScanFactory(), profile, ControlMode::kEcl);
  const RunResult b =
      RunArm(KvScanFactory(), profile, ControlMode::kEcl);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
}

TEST_F(EclIntegrationTest, OverloadExitsFasterThanBaseline) {
  // Section 6.1: for the bandwidth-bound workload the baseline's all-on
  // configuration generates more memory-controller contention, so the ECL
  // clears an overload phase faster.
  workload::StepProfile profile({{Seconds(0), 1.1}, {Seconds(10), 0.3}},
                                Seconds(25));
  const RunResult base =
      RunArm(KvScanFactory(), profile, ControlMode::kBaseline);
  const RunResult ecl =
      RunArm(KvScanFactory(), profile, ControlMode::kEcl);
  EXPECT_LT(ecl.p99_ms, base.p99_ms);
}

TEST_F(EclIntegrationTest, DisablingAdaptationHurtsAfterWorkloadChange) {
  // Reproduces the core of Fig. 15/16: a sudden switch from the indexed to
  // the non-indexed key-value workload. With profile maintenance the ECL
  // re-learns; with a stale (static) profile it wastes energy.
  auto run = [&](bool maintain) {
    // Prime on the indexed workload, then run the *scan* workload at 50 %
    // load starting from the indexed profile.
    experiment::DriftTraceParams p;
    p.online = maintain;
    p.multiplexed = maintain;
    p.prime = Seconds(28);
    p.phases = {{experiment::DriftWorkload::kScan, 0.5, Seconds(40),
                 Seconds(40)}};
    return experiment::RunDriftTrace(p).total_energy_j;
  };
  const double adaptive_j = run(true);
  const double static_j = run(false);
  // "The ECL static setting draws significantly more energy" (Fig. 15).
  EXPECT_GT(static_j, adaptive_j * 1.05);
}

}  // namespace
}  // namespace ecldb
