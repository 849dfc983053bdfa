#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "experiment/drain.h"
#include "experiment/experiment.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/micro.h"
#include "workload/work_profiles.h"

namespace ecldb::experiment {
namespace {

WorkloadFactory MicroFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    return std::make_unique<workload::MicroWorkload>(
        e, workload::ComputeBound(), 1e6, 2);
  };
}

RunResult RunMicro(const workload::LoadProfile& profile,
                   const RunOptions& options) {
  NodeRig rig(MicroFactory(), options);
  return experiment::Run(rig, profile);
}

TEST(ExperimentTest, BaselineRunProducesSaneResult) {
  workload::ConstantProfile profile(0.5, Seconds(10));
  RunOptions options;
  options.mode = ControlMode::kBaseline;
  options.prime_duration = Seconds(2);
  const RunResult r = RunMicro(profile, options);
  EXPECT_DOUBLE_EQ(r.duration_s, 10.0);
  EXPECT_GT(r.capacity_qps, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_NEAR(r.avg_power_w, r.energy_j / r.duration_s, 1e-9);
  EXPECT_GT(r.submitted, 0);
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_GE(r.p99_ms, r.p50_ms);
  EXPECT_GE(r.max_ms, r.p99_ms);
  EXPECT_TRUE(r.best_config.empty());  // baseline has no profile
}

TEST(ExperimentTest, SeriesCoversTheRun) {
  workload::ConstantProfile profile(0.3, Seconds(10));
  RunOptions options;
  options.mode = ControlMode::kBaseline;
  options.prime_duration = 0;
  options.sample_period = Millis(500);
  const RunResult r = RunMicro(profile, options);
  ASSERT_EQ(r.series.size(), 20u);
  EXPECT_NEAR(r.series.At(0, "t_s"), 0.5, 1e-9);
  EXPECT_NEAR(r.series.At(19, "t_s"), 10.0, 1e-9);
  for (size_t i = 0; i < r.series.size(); ++i) {
    EXPECT_GT(r.series.At(i, "exp/power_w"), 0.0);
    EXPECT_GT(r.series.At(i, "exp/offered_qps"), 0.0);
    // Baseline: everything on.
    EXPECT_EQ(r.series.At(i, "exp/width"), 48.0);
  }
}

TEST(ExperimentTest, EclRunReportsBestConfig) {
  workload::ConstantProfile profile(0.3, Seconds(10));
  RunOptions options;
  options.mode = ControlMode::kEcl;
  options.prime_duration = Seconds(28);
  const RunResult r = RunMicro(profile, options);
  EXPECT_FALSE(r.best_config.empty());
  EXPECT_NE(r.best_config.find("thr @"), std::string::npos);
}

TEST(ExperimentTest, BacklogPastTheTraceIsDrainedAndCounted) {
  // Regression: the single-node runner drained for a fixed 5 s and
  // silently dropped every query still queued after that from the latency
  // statistics. An overload step at the end of the trace leaves a backlog
  // that takes longer than that to clear; every query must still be
  // counted, latency tail included.
  const workload::StepProfile profile({{0, 0.5}, {Seconds(5), 4.0}},
                                      Seconds(8));
  RunOptions options;
  options.mode = ControlMode::kBaseline;
  options.prime_duration = 0;
  const RunResult r = RunMicro(profile, options);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_GT(r.max_ms, 5000.0);
}

// ---------------------------------------------------------------------------
// Run over every rig x traffic combination
// ---------------------------------------------------------------------------

WorkloadFactory KvFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    params.num_keys = 16'777'216 * 2;
    params.batch_gets = 16'000;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

SloTraffic SmallSloTraffic(SimDuration duration) {
  SloTraffic traffic;
  traffic.loadgen.duration = duration;
  loadgen::TenantSpec premium;
  premium.name = "premium";
  premium.slo_class = loadgen::SloClass::kPremium;
  premium.weight = 0.4;
  premium.arrival.num_users = 200'000;
  premium.arrival.per_user_qps = 0.01;
  loadgen::TenantSpec besteff;
  besteff.name = "besteff";
  besteff.slo_class = loadgen::SloClass::kBestEffort;
  besteff.weight = 0.6;
  besteff.arrival.num_users = 2'000'000;
  besteff.arrival.per_user_qps = 0.001;
  traffic.loadgen.tenants = {premium, besteff};
  traffic.total_load = 0.4;
  return traffic;
}

enum class RigKind { kNode, kCluster };
enum class TrafficKind { kProfile, kSlo };

struct Combo {
  RigKind rig;
  TrafficKind traffic;
};

class RunComboTest : public ::testing::TestWithParam<Combo> {
 protected:
  RunResult RunOnce() const {
    telemetry::TelemetryParams tp;
    tp.enabled = true;
    telemetry::Telemetry tel(tp);
    const workload::ConstantProfile profile(0.4, Seconds(4));
    const SloTraffic slo = SmallSloTraffic(Seconds(4));
    auto run = [&](auto& rig) {
      return GetParam().traffic == TrafficKind::kProfile
                 ? experiment::Run(rig, profile)
                 : experiment::Run(rig, slo);
    };
    if (GetParam().rig == RigKind::kNode) {
      RunOptions options;
      options.prime_duration = Seconds(2);
      options.telemetry = &tel;
      NodeRig rig(KvFactory(), options);
      return run(rig);
    }
    ClusterRunOptions options;
    options.cluster =
        hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{});
    options.prime_duration = Seconds(2);
    options.telemetry = &tel;
    ClusterRig rig(KvFactory(), options);
    return run(rig);
  }
};

TEST_P(RunComboTest, ConservesQueriesSamplesCommonGaugesAndRepeats) {
  const RunResult r = RunOnce();
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.submitted, 0);
  EXPECT_EQ(r.submitted, r.completed + r.failed);
  for (const char* name :
       {"exp/offered_qps", "exp/power_w", "exp/latency_window_ms",
        "exp/width", "exp/pressure"}) {
    EXPECT_GE(r.series.Find(name), 0) << name;
  }
  EXPECT_EQ(r.series.size(), 8u);
  EXPECT_FALSE(r.telemetry_dump.empty());

  const RunResult again = RunOnce();
  EXPECT_EQ(again.series, r.series);
  EXPECT_EQ(again.telemetry_dump, r.telemetry_dump);
}

INSTANTIATE_TEST_SUITE_P(
    RigsAndTraffic, RunComboTest,
    ::testing::Values(Combo{RigKind::kNode, TrafficKind::kProfile},
                      Combo{RigKind::kNode, TrafficKind::kSlo},
                      Combo{RigKind::kCluster, TrafficKind::kProfile},
                      Combo{RigKind::kCluster, TrafficKind::kSlo}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(info.param.rig == RigKind::kNode ? "Node"
                                                          : "Cluster") +
             (info.param.traffic == TrafficKind::kProfile ? "Profile" : "Slo");
    });

// ---------------------------------------------------------------------------
// Cluster runs
// ---------------------------------------------------------------------------

TEST(ClusterRunTest, CrashRestartUnderALoadProfileConservesQueries) {
  // Faults are a rig option, so a LoadProfile run gets them too: the
  // crash fails the dead node's in-flight queries, and every submission
  // still resolves exactly once.
  ClusterRunOptions options;
  hwsim::ClusterNodeParams node;
  node.power.boot_latency = Seconds(2);  // the restart boots within the run
  options.cluster = hwsim::ClusterParams::Homogeneous(3, node);
  options.prime_duration = Seconds(3);
  options.faults.Crash(Seconds(3), 1).Restart(Seconds(5), 1);
  ClusterRig rig(KvFactory(), options);
  const RunResult r =
      experiment::Run(rig, workload::ConstantProfile(0.3, Seconds(8)));
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.failed, 0);
  EXPECT_EQ(r.submitted, r.completed + r.failed);
  const std::vector<double> width = r.series.Column("exp/width");
  EXPECT_EQ(*std::min_element(width.begin(), width.end()), 2.0);
  EXPECT_EQ(width.back(), 3.0);
}

TEST(ClusterRunTest, CountersAreReadAtTheWindowEnd) {
  // Regression: the cluster runner read its activity counters after the
  // drain, so they also counted the cluster ECL's moves after the trace.
  // The load steps down mid-trace and the trace ends while the cluster ECL
  // is still consolidating: its migrations run on past the window.
  ClusterRunOptions options;
  options.cluster =
      hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{});
  options.prime_duration = Seconds(8);
  options.cluster_ecl.enabled = true;
  options.cluster_ecl.interval = Seconds(1);
  options.cluster_ecl.migrations_per_tick = 12;
  options.cluster_ecl.spread_migrations_per_tick = 24;
  options.cluster_ecl.min_on_time = Seconds(5);
  options.engine.migration.min_shard_bytes = 64.0 * (1 << 20);
  const workload::StepProfile profile({{0, 0.5}, {Seconds(10), 0.05}},
                                      Seconds(19) + Millis(500));
  ClusterRig rig(KvFactory(), options);
  engine::ClusterEngine& cengine = rig.cengine();
  hwsim::Cluster& cluster = rig.cluster();
  RunResult at_end;
  rig.simulator().Schedule(options.prime_duration + profile.duration(), [&] {
    at_end.migrations = cengine.migrations_completed();
    at_end.migration_bytes = cengine.bytes_moved();
    at_end.power_downs = cluster.power_downs();
    at_end.wakes = cluster.power_ups();
  });
  const RunResult r = experiment::Run(rig, profile);
  EXPECT_EQ(r.migrations, at_end.migrations);
  EXPECT_EQ(r.migration_bytes, at_end.migration_bytes);
  EXPECT_EQ(r.power_downs, at_end.power_downs);
  EXPECT_EQ(r.wakes, at_end.wakes);
  // Not vacuous: the cluster kept migrating during the drain.
  EXPECT_GT(cengine.migrations_completed(), r.migrations);
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

TEST(DrainTest, CompletesWhenProgressArrives) {
  sim::Simulator sim;
  int64_t done = 0;
  for (int i = 1; i <= 5; ++i) sim.Schedule(Seconds(i), [&done] { ++done; });
  EXPECT_TRUE(DrainToCompletion(sim, [&done] { return done; }, 5));
  EXPECT_EQ(done, 5);
}

TEST(DrainTest, NoProgressAbortsEarlyWithDiagnostic) {
  // Nothing ever completes: the watchdog fires at the no-progress window
  // (well before the hard cap) and surfaces the caller's diagnostic.
  sim::Simulator sim;
  bool diag_called = false;
  ::testing::internal::CaptureStderr();
  const bool ok = DrainToCompletion(
      sim, [] { return int64_t{0}; }, 3, /*cap=*/Seconds(120),
      /*no_progress_abort=*/Seconds(10), [&diag_called] {
        diag_called = true;
        return std::string("backlog: node0=3(failed)");
      });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_TRUE(diag_called);
  EXPECT_NE(err.find("no completion progress"), std::string::npos);
  EXPECT_NE(err.find("backlog: node0=3(failed)"), std::string::npos);
  EXPECT_LT(sim.now(), Seconds(15));  // aborted, not capped at 120 s
}

TEST(DrainTest, SlowButSteadyProgressIsNeverAborted) {
  // One completion every 8 s against a 10 s no-progress window: the
  // watchdog resets on each completion and the drain runs to the end.
  sim::Simulator sim;
  int64_t done = 0;
  for (int i = 1; i <= 3; ++i) {
    sim.Schedule(Seconds(8 * i), [&done] { ++done; });
  }
  EXPECT_TRUE(DrainToCompletion(sim, [&done] { return done; }, 3,
                                /*cap=*/Seconds(120),
                                /*no_progress_abort=*/Seconds(10)));
  EXPECT_GE(sim.now(), Seconds(24));
}

}  // namespace
}  // namespace ecldb::experiment
