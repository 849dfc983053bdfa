#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "experiment/drain.h"
#include "experiment/experiment.h"
#include "sim/simulator.h"
#include "workload/micro.h"
#include "workload/load_profile.h"
#include "workload/work_profiles.h"

namespace ecldb::experiment {
namespace {

WorkloadFactory MicroFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    return std::make_unique<workload::MicroWorkload>(
        e, workload::ComputeBound(), 1e6, 2);
  };
}

TEST(ExperimentTest, BaselineRunProducesSaneResult) {
  workload::ConstantProfile profile(0.5, Seconds(10));
  RunOptions options;
  options.mode = ControlMode::kBaseline;
  options.prime_duration = Seconds(2);
  const RunResult r = RunLoadExperiment(MicroFactory(), profile, options);
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
  const RunResult r = RunLoadExperiment(MicroFactory(), profile, options);
  ASSERT_EQ(r.series.size(), 20u);
  EXPECT_NEAR(r.series.At(0, "t_s"), 0.5, 1e-9);
  EXPECT_NEAR(r.series.At(19, "t_s"), 10.0, 1e-9);
  for (size_t i = 0; i < r.series.size(); ++i) {
    EXPECT_GT(r.series.At(i, "exp/rapl_power_w"), 0.0);
    EXPECT_GT(r.series.At(i, "exp/offered_qps"), 0.0);
    // Baseline: everything on.
    EXPECT_EQ(r.series.At(i, "exp/active_threads"), 48.0);
  }
}

TEST(ExperimentTest, EclRunReportsBestConfig) {
  workload::ConstantProfile profile(0.3, Seconds(10));
  RunOptions options;
  options.mode = ControlMode::kEcl;
  options.prime_duration = Seconds(28);
  const RunResult r = RunLoadExperiment(MicroFactory(), profile, options);
  EXPECT_FALSE(r.best_config.empty());
  EXPECT_NE(r.best_config.find("thr @"), std::string::npos);
}

TEST(ExperimentTest, CapacityOverrideRespected) {
  workload::ConstantProfile profile(1.0, Seconds(5));
  RunOptions options;
  options.mode = ControlMode::kBaseline;
  options.prime_duration = 0;
  options.capacity_qps = 100.0;
  const RunResult r = RunLoadExperiment(MicroFactory(), profile, options);
  EXPECT_DOUBLE_EQ(r.capacity_qps, 100.0);
  EXPECT_NEAR(static_cast<double>(r.submitted), 500.0, 120.0);
}

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
