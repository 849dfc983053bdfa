#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "experiment/drain.h"
#include "experiment/experiment.h"
#include "loadgen/admission.h"
#include "loadgen/arrival.h"
#include "loadgen/loadgen.h"
#include "loadgen/slo.h"
#include "loadgen/traffic_shape.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/micro.h"
#include "workload/work_profiles.h"

namespace ecldb::loadgen {
namespace {

// ---------------------------------------------------------------------------
// Traffic shapes
// ---------------------------------------------------------------------------

TEST(LoadgenShapeTest, RegistryIsClosedAndSorted) {
  const std::vector<std::string_view> names = RegisteredTrafficShapes();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "diurnal");
  EXPECT_EQ(names[1], "flash_crowd");
  EXPECT_EQ(names[2], "regional_failover");
  EXPECT_EQ(names[3], "steady");
}

TEST(LoadgenShapeTest, UnknownShapeNameAborts) {
  ShapeSpec spec;
  spec.name = "flashcrowd";  // typo: must fail loudly, not run "steady"
  EXPECT_DEATH(MakeTrafficShape(spec), "unknown traffic shape");
}

TEST(LoadgenShapeTest, SteadyDefaultsToUnity) {
  const auto shape = MakeTrafficShape(ShapeSpec{});
  EXPECT_DOUBLE_EQ(shape->MultiplierAt(0), 1.0);
  EXPECT_DOUBLE_EQ(shape->MultiplierAt(Seconds(123)), 1.0);
}

TEST(LoadgenShapeTest, FlashCrowdRampsHoldsAndReturnsToOne) {
  ShapeSpec spec;
  spec.name = "flash_crowd";
  spec.magnitude = 10.0;
  spec.start = Seconds(50);
  spec.duration = Seconds(30);
  const auto shape = MakeTrafficShape(spec);
  EXPECT_DOUBLE_EQ(shape->MultiplierAt(Seconds(49)), 1.0);
  // Mid-window (past the 10 % ramp edges) holds the full magnitude.
  EXPECT_DOUBLE_EQ(shape->MultiplierAt(Seconds(65)), 10.0);
  // Half-way up the leading ramp.
  EXPECT_NEAR(shape->MultiplierAt(Seconds(50) + Millis(1500)), 5.5, 1e-9);
  EXPECT_DOUBLE_EQ(shape->MultiplierAt(Seconds(80)), 1.0);
}

TEST(LoadgenShapeTest, DiurnalHasUnitMeanAndRequestedRatio) {
  ShapeSpec spec;
  spec.name = "diurnal";
  spec.magnitude = 4.0;
  spec.duration = Seconds(180);
  const auto shape = MakeTrafficShape(spec);
  double lo = 1e9, hi = 0.0, sum = 0.0;
  const int samples = 1800;
  for (int i = 0; i < samples; ++i) {
    const double m = shape->MultiplierAt(Millis(100) * i);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
    sum += m;
  }
  EXPECT_NEAR(hi / lo, 4.0, 0.01);
  EXPECT_NEAR(sum / samples, 1.0, 0.01);
}

TEST(LoadgenShapeTest, RegionalFailoverStepsUpAndOptionallyBack) {
  ShapeSpec spec;
  spec.name = "regional_failover";
  spec.start = Seconds(10);
  const auto open_ended = MakeTrafficShape(spec);
  EXPECT_DOUBLE_EQ(open_ended->MultiplierAt(Seconds(9)), 1.0);
  EXPECT_DOUBLE_EQ(open_ended->MultiplierAt(Seconds(11)), 1.8);
  EXPECT_DOUBLE_EQ(open_ended->MultiplierAt(Seconds(10'000)), 1.8);
  spec.duration = Seconds(20);
  const auto bounded = MakeTrafficShape(spec);
  EXPECT_DOUBLE_EQ(bounded->MultiplierAt(Seconds(29)), 1.8);
  EXPECT_DOUBLE_EQ(bounded->MultiplierAt(Seconds(31)), 1.0);
}

TEST(LoadgenShapeTest, StackComposesMultiplicatively) {
  ShapeSpec steady2;
  steady2.magnitude = 2.0;
  ShapeSpec crowd;
  crowd.name = "flash_crowd";
  crowd.magnitude = 10.0;
  crowd.start = Seconds(50);
  crowd.duration = Seconds(30);
  const auto stacked =
      MakeTrafficShape(std::vector<ShapeSpec>{steady2, crowd});
  const auto crowd_only = MakeTrafficShape(crowd);
  for (const SimTime t : {Seconds(0), Seconds(55), Seconds(65), Seconds(90)}) {
    EXPECT_DOUBLE_EQ(stacked->MultiplierAt(t),
                     2.0 * crowd_only->MultiplierAt(t));
  }
  // Empty stack = steady 1.0.
  const auto empty = MakeTrafficShape(std::vector<ShapeSpec>{});
  EXPECT_DOUBLE_EQ(empty->MultiplierAt(Seconds(7)), 1.0);
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

/// Drives `proc` for `horizon` of trace time and bins arrivals per second.
std::vector<int64_t> BinArrivals(ArrivalProcess& proc, SimDuration horizon) {
  std::vector<int64_t> bins(static_cast<size_t>(ToSeconds(horizon)), 0);
  SimTime t = 0;
  while (t < horizon) {
    const ArrivalProcess::Event e = proc.Next(t);
    t += e.gap;
    if (e.is_arrival && t < horizon) {
      ++bins[static_cast<size_t>(ToSeconds(t))];
    }
  }
  return bins;
}

double Mean(const std::vector<int64_t>& bins) {
  double sum = 0.0;
  for (int64_t b : bins) sum += static_cast<double>(b);
  return sum / static_cast<double>(bins.size());
}

/// Index of dispersion (variance / mean) of per-second counts: ~1 for
/// Poisson, above 1 for positively correlated (bursty) arrivals.
double Dispersion(const std::vector<int64_t>& bins) {
  const double mean = Mean(bins);
  double var = 0.0;
  for (int64_t b : bins) {
    const double d = static_cast<double>(b) - mean;
    var += d * d;
  }
  var /= static_cast<double>(bins.size() - 1);
  return var / mean;
}

TEST(LoadgenArrivalTest, PoissonMeanAndDispersionMatchTheory) {
  ArrivalParams params;
  params.num_users = 1000;
  params.per_user_qps = 1.0;  // aggregate 1000 qps
  const auto shape = MakeTrafficShape(ShapeSpec{});
  ArrivalProcess proc(params, shape.get(), 99);
  const std::vector<int64_t> bins = BinArrivals(proc, Seconds(60));
  // Mean of 60 per-second counts: sigma = sqrt(1000/60) ~ 4.1.
  EXPECT_NEAR(Mean(bins), 1000.0, 15.0);
  // Poisson index of dispersion is 1 (chi-square bounds, 59 dof).
  EXPECT_GT(Dispersion(bins), 0.55);
  EXPECT_LT(Dispersion(bins), 1.65);
}

TEST(LoadgenArrivalTest, MmppKeepsTheMeanButIsBurstier) {
  ArrivalParams params;
  params.num_users = 1000;
  params.per_user_qps = 1.0;
  params.kind = ArrivalKind::kMmpp;  // defaults: {0.4, 1.6} @ 0.2 Hz
  const auto shape = MakeTrafficShape(ShapeSpec{});
  ArrivalProcess proc(params, shape.get(), 99);
  const std::vector<int64_t> bins = BinArrivals(proc, Seconds(120));
  // Uniform stationary distribution over {0.4, 1.6} keeps mean rate 1000.
  EXPECT_NEAR(Mean(bins), 1000.0, 100.0);
  // Modulation variance dominates: far over-dispersed vs Poisson.
  EXPECT_GT(Dispersion(bins), 5.0);
}

TEST(LoadgenArrivalTest, SameSeedSameStreamDifferentSeedDiffers) {
  ArrivalParams params;
  params.num_users = 100;
  params.per_user_qps = 1.0;
  params.kind = ArrivalKind::kMmpp;
  const auto shape = MakeTrafficShape(ShapeSpec{});
  auto draw = [&](uint64_t seed) {
    ArrivalProcess proc(params, shape.get(), seed);
    std::vector<std::pair<SimDuration, bool>> events;
    SimTime t = 0;
    for (int i = 0; i < 1000; ++i) {
      const ArrivalProcess::Event e = proc.Next(t);
      t += e.gap;
      events.emplace_back(e.gap, e.is_arrival);
    }
    return events;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(LoadgenArrivalTest, RateScaleScalesTheProcess) {
  ArrivalParams params;
  params.num_users = 1000;
  params.per_user_qps = 1.0;
  const auto shape = MakeTrafficShape(ShapeSpec{});
  ArrivalProcess proc(params, shape.get(), 99);
  proc.set_rate_scale(2.5);
  EXPECT_DOUBLE_EQ(proc.RateAt(0), 2500.0);
  EXPECT_DOUBLE_EQ(proc.NominalRateAt(0), 2500.0);
}

TEST(LoadgenArrivalTest, DormantTenantPollsWithoutArrivals) {
  ArrivalParams params;
  params.num_users = 1000;
  params.per_user_qps = 1.0;
  const auto shape = MakeTrafficShape(ShapeSpec{});
  ArrivalProcess proc(params, shape.get(), 99);
  proc.set_rate_scale(0.0);  // night trough: rate 0
  for (int i = 0; i < 100; ++i) {
    const ArrivalProcess::Event e = proc.Next(Seconds(1));
    EXPECT_FALSE(e.is_arrival);
    EXPECT_EQ(e.gap, Millis(50));  // re-checks the shape, never sleeps past it
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(LoadgenAdmissionTest, TokenBucketEnforcesRateAndBurst) {
  TokenBucket bucket(/*rate_qps=*/10.0, /*burst=*/5.0);
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    if (bucket.TryTake(0)) ++admitted;
  }
  EXPECT_EQ(admitted, 5);  // burst depth
  admitted = 0;
  for (int i = 0; i < 20; ++i) {
    if (bucket.TryTake(Seconds(1))) ++admitted;
  }
  EXPECT_EQ(admitted, 5);  // one second of refill, capped at burst
}

TEST(LoadgenAdmissionTest, DisabledBucketAlwaysAdmits) {
  TokenBucket bucket(/*rate_qps=*/0.0, /*burst=*/0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.TryTake(0));
}

/// Runs `n` arrivals of each class at a fixed pressure and returns the
/// per-class shed counts.
std::array<int64_t, kNumSloClasses> ShedAtPressure(double pressure, int n) {
  AdmissionController adm{AdmissionParams{}};
  adm.SetPressureSource([pressure] { return pressure; });
  Rng rng(4711);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < kNumSloClasses; ++c) {
      adm.Admit(static_cast<SloClass>(c), Seconds(1), rng);
    }
  }
  return {adm.shed(SloClass::kPremium), adm.shed(SloClass::kStandard),
          adm.shed(SloClass::kBestEffort)};
}

TEST(LoadgenAdmissionTest, PressureDegradesBestEffortFirstPremiumNever) {
  // Below every onset: nobody sheds.
  auto shed = ShedAtPressure(0.40, 2000);
  EXPECT_EQ(shed[0], 0);
  EXPECT_EQ(shed[1], 0);
  EXPECT_EQ(shed[2], 0);
  // Between the best-effort onset (0.45) and the standard onset (0.70):
  // only the scavenger tier pays, at ~50 % [(0.6-0.45)/(0.75-0.45)].
  shed = ShedAtPressure(0.60, 2000);
  EXPECT_EQ(shed[0], 0);
  EXPECT_EQ(shed[1], 0);
  EXPECT_NEAR(static_cast<double>(shed[2]), 1000.0, 100.0);
  // Saturated: standard and best-effort shed fully, premium still never
  // (its onset of 1.1 sits above the pressure range).
  shed = ShedAtPressure(1.0, 2000);
  EXPECT_EQ(shed[0], 0);
  EXPECT_EQ(shed[1], 2000);
  EXPECT_EQ(shed[2], 2000);
}

TEST(LoadgenAdmissionTest, RecentShedFractionCoversOnlyTheWindow) {
  AdmissionParams params;  // kShedWindow (admission.cc) is 3 s
  AdmissionController adm(params);
  double pressure = 1.0;
  adm.SetPressureSource([&pressure] { return pressure; });
  Rng rng(1);
  for (int i = 0; i < 100; ++i) adm.Admit(SloClass::kBestEffort, Seconds(1), rng);
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(1)), 1.0);
  EXPECT_NEAR(adm.RecentShedQps(Seconds(1)), 100.0 / 3.0, 1e-9);
  // The refusals age out of the window; fresh admits dominate.
  pressure = 0.0;
  for (int i = 0; i < 10; ++i) adm.Admit(SloClass::kBestEffort, Seconds(10), rng);
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(10)), 0.0);
  EXPECT_EQ(adm.total_shed(), 100);
  EXPECT_EQ(adm.total_admitted(), 10);
  adm.ResetRunStats();
  EXPECT_EQ(adm.total_shed(), 0);
  EXPECT_EQ(adm.total_admitted(), 0);
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(10)), 0.0);
}

TEST(LoadgenAdmissionTest, ShedWindowAgesBucketsAtExactBoundaries) {
  // One admit just below the t=2s bucket edge, one shed exactly on it:
  // they land in adjacent 1-second buckets and age out of the 3 s window
  // one second apart, with the transition happening exactly at the
  // boundary instant (start + 1s <= now - window), not a tick later.
  AdmissionParams params;  // kShedWindow (admission.cc) is 3 s
  AdmissionController adm(params);
  double pressure = 0.0;
  adm.SetPressureSource([&pressure] { return pressure; });
  Rng rng(7);
  adm.Admit(SloClass::kBestEffort, Seconds(2) - 1, rng);  // bucket [1, 2)
  pressure = 1.0;
  adm.Admit(SloClass::kBestEffort, Seconds(2), rng);  // bucket [2, 3)

  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(5) - 1), 0.5);
  // At exactly t=5s the [1,2) bucket leaves the 3 s window; the shed-only
  // [2,3) bucket remains.
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(5)), 1.0);
  EXPECT_NEAR(adm.RecentShedQps(Seconds(5)), 1.0 / 3.0, 1e-12);
  // At exactly t=6s the window is empty again.
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(6)), 0.0);
  EXPECT_DOUBLE_EQ(adm.RecentShedQps(Seconds(6)), 0.0);
  // Lifetime counters are unaffected by window aging.
  EXPECT_EQ(adm.total_admitted(), 1);
  EXPECT_EQ(adm.total_shed(), 1);
}

TEST(LoadgenAdmissionTest, ZeroArrivalWindowReportsZeroNotNan) {
  AdmissionController adm{AdmissionParams{}};
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(0), 0.0);
  EXPECT_DOUBLE_EQ(adm.RecentShedFraction(Seconds(100)), 0.0);
  EXPECT_DOUBLE_EQ(adm.RecentShedQps(Seconds(100)), 0.0);
}

TEST(LoadgenArrivalTest, MmppSwitchOnShapeEdgeStaysDeterministic) {
  // An MMPP chain switching rapidly while the flash-crowd shape crosses
  // its start/end edges: the (gap, is_arrival, state) stream must be a
  // pure function of the seed, with the shape multiplier read at draw
  // time — including draws landing exactly on an edge.
  ShapeSpec crowd;
  crowd.name = "flash_crowd";
  crowd.magnitude = 5.0;
  crowd.start = Seconds(10);
  crowd.duration = Seconds(10);
  const std::unique_ptr<TrafficShape> shape = MakeTrafficShape(crowd);

  ArrivalParams params;
  params.num_users = 100;
  params.per_user_qps = 1.0;  // 100 qps nominal
  params.kind = ArrivalKind::kMmpp;
  params.mmpp.state_multipliers = {0.4, 1.6};
  params.mmpp.switch_rate_hz = 50.0;  // many switches across the edges

  auto drive = [&](std::vector<std::pair<SimDuration, int>>* events) {
    ArrivalProcess p(params, shape.get(), /*seed=*/99);
    int switches = 0;
    // Exact-edge probes: the rate at the crowd's first instant is the
    // pre-ramp base rate (ramp level 0), at its end instant the crowd is
    // over, and both include the current MMPP state multiplier.
    const double mult =
        params.mmpp.state_multipliers[static_cast<size_t>(p.mmpp_state())];
    EXPECT_DOUBLE_EQ(p.RateAt(Seconds(10)), 100.0 * mult);
    EXPECT_DOUBLE_EQ(p.RateAt(Seconds(20)), 100.0 * mult);
    EXPECT_DOUBLE_EQ(p.NominalRateAt(Seconds(15)), 500.0);  // crowd peak
    SimTime t = FromSeconds(9.9);
    while (t < FromSeconds(20.1)) {
      const ArrivalProcess::Event e = p.Next(t);
      if (!e.is_arrival) ++switches;
      t += e.gap;
      events->push_back({e.gap, e.is_arrival ? 1 : 0});
      events->push_back({t, p.mmpp_state()});
    }
    EXPECT_GT(switches, 0);
  };
  std::vector<std::pair<SimDuration, int>> a, b;
  drive(&a);
  drive(&b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// SLO accounting
// ---------------------------------------------------------------------------

TEST(LoadgenSloTest, DeadlineViolationsAndTailObjective) {
  SloTracker slo{SloParams{}};  // premium: 99.9 % under 100 ms
  slo.RecordCompletion(SloClass::kPremium, 0, Millis(50));
  EXPECT_EQ(slo.violations(SloClass::kPremium), 0);
  EXPECT_TRUE(slo.SloMet(SloClass::kPremium));
  slo.RecordCompletion(SloClass::kPremium, 0, Millis(150));
  EXPECT_EQ(slo.violations(SloClass::kPremium), 1);
  EXPECT_EQ(slo.completed(SloClass::kPremium), 2);
  // p99.9 of {50, 150} is the max: objective broken.
  EXPECT_FALSE(slo.SloMet(SloClass::kPremium));
}

TEST(LoadgenSloTest, TailPercentileToleratesItsViolationBudget) {
  SloTracker slo{SloParams{}};  // best-effort: 95 % under 1000 ms
  for (int i = 0; i < 99; ++i) {
    slo.RecordCompletion(SloClass::kBestEffort, 0, Millis(10));
  }
  slo.RecordCompletion(SloClass::kBestEffort, 0, Seconds(5));
  EXPECT_EQ(slo.violations(SloClass::kBestEffort), 1);
  // One outlier in a hundred sits inside the 5 % budget: p95 is still 10 ms.
  EXPECT_NEAR(slo.TailLatencyMs(SloClass::kBestEffort), 10.0, 1.0);
  EXPECT_TRUE(slo.SloMet(SloClass::kBestEffort));
  EXPECT_EQ(slo.total_completed(), 100);
  slo.ResetRunStats();
  EXPECT_EQ(slo.total_completed(), 0);
  EXPECT_TRUE(slo.SloMet(SloClass::kBestEffort));  // vacuously
}

TEST(LoadgenSloTest, ClassNamesAreStable) {
  EXPECT_EQ(SloClassName(SloClass::kPremium), "premium");
  EXPECT_EQ(SloClassName(SloClass::kStandard), "standard");
  EXPECT_EQ(SloClassName(SloClass::kBestEffort), "best_effort");
}

// ---------------------------------------------------------------------------
// Drain helper
// ---------------------------------------------------------------------------

TEST(LoadgenDrainTest, RunsUntilCompletionsCatchUp) {
  sim::Simulator simulator;
  int64_t completed = 0;
  simulator.Schedule(Seconds(5), [&completed] { completed = 3; });
  EXPECT_TRUE(experiment::DrainToCompletion(
      simulator, [&completed] { return completed; }, 3));
  EXPECT_GE(simulator.now(), Seconds(5));
}

TEST(LoadgenDrainTest, GivesUpAtTheCapWhenQueriesAreLost) {
  sim::Simulator simulator;
  EXPECT_FALSE(experiment::DrainToCompletion(
      simulator, [] { return int64_t{0}; }, 1, Seconds(2)));
  EXPECT_LE(simulator.now(), Seconds(3));
}

// ---------------------------------------------------------------------------
// End-to-end single-node runs
// ---------------------------------------------------------------------------

experiment::WorkloadFactory KvFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    params.batch_gets = 4'000;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

experiment::SloTraffic SmallSloTraffic() {
  experiment::SloTraffic traffic;
  traffic.loadgen.duration = Seconds(10);
  loadgen::TenantSpec premium;
  premium.name = "premium";
  premium.slo_class = SloClass::kPremium;
  premium.weight = 0.4;
  premium.arrival.num_users = 200'000;
  premium.arrival.per_user_qps = 0.01;
  loadgen::TenantSpec besteff;
  besteff.name = "besteff";
  besteff.slo_class = SloClass::kBestEffort;
  besteff.weight = 0.6;
  besteff.arrival.num_users = 2'000'000;
  besteff.arrival.per_user_qps = 0.001;
  besteff.arrival.kind = ArrivalKind::kMmpp;
  traffic.loadgen.tenants = {premium, besteff};
  traffic.total_load = 0.3;
  return traffic;
}

experiment::RunOptions SmallRunOptions() {
  experiment::RunOptions options;
  options.prime_duration = Seconds(5);
  return options;
}

experiment::RunResult RunSlo(const experiment::RunOptions& options,
                             const experiment::SloTraffic& traffic) {
  experiment::NodeRig rig(KvFactory(), options);
  return experiment::Run(rig, traffic);
}

TEST(LoadgenRunTest, FastForwardIsBitIdentical) {
  experiment::RunOptions options = SmallRunOptions();
  options.fast_forward = true;
  const experiment::RunResult ff = RunSlo(options, SmallSloTraffic());
  options.fast_forward = false;
  const experiment::RunResult slow = RunSlo(options, SmallSloTraffic());
  EXPECT_EQ(ff.arrivals, slow.arrivals);
  EXPECT_EQ(ff.admitted, slow.admitted);
  EXPECT_EQ(ff.shed, slow.shed);
  EXPECT_EQ(ff.completed, slow.completed);
  EXPECT_DOUBLE_EQ(ff.energy_j, slow.energy_j);
  for (int c = 0; c < kNumSloClasses; ++c) {
    EXPECT_DOUBLE_EQ(ff.classes[static_cast<size_t>(c)].tail_ms,
                     slow.classes[static_cast<size_t>(c)].tail_ms);
    EXPECT_EQ(ff.classes[static_cast<size_t>(c)].violations,
              slow.classes[static_cast<size_t>(c)].violations);
  }
  // Whole rows, every column.
  EXPECT_EQ(ff.series.header, slow.series.header);
  ASSERT_EQ(ff.series.size(), slow.series.size());
  for (size_t i = 0; i < ff.series.size(); ++i) {
    EXPECT_EQ(ff.series.rows[i], slow.series.rows[i]) << i;
  }
}

TEST(LoadgenRunTest, ClassArrivalsExcludeRetryReoffers) {
  // Regression: per-class arrivals were admitted + shed, and retry
  // re-offers pass admission too, so with retries on the classes summed
  // to arrivals + retries.
  experiment::SloTraffic traffic = SmallSloTraffic();
  traffic.total_load = 2.5;  // far past capacity: shedding drives retries
  traffic.loadgen.retry.enabled = true;
  const experiment::RunResult r = RunSlo(SmallRunOptions(), traffic);
  ASSERT_GT(r.retries, 0);
  int64_t class_arrivals = 0;
  int64_t class_decisions = 0;
  for (const experiment::SloClassStats& c : r.classes) {
    class_arrivals += c.arrivals;
    class_decisions += c.admitted + c.shed;
  }
  EXPECT_EQ(class_arrivals, r.arrivals);
  EXPECT_EQ(class_decisions, r.arrivals + r.retries);
  EXPECT_EQ(r.classes[1].arrivals, 0);  // no standard tenant configured
}

TEST(LoadgenRunTest, CompletionsBalanceAndClassesAreServed) {
  const experiment::RunResult r = RunSlo(SmallRunOptions(), SmallSloTraffic());
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.arrivals, 0);
  EXPECT_EQ(r.arrivals, r.admitted + r.shed);
  EXPECT_EQ(r.completed, r.admitted);
  EXPECT_GT(r.classes[0].completed, 0);  // premium
  EXPECT_GT(r.classes[2].completed, 0);  // best-effort
  EXPECT_EQ(r.classes[1].completed, 0);  // no standard tenant configured
  EXPECT_GT(r.classes[0].mean_ms, 0.0);
}

TEST(LoadgenRunTest, OverloadShedsScavengersBeforePremium) {
  experiment::SloTraffic traffic = SmallSloTraffic();
  traffic.total_load = 2.5;  // far past capacity: pressure saturates
  const experiment::RunResult r = RunSlo(SmallRunOptions(), traffic);
  EXPECT_GT(r.shed, 0);
  EXPECT_EQ(r.classes[0].shed, 0);  // premium never pressure-shed
  EXPECT_GT(r.classes[2].shed, 0);
  // The same trace with admission disabled admits every arrival; the
  // backlog it builds shows up as a far worse premium latency (the energy
  // side of the trade needs a trace long enough for the ECL to narrow —
  // that is pinned by bench/ablation_slo_tiers).
  traffic.admission_enabled = false;
  const experiment::RunResult all = RunSlo(SmallRunOptions(), traffic);
  EXPECT_EQ(all.shed, 0);
  EXPECT_EQ(all.arrivals, r.arrivals);  // admission never perturbs arrivals
  EXPECT_GE(all.energy_j, r.energy_j);
  EXPECT_GT(all.classes[0].mean_ms, 2.0 * r.classes[0].mean_ms);
}

TEST(LoadgenRunTest, TelemetryExportIsDeterministicAndComplete) {
  auto run_with_telemetry = [] {
    telemetry::TelemetryParams tp;
    tp.enabled = true;
    telemetry::Telemetry tel(tp);
    experiment::RunOptions options = SmallRunOptions();
    options.telemetry = &tel;
    return RunSlo(options, SmallSloTraffic()).telemetry_dump;
  };
  const std::string dump = run_with_telemetry();
  // The traffic subsystem's names are all present...
  for (const char* name :
       {"loadgen/arrivals", "loadgen/submitted", "admission/admitted",
        "admission/shed", "admission/premium/admitted",
        "admission/best_effort/shed", "admission/shed_fraction",
        "slo/premium/violations", "slo/best_effort/violations",
        "loadgen/premium/latency_ms", "loadgen/best_effort/latency_ms"}) {
    EXPECT_NE(dump.find(name), std::string::npos) << name;
  }
  // ...and the export is reproducible run over run.
  EXPECT_EQ(dump, run_with_telemetry());
}

TEST(LoadgenRunTest, NoLoadgenMetricsLeakIntoClassicRuns) {
  telemetry::TelemetryParams tp;
  tp.enabled = true;
  telemetry::Telemetry tel(tp);
  workload::ConstantProfile profile(0.4, Seconds(5));
  experiment::RunOptions options;
  options.prime_duration = Seconds(3);
  options.telemetry = &tel;
  experiment::NodeRig rig(
      [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
        return std::make_unique<workload::MicroWorkload>(
            e, workload::ComputeBound(), 1e6, 2);
      },
      options);
  const experiment::RunResult r = experiment::Run(rig, profile);
  for (const char* prefix : {"loadgen/", "admission/", "slo/"}) {
    EXPECT_EQ(r.telemetry_dump.find(prefix), std::string::npos) << prefix;
  }
}

// ---------------------------------------------------------------------------
// Cluster entry routing
// ---------------------------------------------------------------------------

experiment::ClusterWorkloadFactory ClusterKvFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    params.num_keys = 16'777'216 * 2;
    params.batch_gets = 16'000;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

experiment::ClusterRunOptions SmallClusterOptions(bool any_node) {
  experiment::ClusterRunOptions options;
  // A slow fabric stretches message flight times so placement changes can
  // land while submissions are on the wire — the stale-forward window.
  hwsim::NetworkModelParams network;
  network.base_latency_us = 2000.0;
  options.cluster = hwsim::ClusterParams::Homogeneous(
      2, hwsim::ClusterNodeParams{}, network);
  options.prime_duration = Seconds(8);
  options.cluster_ecl.enabled = true;
  options.cluster_ecl.interval = Seconds(1);
  options.cluster_ecl.migrations_per_tick = 12;
  options.cluster_ecl.spread_migrations_per_tick = 24;
  options.cluster_ecl.min_on_time = Seconds(5);
  options.any_node_entry = any_node;
  return options;
}

experiment::RunResult RunCluster(const workload::LoadProfile& profile,
                                 bool any_node) {
  experiment::ClusterRig rig(ClusterKvFactory(), SmallClusterOptions(any_node));
  return experiment::Run(rig, profile);
}

TEST(LoadgenClusterTest, AnyNodeEntryForwardsAndStaysDeterministic) {
  // Load steps down hard so consolidation migrates partitions and powers a
  // node off mid-trace while traffic keeps entering at random nodes.
  const workload::StepProfile profile(
      {{0, 0.5}, {Seconds(10), 0.05}}, Seconds(30));
  const experiment::RunResult home = RunCluster(profile, false);
  const experiment::RunResult any = RunCluster(profile, true);
  // Home routing only crosses the network around migrations; any-node
  // routing crosses it on roughly half of every 2-node submission.
  EXPECT_GT(any.remote_sends, 4 * std::max<int64_t>(home.remote_sends, 1));
  // Re-homed partitions catch in-flight messages: the stale-epoch forward
  // path actually runs under placement churn.
  EXPECT_GT(any.migrations, 0);
  EXPECT_GT(any.stale_forwards, 0);
  EXPECT_EQ(any.completed, any.submitted);
  // Same options, same seeds, same simulation — bit for bit.
  const experiment::RunResult again = RunCluster(profile, true);
  EXPECT_EQ(again.submitted, any.submitted);
  EXPECT_EQ(again.remote_sends, any.remote_sends);
  EXPECT_EQ(again.stale_forwards, any.stale_forwards);
  EXPECT_DOUBLE_EQ(again.energy_j, any.energy_j);
}

// ---------------------------------------------------------------------------
// Cluster SLO runs under scripted faults
// ---------------------------------------------------------------------------

experiment::ClusterRunOptions CrashRestartOptions(telemetry::Telemetry* tel,
                                                  bool fast_forward) {
  experiment::ClusterRunOptions options;
  hwsim::ClusterNodeParams node;
  node.power.boot_latency = Seconds(2);  // the restart boots within the run
  options.cluster = hwsim::ClusterParams::Homogeneous(3, node);
  options.prime_duration = Seconds(3);
  options.fast_forward = fast_forward;
  options.telemetry = tel;
  options.faults.Crash(Seconds(3), 1).Restart(Seconds(5), 1);
  return options;
}

int64_t DumpCounter(const std::string& dump, const std::string& name) {
  const std::string key = "counter " + name + " ";
  const size_t at = dump.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(dump.substr(at + key.size()));
}

TEST(LoadgenClusterTest, CrashRestartRunConservesQueriesAndIsDeterministic) {
  auto run = [](bool fast_forward, std::string* dump) {
    telemetry::TelemetryParams tp;
    tp.enabled = true;
    telemetry::Telemetry tel(tp);
    experiment::ClusterRig rig(ClusterKvFactory(),
                               CrashRestartOptions(&tel, fast_forward));
    const experiment::RunResult r = experiment::Run(rig, SmallSloTraffic());
    *dump = r.telemetry_dump;
    return r;
  };
  std::string dump;
  const experiment::RunResult r = run(true, &dump);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.completed, 0);
  // The crash fails the dead node's in-flight queries back to the client;
  // every submission resolves exactly once.
  EXPECT_GT(r.failed, 0);
  EXPECT_GT(DumpCounter(dump, "faults/crashes"), 0);
  EXPECT_EQ(DumpCounter(dump, "loadgen/submitted"), r.completed + r.failed);
  for (const char* name :
       {"exp/offered_qps", "exp/power_w", "exp/latency_window_ms",
        "exp/pressure", "exp/shed_fraction", "exp/width"}) {
    EXPECT_GE(r.series.Find(name), 0) << name;
  }
  // The crashed node is down at some sample and back by the end.
  const std::vector<double> width = r.series.Column("exp/width");
  EXPECT_EQ(*std::min_element(width.begin(), width.end()), 2.0);
  EXPECT_EQ(width.back(), 3.0);

  // Same options, same run: dump and series byte for byte.
  std::string again_dump;
  const experiment::RunResult again = run(true, &again_dump);
  EXPECT_EQ(again_dump, dump);
  EXPECT_EQ(again.series, r.series);

  // Fast-forward off: identical series rows.
  std::string slow_dump;
  const experiment::RunResult slow = run(false, &slow_dump);
  EXPECT_EQ(slow.series.header, r.series.header);
  ASSERT_EQ(slow.series.size(), r.series.size());
  for (size_t i = 0; i < r.series.size(); ++i) {
    EXPECT_EQ(slow.series.rows[i], r.series.rows[i]) << i;
  }
}

}  // namespace
}  // namespace ecldb::loadgen
