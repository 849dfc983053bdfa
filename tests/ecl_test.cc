#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ecl/consolidation.h"
#include "ecl/meta_calibration.h"
#include "ecl/placement_packer.h"
#include "ecl/profile_maintenance.h"
#include "ecl/rti_controller.h"
#include "ecl/system_ecl.h"
#include "ecl/utilization_controller.h"
#include "hwsim/machine.h"
#include "profile/config_generator.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/work_profiles.h"

namespace ecldb::ecl {
namespace {

using hwsim::Topology;

/// Builds a small measured profile: 5 configs with a clear optimum.
///   perf:       10   20   30   40   50
///   power:       5    8   20   30   50
profile::EnergyProfile MeasuredProfile() {
  const Topology topo = Topology::HaswellEp2S();
  std::vector<profile::Configuration> configs;
  configs.push_back({hwsim::SocketConfig::Idle(topo), 0, 0, -1});
  const double perf[] = {10, 20, 30, 40, 50};
  const double power[] = {5, 8, 20, 30, 50};
  for (int i = 0; i < 5; ++i) {
    profile::Configuration c;
    c.hw = hwsim::SocketConfig::FirstThreads(topo, (i + 1) * 4, 2.0, 2.0);
    c.RecordMeasurement(power[i], perf[i], Seconds(1));
    configs.push_back(std::move(c));
  }
  return profile::EnergyProfile(std::move(configs));
}

TEST(UtilizationControllerTest, Equation3BelowFullUtilization) {
  UtilizationControllerParams p;
  p.headroom = 1.0;
  p.max_decrease = 0.0;
  UtilizationController c(p);
  const auto profile = MeasuredProfile();
  // new = utilization * old (Eq. 3).
  EXPECT_NEAR(c.Update(0.5, 20.0, 40.0, 0.0, profile), 20.0, 1e-9);
  EXPECT_NEAR(c.Update(0.8, 24.0, 30.0, 0.0, profile), 24.0, 1e-9);
}

TEST(UtilizationControllerTest, HeadroomPadsDemand) {
  UtilizationControllerParams p;
  p.headroom = 1.4;
  p.max_decrease = 0.0;
  UtilizationController c(p);
  const auto profile = MeasuredProfile();
  EXPECT_NEAR(c.Update(0.5, 20.0, 40.0, 0.0, profile), 28.0, 1e-9);
}

TEST(UtilizationControllerTest, DampedDecrease) {
  UtilizationControllerParams p;
  p.headroom = 1.0;
  p.max_decrease = 0.5;
  UtilizationController c(p);
  const auto profile = MeasuredProfile();
  // A sudden drop to 10 % utilization is limited to halving per tick.
  EXPECT_NEAR(c.Update(0.1, 4.0, 40.0, 0.0, profile), 20.0, 1e-9);
}

TEST(UtilizationControllerTest, ExponentialDiscoveryAtFullUtilization) {
  UtilizationControllerParams p;
  UtilizationController c(p);
  const auto profile = MeasuredProfile();
  const double next = c.Update(1.0, 20.0, 20.0, 0.0, profile);
  EXPECT_NEAR(next, 40.0, 1e-9);  // doubles
  // Capped at the peak performance score.
  EXPECT_NEAR(c.Update(1.0, 40.0, 40.0, 0.0, profile), 50.0, 1e-9);
}

TEST(UtilizationControllerTest, PressureAcceleratesDiscovery) {
  UtilizationControllerParams p;
  UtilizationController c(p);
  const auto profile = MeasuredProfile();
  const double relaxed = c.Update(1.0, 10.0, 10.0, 0.0, profile);
  const double pressured = c.Update(1.0, 10.0, 10.0, 1.0, profile);
  EXPECT_GT(pressured, relaxed);
  EXPECT_NEAR(pressured, 50.0, 1e-9);  // 10 * 2 * 4 capped at peak
}

TEST(UtilizationControllerTest, PressureFloorsDemand) {
  UtilizationControllerParams p;
  UtilizationController c(p);
  const auto profile = MeasuredProfile();
  // Low utilization but latency pressure 0.8: demand >= 0.8 * peak.
  EXPECT_GE(c.Update(0.1, 1.0, 10.0, 0.8, profile), 0.8 * 50.0 - 1e-9);
}

TEST(UtilizationControllerTest, EmptyProfileYieldsZero) {
  UtilizationController c((UtilizationControllerParams()));
  const Topology topo = Topology::HaswellEp2S();
  std::vector<profile::Configuration> configs;
  configs.push_back({hwsim::SocketConfig::Idle(topo), 0, 0, -1});
  profile::EnergyProfile empty(std::move(configs));
  EXPECT_DOUBLE_EQ(c.Update(1.0, 5.0, 10.0, 0.0, empty), 0.0);
}

TEST(RtiControllerTest, UnderUtilizationUsesRti) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  // Demand 10 is far below the optimum (perf 20): RTI between the optimal
  // configuration and idle with duty 0.5.
  const auto plan = c.MakePlan(10.0, profile.FindForDemand(10.0), profile, 0.0);
  EXPECT_TRUE(plan.use_rti);
  EXPECT_EQ(plan.config_index, 2);
  EXPECT_NEAR(plan.duty, 0.5, 1e-9);
  EXPECT_GE(plan.cycles, 1);
}

TEST(RtiControllerTest, NoRtiInOverUtilization) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto plan = c.MakePlan(45.0, profile.FindForDemand(45.0), profile, 0.0);
  EXPECT_FALSE(plan.use_rti);
  EXPECT_EQ(plan.config_index, 5);
}

TEST(RtiControllerTest, HighDutySkipsSwitching) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto plan = c.MakePlan(19.5, profile.FindForDemand(19.5), profile, 0.0);
  EXPECT_FALSE(plan.use_rti);  // duty would be 0.975 > kMaxDuty (0.95)
  EXPECT_EQ(plan.config_index, 2);
}

TEST(RtiControllerTest, PressureDisablesRti) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto plan = c.MakePlan(10.0, profile.FindForDemand(10.0), profile, 0.9);
  EXPECT_FALSE(plan.use_rti);
}

TEST(RtiControllerTest, PressureRaisesSwitchingFrequency) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto calm = c.MakePlan(10.0, 2, profile, 0.0);
  const auto tense = c.MakePlan(10.0, 2, profile, 0.6);
  EXPECT_GT(tense.cycles, calm.cycles);
  EXPECT_LE(tense.cycles, RtiControllerParams().max_cycles_per_interval);
}

TEST(ProfileMaintenanceTest, OnlineRecordsAndDetectsDrift) {
  ProfileMaintenance m((ProfileMaintenanceParams()));
  auto profile = MeasuredProfile();
  // Consistent measurement: no drift.
  auto out = m.RecordOnline(&profile, 2, 8.2, 19.8, Seconds(2));
  EXPECT_TRUE(out.recorded);
  EXPECT_FALSE(out.drift_detected);
  EXPECT_DOUBLE_EQ(profile.config(2).power_w, 8.2);
  // Strongly different measurement: drift (workload change).
  out = m.RecordOnline(&profile, 2, 16.0, 10.0, Seconds(3));
  EXPECT_TRUE(out.drift_detected);
  EXPECT_EQ(m.online_updates(), 2);
}

TEST(ProfileMaintenanceTest, DisabledOnlineDoesNothing) {
  ProfileMaintenanceParams p;
  p.enable_online = false;
  ProfileMaintenance m(p);
  auto profile = MeasuredProfile();
  const auto out = m.RecordOnline(&profile, 2, 16.0, 10.0, Seconds(3));
  EXPECT_FALSE(out.recorded);
  EXPECT_DOUBLE_EQ(profile.config(2).power_w, 8.0);  // untouched
}

TEST(ProfileMaintenanceTest, PicksStaleForReevaluation) {
  ProfileMaintenanceParams p;
  p.evals_per_interval = 2;
  p.stale_age = Seconds(10);
  ProfileMaintenance m(p);
  auto profile = MeasuredProfile();  // all measured at t=1s
  EXPECT_TRUE(m.PickForReevaluation(profile, Seconds(5)).empty());
  // After aging, picks arrive in bounded batches and make progress.
  const auto first = m.PickForReevaluation(profile, Seconds(100));
  ASSERT_EQ(first.size(), 2u);
  const auto second = m.PickForReevaluation(profile, Seconds(100));
  ASSERT_EQ(second.size(), 2u);
  EXPECT_NE(first[0], second[0]);
}

TEST(ProfileMaintenanceTest, FlagDriftMarksWholeProfile) {
  ProfileMaintenanceParams p;
  p.evals_per_interval = 100;
  ProfileMaintenance m(p);
  auto profile = MeasuredProfile();
  m.FlagDrift(&profile);
  EXPECT_EQ(m.PickForReevaluation(profile, Seconds(2)).size(), 5u);
}

TEST(SystemEclTest, PressureZeroWithoutLatencies) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEcl ecl(&sim, &latency, SystemEclParams{});
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 0.0);
}

TEST(SystemEclTest, ViolationMeansFullPressure) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEclParams params;
  params.latency_limit_ms = 100.0;
  SystemEcl ecl(&sim, &latency, params);
  latency.RecordCompletion(0, Millis(150));  // 150 ms > limit
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 1.0);
  EXPECT_DOUBLE_EQ(ecl.time_to_violation_s(), 0.0);
}

TEST(SystemEclTest, RisingTrendRaisesPressure) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(60));
  SystemEclParams params;
  params.latency_limit_ms = 100.0;
  params.pressure_horizon_s = 10.0;
  SystemEcl ecl(&sim, &latency, params);
  // Latency ramps 50 -> 80 ms over 3 s: ~10 ms/s slope, ttv ~3.5 s.
  for (int i = 0; i <= 30; ++i) {
    const SimTime t = Millis(100 * i);
    latency.RecordCompletion(t - Millis(50 + i), t);
  }
  ecl.Update();
  EXPECT_GT(ecl.pressure(), 0.3);
  EXPECT_LT(ecl.time_to_violation_s(), 10.0);
}

TEST(SystemEclTest, LowFlatLatencyRelaxed) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEcl ecl(&sim, &latency, SystemEclParams{});
  for (int i = 0; i < 10; ++i) {
    latency.RecordCompletion(Millis(100 * i), Millis(100 * i + 20));
  }
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 0.0);
  EXPECT_GT(ecl.time_to_violation_s(), 100.0);
}

TEST(SystemEclTest, FlatLatencyNearTheLimitRaisesPressure) {
  // No trend, but the mean sits at 0.85 of the limit: proximity pressure
  // rises linearly from the 0.7 onset, (0.85 - 0.7) / (1 - 0.7) = 0.5.
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEcl ecl(&sim, &latency, SystemEclParams{});
  for (int i = 0; i < 10; ++i) {
    latency.RecordCompletion(Millis(100 * i), Millis(100 * i + 85));
  }
  ecl.Update();
  EXPECT_NEAR(ecl.pressure(), 0.5, 1e-9);
  EXPECT_GT(ecl.time_to_violation_s(), 100.0);
}

TEST(SystemEclTest, ShedSignalFloorsPressureInEveryBranch) {
  // A fully shed entrance floors pressure at the 0.4 shed weight whatever
  // the latency window says; a violation still reads 1.
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEcl ecl(&sim, &latency, SystemEclParams{});
  ecl.SetShedSignal([] { return 1.0; });
  ecl.Update();  // empty window
  EXPECT_DOUBLE_EQ(ecl.pressure(), 0.4);
  for (int i = 0; i < 10; ++i) {
    latency.RecordCompletion(Millis(100 * i), Millis(100 * i + 20));
  }
  ecl.Update();  // flat 20 ms: no trend or proximity pressure
  EXPECT_DOUBLE_EQ(ecl.pressure(), 0.4);
  latency.RecordCompletion(Millis(1000), Millis(2500));  // mean > limit
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 1.0);
}

TEST(MetaCalibrationTest, FindsPaperLikeTimes) {
  // Fig. 12: applying a configuration is accurate even at 1 ms; measuring
  // needs ~100 ms; shorter windows deviate increasingly.
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  MetaCalibration cal(&sim, &machine, 0);
  const MetaCalibrationResult result = cal.Run(workload::ComputeBound());
  EXPECT_LE(result.apply_time, Millis(2));
  EXPECT_LE(result.measure_time, Millis(100));
  EXPECT_GE(result.measure_time, Millis(5));
  // The measure sweep deviation grows as the window shrinks.
  const auto& sweep = result.measure_sweep;
  ASSERT_GE(sweep.size(), 3u);
  EXPECT_GT(sweep.back().deviation, sweep.front().deviation);
}

// ---------------------------------------------------------------------------
// PlacementPacker: the consolidate/spread/dwell algorithm of both
// consolidation tiers, on a bare PlacementMap with scripted loads.
// ---------------------------------------------------------------------------

/// A packer over `placement` with the in-box limits of `params`, whose
/// loads and eligibility are set by hand. Every migration it starts
/// commits at once and is recorded, as is every load it reads.
struct PackerRig {
  explicit PackerRig(engine::PlacementMap map,
                     const ConsolidationParams& params = {}, int lane = 0)
      : placement(std::move(map)),
        loads(static_cast<size_t>(placement.num_sockets()), 0.0),
        eligible(static_cast<size_t>(placement.num_sockets()), true),
        packer(&sim, &placement,
               {.eligible =
                    [this](SocketId u) {
                      return eligible[static_cast<size_t>(u)];
                    },
                .load =
                    [this](SocketId u) {
                      load_calls.push_back(u);
                      return loads[static_cast<size_t>(u)];
                    },
                .migrate =
                    [this](PartitionId p, SocketId to) {
                      placement.BeginMigration(p, to);
                      placement.CommitMigration(p);
                      moves.emplace_back(p, to);
                      return true;
                    },
                .completed_migrations =
                    [this] { return static_cast<int64_t>(moves.size()); }},
               params, lane, "test") {}
  PackerRig(const PackerRig&) = delete;
  PackerRig& operator=(const PackerRig&) = delete;

  sim::Simulator sim;
  engine::PlacementMap placement;
  std::vector<double> loads;
  std::vector<bool> eligible;
  std::vector<SocketId> load_calls;
  std::vector<std::pair<PartitionId, SocketId>> moves;
  PlacementPacker packer;
};

using Moves = std::vector<std::pair<PartitionId, SocketId>>;

TEST(PlacementPackerTest, ConsolidatesLeastLoadedIntoMostLoaded) {
  // Units 0-2 hold two partitions each; unit 3 holds none.
  PackerRig rig(engine::PlacementMap({0, 0, 1, 1, 2, 2}, 4));
  rig.loads = {0.2, 0.1, 0.3, 0.0};
  rig.packer.Consolidate();
  // The empty unit 3 is neither donor nor receiver, despite its load of 0.
  EXPECT_EQ(rig.moves, (Moves{{2, 2}, {3, 2}}));
  EXPECT_EQ(rig.packer.consolidation_moves(), 2);
  EXPECT_EQ(rig.packer.spread_moves(), 0);
  // One pass over the populated units for the donor, one over the others
  // for the receiver, in unit order.
  EXPECT_EQ(rig.load_calls, (std::vector<SocketId>{0, 1, 2, 0, 2}));
}

TEST(PlacementPackerTest, LoadTiesGoToTheLowerUnit) {
  PackerRig rig(engine::PlacementMap({0, 1, 2}, 3));
  rig.loads = {0.1, 0.1, 0.1};
  rig.packer.Consolidate();
  EXPECT_EQ(rig.moves, (Moves{{0, 1}}));
}

TEST(PlacementPackerTest, ConsolidationShipsStagedBatches) {
  PackerRig rig(engine::PlacementMap({0, 0, 0, 0, 0, 0, 1}, 2));
  rig.loads = {0.1, 0.2};
  rig.packer.Consolidate();
  EXPECT_EQ(rig.moves, (Moves{{0, 1}, {1, 1}, {2, 1}, {3, 1}}));
}

TEST(PlacementPackerTest, EachGateBlocksConsolidation) {
  {  // The least-loaded unit is above kDonorLoadMax (0.45); at the bound
     // it donates.
    ConsolidationParams roomy;
    roomy.target_load_ceiling = 1.0;
    PackerRig rig(engine::PlacementMap({0, 1}, 2), roomy);
    rig.loads = {0.46, 0.5};
    rig.packer.Consolidate();
    EXPECT_TRUE(rig.moves.empty());
    rig.loads = {0.45, 0.5};
    rig.packer.Consolidate();
    EXPECT_EQ(rig.moves, (Moves{{0, 1}}));
  }
  {  // The receiver's projected load would exceed target_load_ceiling.
    PackerRig rig(engine::PlacementMap({0, 1}, 2));
    rig.loads = {0.2, 0.41};
    rig.packer.Consolidate();
    EXPECT_TRUE(rig.moves.empty());
  }
  {  // At target_load_ceiling exactly the receiver still takes the batch.
    ConsolidationParams at;
    at.target_load_ceiling = 0.5;
    PackerRig rig(engine::PlacementMap({0, 1}, 2), at);
    rig.loads = {0.25, 0.25};
    rig.packer.Consolidate();
    EXPECT_EQ(rig.moves, (Moves{{0, 1}}));
  }
  {  // A single populated unit has nowhere to go.
    PackerRig rig(engine::PlacementMap({1, 1}, 3));
    rig.packer.Consolidate();
    EXPECT_TRUE(rig.moves.empty());
    EXPECT_EQ(rig.load_calls, (std::vector<SocketId>{1}));
  }
}

TEST(PlacementPackerTest, IneligibleUnitsAreNeverChosen) {
  PackerRig rig(engine::PlacementMap({0, 1, 1, 2, 3, 3, 3, 3}, 5));
  rig.loads = {0.01, 0.1, 0.05, 0.4, 0.0};
  rig.eligible = {false, true, true, false, true};
  // Unit 0 would be the donor and unit 3 the receiver if they were on.
  rig.packer.Consolidate();
  EXPECT_EQ(rig.moves, (Moves{{3, 1}}));
  EXPECT_EQ(rig.load_calls, (std::vector<SocketId>{1, 2, 1}));

  // Spread: unit 3 (off) is the fullest, but the source is unit 1, the
  // fullest on unit; the destination is unit 2, the first empty on unit.
  // p3 goes back first: its initial home is unit 2.
  rig.moves.clear();
  rig.packer.Spread();
  EXPECT_EQ(rig.moves, (Moves{{3, 2}}));
}

TEST(PlacementPackerTest, SpreadHalvesTheGapInitialHomeFirst) {
  // Initial placement: unit 0 = p0-p3, unit 1 = p4-p7, unit 2 = p8-p11.
  // Then p8, p9 move to unit 0 and p10, p11 to unit 1, leaving unit 2
  // empty and units 0 and 1 tied at six partitions.
  engine::PlacementMap map(12, 3);
  for (const auto& [p, to] : Moves{{8, 0}, {9, 0}, {10, 1}, {11, 1}}) {
    map.BeginMigration(p, to);
    map.CommitMigration(p);
  }
  PackerRig rig(std::move(map));
  rig.packer.Spread();
  // The tie for the fullest unit goes to unit 0. The gap of 6 moves 3:
  // the two partitions whose initial home is unit 2, then the lowest id.
  EXPECT_EQ(rig.moves, (Moves{{8, 2}, {9, 2}, {0, 2}}));
  EXPECT_EQ(rig.packer.spread_moves(), 3);
  EXPECT_EQ(rig.packer.consolidation_moves(), 0);
  EXPECT_TRUE(rig.load_calls.empty());  // spreading counts partitions only
}

TEST(PlacementPackerTest, SpreadIsCappedAndNeedsAGapOfTwo) {
  ConsolidationParams limits;
  limits.spread_migrations_per_tick = 2;
  PackerRig rig(engine::PlacementMap({0, 0, 0, 0, 0, 0, 0, 0}, 2), limits);
  rig.packer.Spread();  // gap 8 allows 4, the cap 2
  EXPECT_EQ(rig.moves, (Moves{{0, 1}, {1, 1}}));

  PackerRig even(engine::PlacementMap({0, 0, 1}, 2), limits);
  even.packer.Spread();  // gap 1
  EXPECT_TRUE(even.moves.empty());
}

TEST(PlacementPackerTest, DwellHoldsAReversalButNotAContinuation) {
  using Direction = PlacementPacker::Direction;
  PackerRig rig(engine::PlacementMap({0, 0, 1, 1}, 2));
  rig.loads = {0.1, 0.2};
  rig.packer.ObserveMigrations();
  EXPECT_FALSE(rig.packer.Holds(Direction::kSpread));
  EXPECT_FALSE(rig.packer.Holds(Direction::kConsolidate));

  rig.sim.RunFor(Seconds(5));
  rig.packer.Consolidate();
  ASSERT_EQ(rig.moves.size(), 2u);
  rig.packer.ObserveMigrations();  // the dwell clock starts at t = 5 s
  EXPECT_TRUE(rig.packer.Holds(Direction::kSpread));
  EXPECT_FALSE(rig.packer.Holds(Direction::kConsolidate));

  // Ticks that see no new completion do not restart the clock.
  rig.sim.RunFor(Seconds(14));
  rig.packer.ObserveMigrations();
  EXPECT_TRUE(rig.packer.Holds(Direction::kSpread));
  rig.sim.RunFor(Seconds(1));  // t = 20 s: post_migration_hold has passed
  rig.packer.ObserveMigrations();
  EXPECT_FALSE(rig.packer.Holds(Direction::kSpread));

  // A spread batch flips which direction the next completion holds.
  rig.packer.Spread();
  ASSERT_EQ(rig.moves.size(), 4u);
  rig.packer.ObserveMigrations();
  EXPECT_TRUE(rig.packer.Holds(Direction::kConsolidate));
  EXPECT_FALSE(rig.packer.Holds(Direction::kSpread));
}

TEST(PlacementPackerTest, BatchesLeaveInstantsOnTheTiersLane) {
  telemetry::TelemetryParams tp;
  tp.enabled = true;
  telemetry::Telemetry tel(tp);
  ConsolidationParams params;
  params.telemetry = &tel;
  const int lane = tel.trace().RegisterLane("test/packer");
  PackerRig rig(engine::PlacementMap({0, 1}, 2), params, lane);
  rig.loads = {0.1, 0.2};
  rig.packer.Consolidate();
  rig.packer.Spread();
  const std::vector<const telemetry::TraceEvent*> events =
      tel.trace().InOrder();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0]->lane, lane);
  EXPECT_EQ(events[0]->cat, "test");
  EXPECT_EQ(events[0]->name, "consolidate_batch");
  EXPECT_EQ(events[0]->args, "\"donor\":0,\"receiver\":1,\"migrations\":1");
  EXPECT_EQ(events[1]->name, "spread_batch");
  EXPECT_EQ(events[1]->args, "\"src\":1,\"dst\":0,\"migrations\":1");
}

}  // namespace
}  // namespace ecldb::ecl
