#include <gtest/gtest.h>

#include <vector>

#include "ecl/ecl.h"
#include "engine/engine.h"
#include "engine/migration.h"
#include "engine/placement.h"
#include "experiment/experiment.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/work_profiles.h"

namespace ecldb::engine {
namespace {

// ---------------------------------------------------------------------------
// PlacementMap unit tests
// ---------------------------------------------------------------------------

TEST(PlacementMapTest, BlockwisePlacementMatchesHistoricalFormula) {
  // The constructed placement must reproduce the mapping the Database used
  // to compute, for any partition/socket ratio (ceil-divide blocks, the
  // remainder clamped onto the last socket).
  for (const auto& [n, s] : std::vector<std::pair<int, int>>{
           {48, 2}, {16, 2}, {7, 3}, {5, 8}, {1, 1}, {48, 4}}) {
    PlacementMap placement(n, s);
    const int per_socket = (n + s - 1) / s;
    for (PartitionId p = 0; p < n; ++p) {
      const SocketId expected = std::min(p / per_socket, s - 1);
      EXPECT_EQ(placement.HomeOf(p), expected) << n << "/" << s << " p" << p;
      EXPECT_EQ(placement.InitialHomeOf(p), expected);
    }
  }
}

TEST(PlacementMapTest, ExplicitPlacementAndCounts) {
  PlacementMap placement({0, 1, 1, 0, 1}, 2);
  EXPECT_EQ(placement.num_partitions(), 5);
  EXPECT_EQ(placement.num_sockets(), 2);
  EXPECT_EQ(placement.PartitionsOn(0), 2);
  EXPECT_EQ(placement.PartitionsOn(1), 3);
  EXPECT_EQ(placement.PartitionsOf(1), (std::vector<PartitionId>{1, 2, 4}));
  EXPECT_EQ(placement.epoch(), 0);
}

TEST(PlacementMapTest, MigrationBumpsEpochAndMovesCounts) {
  PlacementMap placement(4, 2);  // {0,0,1,1}
  EXPECT_FALSE(placement.IsMigrating(0));
  EXPECT_EQ(placement.MigrationTarget(0), -1);

  placement.BeginMigration(0, 1);
  EXPECT_TRUE(placement.IsMigrating(0));
  EXPECT_EQ(placement.MigrationTarget(0), 1);
  EXPECT_EQ(placement.migrating_count(), 1);
  // Routing unchanged until the commit.
  EXPECT_EQ(placement.HomeOf(0), 0);
  EXPECT_EQ(placement.epoch(), 0);

  EXPECT_EQ(placement.CommitMigration(0), 0);  // returns the old home
  EXPECT_EQ(placement.HomeOf(0), 1);
  EXPECT_EQ(placement.InitialHomeOf(0), 0);  // initial placement remembered
  EXPECT_EQ(placement.epoch(), 1);
  EXPECT_EQ(placement.migrating_count(), 0);
  EXPECT_EQ(placement.completed_migrations(), 1);
  EXPECT_EQ(placement.PartitionsOn(0), 1);
  EXPECT_EQ(placement.PartitionsOn(1), 3);
  EXPECT_FALSE(placement.IsMigrating(0));

  // Move it back: second epoch.
  placement.BeginMigration(0, 0);
  EXPECT_EQ(placement.CommitMigration(0), 1);
  EXPECT_EQ(placement.epoch(), 2);
  EXPECT_EQ(placement.PartitionsOn(0), 2);
}

TEST(PlacementMapTest, CancelMigrationLeavesRoutingUntouched) {
  // Node-scope migrations can abort mid-copy (the destination powered
  // down): the cancel clears the migrating state without bumping the
  // epoch or moving the partition — the source was never unhomed.
  PlacementMap placement(4, 2);
  placement.BeginMigration(0, 1);
  ASSERT_TRUE(placement.IsMigrating(0));
  placement.CancelMigration(0);
  EXPECT_FALSE(placement.IsMigrating(0));
  EXPECT_EQ(placement.MigrationTarget(0), -1);
  EXPECT_EQ(placement.HomeOf(0), 0);
  EXPECT_EQ(placement.epoch(), 0);
  EXPECT_EQ(placement.migrating_count(), 0);
  EXPECT_EQ(placement.completed_migrations(), 0);
  EXPECT_EQ(placement.cancelled_migrations(), 1);
  EXPECT_EQ(placement.PartitionsOn(0), 2);
  EXPECT_EQ(placement.PartitionsOn(1), 2);
  // A fresh migration of the same partition still works normally.
  placement.BeginMigration(0, 1);
  EXPECT_EQ(placement.CommitMigration(0), 0);
  EXPECT_EQ(placement.epoch(), 1);
  EXPECT_EQ(placement.HomeOf(0), 1);
}

// ---------------------------------------------------------------------------
// Live-migration protocol
// ---------------------------------------------------------------------------

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : machine_(&sim_, hwsim::MachineParams::HaswellEp()),
        engine_(&sim_, &machine_, EngineParams{}) {}

  void AllOn() {
    machine_.ApplyMachineConfig(
        hwsim::MachineConfig::AllOn(machine_.topology(), 2.6, 3.0));
  }

  QuerySpec ComputeQuery(PartitionId p, double ops) {
    QuerySpec spec;
    spec.profile = &workload::ComputeBound();
    spec.work.push_back({p, ops});
    spec.origin_socket = engine_.placement().HomeOf(p);
    return spec;
  }

  sim::Simulator sim_;
  hwsim::Machine machine_;
  Engine engine_;
};

TEST_F(MigrationTest, PartitionMovesAndStaysServable) {
  AllOn();
  ASSERT_EQ(engine_.placement().HomeOf(0), 0);
  sim_.ScheduleAfter(Millis(1), [&] {
    EXPECT_TRUE(engine_.migrator().StartMigration(0, 1));
    EXPECT_TRUE(engine_.placement().IsMigrating(0));
  });
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_.migrator().completed(), 1);
  EXPECT_EQ(engine_.migrator().active(), 0);
  EXPECT_EQ(engine_.placement().HomeOf(0), 1);
  EXPECT_EQ(engine_.placement().epoch(), 1);
  EXPECT_TRUE(engine_.message_layer().router(1)->Owns(0));
  EXPECT_FALSE(engine_.message_layer().router(0)->Owns(0));
  // The moved partition executes work at its new home.
  engine_.Submit(ComputeQuery(0, 1e6));
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
  EXPECT_EQ(engine_.scheduler().inflight(), 0);
}

TEST_F(MigrationTest, RejectsRedundantOrConcurrentStarts) {
  AllOn();
  sim_.ScheduleAfter(Millis(1), [&] {
    EXPECT_FALSE(engine_.migrator().StartMigration(0, 0));  // already home
    EXPECT_TRUE(engine_.migrator().StartMigration(0, 1));
    EXPECT_FALSE(engine_.migrator().StartMigration(0, 1));  // in progress
  });
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_.migrator().started(), 1);
  EXPECT_EQ(engine_.migrator().completed(), 1);
}

TEST_F(MigrationTest, QueuedWorkDrainsBeforeHandover) {
  AllOn();
  // A long backlog sits in partition 0's queue when the migration starts:
  // the shard copy rides the FIFO queue behind it, so the drain barrier
  // holds — all of it completes, and the partition ends up rehomed.
  for (int i = 0; i < 50; ++i) engine_.Submit(ComputeQuery(0, 1e6));
  sim_.ScheduleAfter(Millis(1),
                     [&] { EXPECT_TRUE(engine_.migrator().StartMigration(0, 1)); });
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(engine_.latency().completed(), 50);
  EXPECT_EQ(engine_.migrator().completed(), 1);
  EXPECT_EQ(engine_.placement().HomeOf(0), 1);
  // The shard copy is internal bookkeeping: it must not appear in the
  // query counts or latency statistics.
  EXPECT_EQ(engine_.scheduler().queries_submitted(), 50);
  EXPECT_EQ(engine_.scheduler().inflight(), 0);
}

TEST(MigrationStreamTest, InflightTrafficSurvivesRehome) {
  // Remote queries stream into a partition while it migrates with a
  // sizeable modeled shard: messages queued behind the copy travel with
  // the rehomed queue, and messages still in flight toward the old home
  // are forwarded under the stale epoch. Nothing is lost either way.
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  EngineParams params;
  params.migration.min_shard_bytes = 256.0 * (1 << 20);  // ~10 ms copy
  Engine engine(&sim, &machine, params);
  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));

  int submitted = 0;
  std::function<void()> submit_one = [&] {
    if (sim.now() >= Millis(60)) return;
    QuerySpec spec;
    spec.profile = &workload::ComputeBound();
    spec.work.push_back({0, 1e5});
    spec.origin_socket = 1;  // remote origin: messages cross the comm hop
    engine.Submit(spec);
    ++submitted;
    sim.ScheduleAfter(Micros(500), submit_one);
  };
  sim.ScheduleAfter(Micros(100), submit_one);
  sim.ScheduleAfter(Millis(5),
                    [&] { EXPECT_TRUE(engine.migrator().StartMigration(0, 1)); });
  sim.RunFor(Millis(300));

  EXPECT_EQ(engine.migrator().completed(), 1);
  EXPECT_EQ(engine.placement().HomeOf(0), 1);
  EXPECT_GT(submitted, 50);
  EXPECT_EQ(engine.latency().completed(), submitted);
  EXPECT_EQ(engine.scheduler().inflight(), 0);
  // The stream was dense relative to the copy, so the rehome must have
  // carried queued messages and/or forwarded stale arrivals.
  const int64_t rehomed = engine.migrator().messages_rehomed();
  const int64_t stale = engine.socket_msg_stats(0).stale_forwards;
  EXPECT_GT(rehomed + stale, 0);
}

TEST_F(MigrationTest, QueriesSpanningMigratingPartitionComplete) {
  AllOn();
  // Multi-partition queries touching both the migrating partition and
  // partitions on both sockets, submitted before, during, and after the
  // migration window.
  auto span_query = [&] {
    QuerySpec spec;
    spec.profile = &workload::ComputeBound();
    spec.work.push_back({0, 1e6});   // migrating
    spec.work.push_back({5, 1e6});   // stays on socket 0
    spec.work.push_back({30, 1e6});  // socket 1
    spec.origin_socket = 0;
    engine_.Submit(spec);
  };
  span_query();
  sim_.ScheduleAfter(Millis(1), [&] {
    EXPECT_TRUE(engine_.migrator().StartMigration(0, 1));
    span_query();
  });
  sim_.ScheduleAfter(Millis(50), span_query);
  sim_.RunFor(Millis(200));
  EXPECT_EQ(engine_.migrator().completed(), 1);
  EXPECT_EQ(engine_.latency().completed(), 3);
  EXPECT_EQ(engine_.scheduler().inflight(), 0);
}

TEST_F(MigrationTest, ChargesBandwidthLimitedCopyCost) {
  AllOn();
  EngineParams params;
  params.migration.min_shard_bytes = 512.0 * (1 << 20);
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  Engine engine(&sim, &machine, params);
  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));
  sim.ScheduleAfter(Millis(1),
                    [&] { EXPECT_TRUE(engine.migrator().StartMigration(0, 1)); });
  sim.RunFor(Seconds(2));
  EXPECT_EQ(engine.migrator().completed(), 1);
  EXPECT_DOUBLE_EQ(engine.migrator().bytes_moved(), 512.0 * (1 << 20));
  // 512 MB over a 25 GB/s interconnect needs at least ~20 ms: the copy
  // must not hand over before the bandwidth-limited lower bound.
  const double qpi_gbps = machine.params().bandwidth.qpi_gbps;
  const double min_s = 512.0 * (1 << 20) / (qpi_gbps * 1e9);
  EXPECT_GE(ToSeconds(sim.now()), min_s);
}

// ---------------------------------------------------------------------------
// Consolidation policy (system-level ECL)
// ---------------------------------------------------------------------------

TEST(ConsolidationTest, LowLoadEmptiesAndParksASocket) {
  experiment::RunOptions options;
  options.mode = experiment::ControlMode::kEcl;
  options.prime_duration = Seconds(28);
  options.ecl.consolidation.enabled = true;
  options.engine.migration.min_shard_bytes = 128.0 * (1 << 20);
  workload::ConstantProfile profile(0.1, Seconds(60));
  experiment::NodeRig rig(
      [](Engine* e) {
        workload::KvParams params;
        params.indexed = false;
        return std::make_unique<workload::KvWorkload>(e, params);
      },
      options);
  const experiment::RunResult r = experiment::Run(rig, profile);
  // At 10 % machine load one socket carries everything: the policy must
  // have emptied the other socket...
  EXPECT_GT(r.migrations, 0);
  EXPECT_GT(r.consolidation_moves, 0);
  ASSERT_FALSE(r.series.empty());
  const size_t last = r.series.size() - 1;
  EXPECT_EQ(r.series.Find("exp/socket2/partitions"), -1);  // two sockets
  const double parts0 = r.series.At(last, "exp/socket0/partitions");
  const double parts1 = r.series.At(last, "exp/socket1/partitions");
  EXPECT_EQ(std::min(parts0, parts1), 0.0);
  EXPECT_EQ(std::max(parts0, parts1), 48.0);
  // ...without losing queries or the latency limit.
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_LT(r.p99_ms, options.ecl.system.latency_limit_ms);
  // The parked socket's power collapses to the deep package-sleep floor:
  // halted-package base (13 W) + static DRAM (8 W) + the pinned uncore.
  // The shallow idle state would add another 9 W and any active
  // configuration adds core power on top, so < 25 W demonstrates the
  // socket actually reached the deep state.
  const double min_socket_w =
      std::min(r.series.At(last, "exp/socket0/power_w"),
               r.series.At(last, "exp/socket1/power_w"));
  EXPECT_LT(min_socket_w, 25.0);
}

TEST(ConsolidationTest, DeterministicAcrossRuns) {
  auto run = [] {
    experiment::RunOptions options;
    options.prime_duration = Seconds(10);
    options.ecl.consolidation.enabled = true;
    options.engine.migration.min_shard_bytes = 128.0 * (1 << 20);
    workload::ConstantProfile profile(0.1, Seconds(30));
    experiment::NodeRig rig(
        [](Engine* e) {
          workload::KvParams params;
          params.indexed = false;
          return std::make_unique<workload::KvWorkload>(e, params);
        },
        options);
    return experiment::Run(rig, profile);
  };
  const experiment::RunResult a = run();
  const experiment::RunResult b = run();
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.consolidation_moves, b.consolidation_moves);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.stale_forwards, b.stale_forwards);
}

TEST(ConsolidationTest, PressureSpreadsPartitionsBack) {
  // Low load consolidates; a following high phase must spread partitions
  // back across the sockets instead of riding one socket into overload.
  experiment::RunOptions options;
  options.prime_duration = Seconds(28);
  options.ecl.consolidation.enabled = true;
  options.engine.migration.min_shard_bytes = 32.0 * (1 << 20);
  workload::StepProfile profile({{Seconds(0), 0.1}, {Seconds(40), 0.9}},
                                Seconds(80));
  experiment::NodeRig rig(
      [](Engine* e) {
        workload::KvParams params;
        params.indexed = false;
        return std::make_unique<workload::KvWorkload>(e, params);
      },
      options);
  const experiment::RunResult r = experiment::Run(rig, profile);
  EXPECT_GT(r.consolidation_moves, 0);
  EXPECT_GT(r.spread_moves, 0);
  ASSERT_FALSE(r.series.empty());
  const size_t last = r.series.size() - 1;
  // Both sockets populated again at the end of the high phase.
  EXPECT_GT(r.series.At(last, "exp/socket0/partitions"), 0.0);
  EXPECT_GT(r.series.At(last, "exp/socket1/partitions"), 0.0);
  EXPECT_EQ(r.completed, r.submitted);
}

}  // namespace
}  // namespace ecldb::engine
