#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ecl/cluster_ecl.h"
#include "engine/cluster_engine.h"
#include "hwsim/cluster.h"
#include "hwsim/machine.h"
#include "msg/message_layer.h"
#include "msg/segmented_fifo.h"
#include "sim/simulator.h"
#include "workload/work_profiles.h"

namespace ecldb::engine {
namespace {

// Two default nodes, eight global partitions (0-3 homed on node 0, 4-7 on
// node 1 at cluster scope), every machine running all-on.
class ClusterEngineTest : public ::testing::Test {
 protected:
  void Build(hwsim::ClusterParams cluster_params,
             ClusterEngineParams engine_params) {
    cluster_ = std::make_unique<hwsim::Cluster>(&sim_, cluster_params);
    engine_params.num_partitions = 8;
    engine_ = std::make_unique<ClusterEngine>(&sim_, cluster_.get(),
                                              engine_params);
    for (NodeId n = 0; n < cluster_->num_nodes(); ++n) AllOn(n);
  }

  void Build() {
    Build(hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{}),
          ClusterEngineParams{});
  }

  void AllOn(NodeId n) {
    hwsim::Machine& m = cluster_->machine(n);
    m.ApplyMachineConfig(hwsim::MachineConfig::AllOn(m.topology(), 2.6, 3.0));
  }

  int64_t node_engine_completed(NodeId n) {
    return engine_->node_engine(n).latency().completed();
  }

  QuerySpec ComputeQuery(PartitionId p, double ops) {
    QuerySpec spec;
    spec.profile = &workload::ComputeBound();
    spec.work.push_back({p, ops});
    return spec;
  }

  /// Bytes of one segment of a default-capacity partition queue's FIFO.
  static size_t RingSegmentBytes() {
    return msg::SegmentedFifo<msg::Message>(
               msg::MessageLayerParams{}.partition_queue_capacity)
        .segment_bytes();
  }

  sim::Simulator sim_;
  std::unique_ptr<hwsim::Cluster> cluster_;
  std::unique_ptr<ClusterEngine> engine_;
};

TEST_F(ClusterEngineTest, DefaultPartitionCountSumsNodeThreads) {
  hwsim::Cluster cluster(
      &sim_, hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{}));
  ClusterEngine engine(&sim_, &cluster, ClusterEngineParams{});
  EXPECT_EQ(engine.num_partitions(),
            2 * cluster.machine(0).topology().total_threads());
  EXPECT_EQ(engine.placement().num_sockets(), 2);  // node-level map
}

TEST_F(ClusterEngineTest, LocalSubmitStaysOffTheNetwork) {
  Build();
  engine_->Submit(0, ComputeQuery(0, 1e6));
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_->CompletedQueries(), 1);
  EXPECT_EQ(engine_->remote_sends(), 0);
  EXPECT_EQ(cluster_->network().transfers(), 0);
}

TEST_F(ClusterEngineTest, CrossNodeSubmitShipsAndCompletes) {
  Build();
  // Partition 4 is homed on node 1; the client enters at node 0.
  engine_->Submit(0, ComputeQuery(4, 1e6));
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_->CompletedQueries(), 1);
  EXPECT_EQ(engine_->remote_sends(), 1);
  EXPECT_EQ(engine_->stale_forwards(), 0);
  EXPECT_EQ(cluster_->network().transfers(), 1);
  EXPECT_EQ(node_engine_completed(1), 1);
  EXPECT_EQ(node_engine_completed(0), 0);
}

TEST_F(ClusterEngineTest, MessageRingsAllocateOnFirstMessage) {
  // Every node engine has a queue for every cluster partition, but only
  // queues that receive a message hold FIFO storage, and a drained one
  // keeps a single segment.
  Build(hwsim::ClusterParams::Homogeneous(4, hwsim::ClusterNodeParams{}),
        ClusterEngineParams{});
  auto ring_bytes = [this] {
    size_t bytes = 0;
    for (NodeId n = 0; n < engine_->num_nodes(); ++n) {
      bytes += engine_->node_engine(n).message_layer().MemoryBytes();
    }
    return bytes;
  };
  EXPECT_EQ(ring_bytes(), 0u);
  const PartitionId p = 5;
  const NodeId home = engine_->placement().HomeOf(p);
  engine_->Submit((home + 1) % engine_->num_nodes(), ComputeQuery(p, 1e6));
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_->CompletedQueries(), 1);
  const size_t segment = RingSegmentBytes();
  for (NodeId n = 0; n < engine_->num_nodes(); ++n) {
    msg::MessageLayer& layer = engine_->node_engine(n).message_layer();
    for (PartitionId q = 0; q < engine_->num_partitions(); ++q) {
      EXPECT_EQ(layer.partition_queue(q)->MemoryBytes(),
                n == home && q == p ? segment : 0u)
          << "node " << n << " partition " << q;
    }
  }
  EXPECT_EQ(ring_bytes(), segment);  // no outbox was used either
}

TEST_F(ClusterEngineTest, MultiNodeQuerySplitsByHomeNode) {
  Build();
  QuerySpec spec = ComputeQuery(0, 1e6);
  spec.work.push_back({5, 1e6});  // node 1
  engine_->Submit(0, spec);
  sim_.RunFor(Millis(100));
  // One sub-query per home node; exactly one hop crossed the network.
  EXPECT_EQ(engine_->remote_sends(), 1);
  EXPECT_EQ(node_engine_completed(0), 1);
  EXPECT_EQ(node_engine_completed(1), 1);
}

TEST_F(ClusterEngineTest, NodeMigrationRehomesWithExactness) {
  // The test partitions hold no tuples, so the shard-copy floor is what
  // crosses the wire (~13 ms at 10 Gbps).
  ClusterEngineParams params;
  params.migration.min_shard_bytes = 16.0 * (1 << 20);
  Build(hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{}),
        params);
  // A backlog sits on partition 0 when the node-scope migration starts:
  // the drain barrier holds, everything queued completes on the source,
  // and the partition ends up homed on node 1.
  const int kQueries = 30;
  for (int i = 0; i < kQueries; ++i) engine_->Submit(0, ComputeQuery(0, 1e6));
  sim_.ScheduleAfter(Millis(1), [&] {
    EXPECT_TRUE(engine_->StartMigration(0, 1));
    EXPECT_TRUE(engine_->placement().IsMigrating(0));
    EXPECT_TRUE(engine_->NodeInvolvedInMigration(0));
    EXPECT_TRUE(engine_->NodeInvolvedInMigration(1));
    // Redundant or concurrent starts are rejected.
    EXPECT_FALSE(engine_->StartMigration(0, 1));
  });
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(engine_->migrations_completed(), 1);
  EXPECT_EQ(engine_->active_migrations(), 0);
  EXPECT_EQ(engine_->placement().HomeOf(0), 1);
  EXPECT_EQ(engine_->placement().epoch(), 1);
  EXPECT_FALSE(engine_->NodeInvolvedInMigration(0));
  EXPECT_GT(engine_->bytes_moved(), 0.0);
  // Exactness: every submitted query completed exactly once, none were
  // dropped at the handover, and the internal shard copy is invisible in
  // the query counts.
  EXPECT_EQ(engine_->CompletedQueries(), kQueries);
  // New work for the moved partition entering at its new home is local.
  const int64_t sends_before = engine_->remote_sends();
  engine_->Submit(1, ComputeQuery(0, 1e6));
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_->CompletedQueries(), kQueries + 1);
  EXPECT_EQ(engine_->remote_sends(), sends_before);
}

TEST_F(ClusterEngineTest, MigratedPartitionQueueShrinksOnTheOldHome) {
  // Partition 0 leaves node 0 with a backlog of several FIFO segments
  // queued there. The backlog completes on node 0 (the drain barrier),
  // after which its queue keeps at most the segment it would fill next,
  // so node 0's queue memory falls instead of staying at its peak.
  ClusterEngineParams params;
  params.migration.min_shard_bytes = 16.0 * (1 << 20);
  Build(hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{}),
        params);
  const msg::MessageLayer& old_home = engine_->node_engine(0).message_layer();
  const msg::PartitionQueue& queue = *old_home.partition_queue(0);
  const size_t segment = RingSegmentBytes();
  const int kQueries = 200;
  for (int i = 0; i < kQueries; ++i) engine_->Submit(0, ComputeQuery(0, 1e6));
  const size_t backlog_bytes = old_home.MemoryBytes();
  EXPECT_GE(queue.MemoryBytes(), 3 * segment);
  sim_.ScheduleAfter(Millis(1),
                     [&] { EXPECT_TRUE(engine_->StartMigration(0, 1)); });
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(engine_->migrations_completed(), 1);
  EXPECT_EQ(engine_->placement().HomeOf(0), 1);
  EXPECT_EQ(engine_->CompletedQueries(), kQueries);
  EXPECT_TRUE(queue.Empty());
  EXPECT_LE(queue.MemoryBytes(), segment);
  EXPECT_LT(old_home.MemoryBytes(), backlog_bytes);
}

TEST_F(ClusterEngineTest, RejectsMigrationToSelfOrOffNodes) {
  Build();
  EXPECT_FALSE(engine_->StartMigration(0, 0));  // already home
  cluster_->PowerDown(1);
  EXPECT_FALSE(engine_->StartMigration(0, 1));  // destination off
  EXPECT_FALSE(engine_->StartMigration(4, 0));  // source off
  EXPECT_EQ(engine_->migrations_started(), 0);
}

TEST_F(ClusterEngineTest, StaleFlightForwardsToNewHome) {
  // A remote submission is on the wire toward partition 4's old home
  // when the node-scope rehome commits: the delivery re-resolves the
  // placement, counts a stale forward, and takes another hop.
  hwsim::ClusterParams cluster_params =
      hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{});
  cluster_params.network.base_latency_us = 100'000.0;  // 100 ms flight
  Build(cluster_params, ClusterEngineParams{});
  // Migration 4: node1 -> node0. The empty-queue drain plus the tiny
  // shard transfer commit at ~100 ms (one base latency).
  EXPECT_TRUE(engine_->StartMigration(4, 0));
  // Mid-flight submission: ships toward node 1 at 50 ms, arrives at
  // 150 ms — after the commit — and must forward back to node 0.
  sim_.Schedule(Millis(50), [&] {
    EXPECT_EQ(engine_->placement().HomeOf(4), 1);  // commit still pending
    engine_->Submit(0, ComputeQuery(4, 1e6));
  });
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(engine_->migrations_completed(), 1);
  EXPECT_EQ(engine_->placement().HomeOf(4), 0);
  EXPECT_EQ(engine_->CompletedQueries(), 1);
  EXPECT_EQ(engine_->stale_forwards(), 1);
  EXPECT_EQ(engine_->remote_sends(), 2);  // original hop + forward
  EXPECT_EQ(node_engine_completed(0), 1);
}

TEST_F(ClusterEngineTest, ForwardHopCapFailsTypedInsteadOfLivelock) {
  // A placement that keeps re-homing ahead of every delivery would chase
  // the partition forever; the hop cap turns the chase into a typed
  // kForwardCap failure with the client's class/tenant/attempt echoed.
  hwsim::ClusterParams cluster_params =
      hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{});
  cluster_params.network.base_latency_us = 100'000.0;  // 100 ms flight
  ClusterEngineParams engine_params;
  engine_params.max_forward_hops = 2;
  Build(cluster_params, engine_params);

  struct Failure {
    int8_t slo_class;
    int16_t tenant;
    int8_t attempt;
    FailReason reason;
  };
  std::vector<Failure> failures;
  engine_->SetQueryFailureCallback([&](int8_t cls, int16_t tenant,
                                       int8_t attempt, SimTime,
                                       FailReason reason) {
    failures.push_back({cls, tenant, attempt, reason});
  });

  // Partition 4 is homed on node 1; the client enters at node 0. Each
  // hop takes ~100 ms; a forced re-home lands mid-flight ahead of every
  // delivery, so the query ping-pongs: hop 1 at 100 ms (node 1, home 0),
  // hop 2 at 200 ms (node 0, home 1), capped at 300 ms (node 1, home 0).
  QuerySpec spec = ComputeQuery(4, 1e6);
  spec.slo_class = 1;
  spec.tenant = 3;
  spec.attempt = 2;
  engine_->Submit(0, spec);
  sim_.Schedule(Millis(50), [&] { engine_->placement().ForceRehome(4, 0); });
  sim_.Schedule(Millis(150), [&] { engine_->placement().ForceRehome(4, 1); });
  sim_.Schedule(Millis(250), [&] { engine_->placement().ForceRehome(4, 0); });
  sim_.RunFor(Seconds(1));

  EXPECT_EQ(engine_->stale_forwards(), 2);
  EXPECT_EQ(engine_->forward_drops(), 1);
  EXPECT_EQ(engine_->QueriesFailed(), 1);
  EXPECT_EQ(engine_->CompletedQueries(), 0);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].reason, FailReason::kForwardCap);
  EXPECT_EQ(failures[0].slo_class, 1);
  EXPECT_EQ(failures[0].tenant, 3);
  EXPECT_EQ(failures[0].attempt, 2);
}

TEST_F(ClusterEngineTest, MigrationCancelsWhenDestinationPowersDown) {
  ClusterEngineParams params;
  params.migration.min_shard_bytes = 256.0 * (1 << 20);  // ~215 ms on wire
  Build(hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{}),
        params);
  EXPECT_TRUE(engine_->StartMigration(0, 1));
  // The destination powers down while the shard copy is on the wire.
  sim_.Schedule(Millis(100), [&] { cluster_->PowerDown(1); });
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(engine_->migrations_cancelled(), 1);
  EXPECT_EQ(engine_->migrations_completed(), 0);
  EXPECT_EQ(engine_->active_migrations(), 0);
  // The source was never unhomed: placement, epoch, and servability are
  // untouched.
  EXPECT_EQ(engine_->placement().HomeOf(0), 0);
  EXPECT_EQ(engine_->placement().epoch(), 0);
  EXPECT_FALSE(engine_->placement().IsMigrating(0));
  EXPECT_DOUBLE_EQ(engine_->bytes_moved(), 0.0);
  engine_->Submit(0, ComputeQuery(0, 1e6));
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_->CompletedQueries(), 1);
}

TEST_F(ClusterEngineTest, WorkShippedToOffNodeBuffersUntilBoot) {
  Build();
  cluster_->PowerDown(1);
  // Partition 4 is still homed on node 1: the submission ships there and
  // queues — the off node's machine idles, so nothing executes.
  engine_->Submit(0, ComputeQuery(4, 1e6));
  sim_.RunFor(Millis(200));
  EXPECT_EQ(engine_->CompletedQueries(), 0);
  EXPECT_GT(engine_->BacklogOps(1), 0.0);
  // Boot the node and restore a serving configuration: the buffered work
  // completes.
  cluster_->PowerUp(1, [&] { AllOn(1); });
  sim_.RunFor(cluster_->params().nodes[1].power.boot_latency + Seconds(1));
  EXPECT_EQ(engine_->CompletedQueries(), 1);
  EXPECT_DOUBLE_EQ(engine_->BacklogOps(1), 0.0);
}

TEST_F(ClusterEngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Simulator sim;
    hwsim::Cluster cluster(
        &sim, hwsim::ClusterParams::Homogeneous(2, hwsim::ClusterNodeParams{}));
    ClusterEngineParams params;
    params.num_partitions = 8;
    ClusterEngine engine(&sim, &cluster, params);
    for (NodeId n = 0; n < 2; ++n) {
      hwsim::Machine& m = cluster.machine(n);
      m.ApplyMachineConfig(hwsim::MachineConfig::AllOn(m.topology(), 2.6, 3.0));
    }
    for (int i = 0; i < 20; ++i) {
      QuerySpec spec;
      spec.profile = &workload::ComputeBound();
      spec.work.push_back({i % 8, 1e6});
      engine.Submit(0, spec);
    }
    sim.ScheduleAfter(Millis(1), [&] { engine.StartMigration(0, 1); });
    sim.RunFor(Seconds(1));
    return std::make_tuple(engine.CompletedQueries(), engine.remote_sends(),
                           engine.bytes_moved(),
                           cluster.TotalEnergyJoules());
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Cluster ECL policy
// ---------------------------------------------------------------------------

// Drives the policy with synthetic load/pressure signals so each decision
// is tested in isolation from the per-node ECL stacks.
class ClusterEclTest : public ClusterEngineTest {
 protected:
  void BuildWithEcl(ecl::ClusterEclParams ecl_params,
                    SimDuration boot_latency = Seconds(2)) {
    hwsim::ClusterNodeParams node;
    node.power.boot_latency = boot_latency;
    Build(hwsim::ClusterParams::Homogeneous(2, node), ClusterEngineParams{});
    ecl_params.enabled = true;
    ecl_ = std::make_unique<ecl::ClusterEcl>(
        &sim_, engine_.get(), [this](NodeId) { return load_; },
        [this](NodeId) { return pressure_; }, ecl_params);
    ecl_->SetNodeHooks([](NodeId) {}, [this](NodeId n) { AllOn(n); });
    ecl_->Start();
  }

  static ecl::ClusterEclParams FastParams() {
    ecl::ClusterEclParams p;
    p.interval = Millis(500);
    p.min_on_time = Seconds(2);
    p.post_migration_hold = Millis(500);
    return p;
  }

  std::unique_ptr<ecl::ClusterEcl> ecl_;
  double load_ = 0.05;
  double pressure_ = 0.0;
};

TEST_F(ClusterEclTest, ConsolidatesAndPowersDownAtLowPressure) {
  BuildWithEcl(FastParams());
  sim_.RunFor(Seconds(20));
  // The least-loaded node donated its partitions and, once drained past
  // the boot-amortisation dwell, powered down — removing its platform
  // overhead, which package sleep alone cannot.
  EXPECT_GE(ecl_->consolidation_moves(), 4);
  EXPECT_EQ(ecl_->power_downs(), 1);
  EXPECT_EQ(cluster_->NodesOn(), 1);
  const PlacementMap& placement = engine_->placement();
  EXPECT_EQ(placement.PartitionsOn(0) + placement.PartitionsOn(1), 8);
  EXPECT_TRUE(placement.PartitionsOn(0) == 0 || placement.PartitionsOn(1) == 0);
  // The one-node floor (kMinNodesOn) keeps the last node up no matter how
  // idle.
  sim_.RunFor(Seconds(10));
  EXPECT_EQ(cluster_->NodesOn(), 1);
  EXPECT_EQ(ecl_->power_downs(), 1);
}

TEST_F(ClusterEclTest, RisingPressureWakesAndSpreadsBack) {
  BuildWithEcl(FastParams());
  sim_.RunFor(Seconds(20));
  ASSERT_EQ(cluster_->NodesOn(), 1);
  // Pressure crosses the wake threshold (deliberately below the spread
  // threshold: capacity arrives a whole boot latency late).
  sim_.ScheduleAfter(Seconds(0), [&] { pressure_ = 0.6; });
  sim_.RunFor(Seconds(15));
  EXPECT_EQ(ecl_->wakes(), 1);
  EXPECT_EQ(cluster_->NodesOn(), 2);
  // Once the woken node is serving-capable, spread rebalances onto it —
  // preferring partitions whose initial home it was.
  EXPECT_GT(ecl_->spread_moves(), 0);
  EXPECT_EQ(engine_->placement().PartitionsOn(0), 4);
  EXPECT_EQ(engine_->placement().PartitionsOn(1), 4);
  // No node powers down while pressure holds above the wake threshold.
  EXPECT_EQ(ecl_->power_downs(), 1);
}

TEST_F(ClusterEclTest, BacklogOnOffNodeTriggersWakeAndWorkCompletes) {
  ecl::ClusterEclParams params = FastParams();
  params.interval = Millis(200);
  params.wake_backlog_ops = 1e5;
  BuildWithEcl(params);
  // The node powers down with partitions still homed on it (hardware
  // allows it; only the policy drains first). Work shipped there buffers.
  cluster_->PowerDown(1);
  sim_.ScheduleAfter(Seconds(1), [&] {
    engine_->Submit(0, ComputeQuery(4, 1e6));
  });
  sim_.RunFor(Millis(1100));
  EXPECT_GT(engine_->BacklogOps(1), 0.0);
  EXPECT_EQ(engine_->CompletedQueries(), 0);
  // The backlog wake covers exactly this: work already shipped toward a
  // powered-down node, before any pressure signal reflects it.
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(ecl_->wakes(), 1);
  EXPECT_TRUE(cluster_->IsOn(1));
  EXPECT_EQ(engine_->CompletedQueries(), 1);
  EXPECT_DOUBLE_EQ(engine_->BacklogOps(1), 0.0);
}

}  // namespace
}  // namespace ecldb::engine
