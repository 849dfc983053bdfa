#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/micro.h"
#include "workload/ssb.h"
#include "workload/tatp.h"
#include "workload/work_profiles.h"
#include "workload/workload.h"

namespace ecldb::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : machine_(&sim_, hwsim::MachineParams::HaswellEp()),
        engine_(&sim_, &machine_, engine::EngineParams{}) {}

  sim::Simulator sim_;
  hwsim::Machine machine_;
  engine::Engine engine_;
  Rng rng_{123};
};

TEST_F(WorkloadTest, KvIndexedFunctionalRoundTrip) {
  KvParams params;
  params.indexed = true;
  params.functional_keys = 5000;
  KvWorkload kv(&engine_, params);
  kv.Load();
  EXPECT_EQ(kv.loaded_keys(), 5000);
  for (int64_t k : {int64_t{0}, int64_t{1234}, int64_t{4999}}) {
    const auto v = kv.Get(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, k * 2 + 1);
  }
  EXPECT_FALSE(kv.Get(99999).has_value());
  kv.Put(42, 777);
  EXPECT_EQ(*kv.Get(42), 777);
  kv.Put(100000, 1);  // insert new key
  EXPECT_EQ(*kv.Get(100000), 1);
}

TEST_F(WorkloadTest, KvNonIndexedFunctionalRoundTrip) {
  KvParams params;
  params.indexed = false;
  params.functional_keys = 500;
  KvWorkload kv(&engine_, params);
  kv.Load();
  EXPECT_EQ(*kv.Get(123), 247);
  kv.Put(123, -5);
  EXPECT_EQ(*kv.Get(123), -5);
  // values are 2k+1 for k in [0,500) minus the overwritten row.
  EXPECT_EQ(kv.ScanCountAtLeast(0), 499);
}

TEST_F(WorkloadTest, KvQueriesMatchMode) {
  KvParams params;
  params.indexed = true;
  KvWorkload indexed(&engine_, params);
  const engine::QuerySpec qi = indexed.MakeQuery(rng_);
  EXPECT_EQ(qi.profile, &KvIndexed());
  EXPECT_EQ(static_cast<int>(qi.work.size()), params.partitions_per_query);

  params.indexed = false;
  KvWorkload scan(&engine_, params);
  const engine::QuerySpec qs = scan.MakeQuery(rng_);
  EXPECT_EQ(qs.profile, &KvNonIndexed());
  EXPECT_EQ(qs.work.size(), 1u);
  EXPECT_NEAR(qs.work[0].ops,
              static_cast<double>(params.num_keys) / engine_.db().num_partitions(),
              1.0);
}

TEST_F(WorkloadTest, TatpLoadPopulatesAllTables) {
  TatpParams params;
  params.subscribers = 2000;
  TatpWorkload tatp(&engine_, params);
  tatp.Load();
  size_t subs = 0, ai = 0, sf = 0;
  for (int p = 0; p < engine_.db().num_partitions(); ++p) {
    subs += engine_.db().partition(p)->table("subscriber")->num_rows();
    ai += engine_.db().partition(p)->table("access_info")->num_rows();
    sf += engine_.db().partition(p)->table("special_facility")->num_rows();
  }
  EXPECT_EQ(subs, 2000u);
  // 1..4 rows per subscriber, uniformly: ~2.5 on average.
  EXPECT_GT(ai, 2000u * 2);
  EXPECT_LT(ai, 2000u * 3);
  EXPECT_GT(sf, 2000u * 2);
}

TEST_F(WorkloadTest, TatpTransactionsSucceedAtSpecRates) {
  TatpParams params;
  params.subscribers = 2000;
  TatpWorkload tatp(&engine_, params);
  tatp.Load();
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) tatp.ExecuteTx(tatp.PickTx(rng), rng);

  using Tx = TatpWorkload::TxType;
  // GetSubscriberData always finds its subscriber.
  EXPECT_EQ(tatp.succeeded(Tx::kGetSubscriberData),
            tatp.executed(Tx::kGetSubscriberData));
  // GetAccessData hits iff the (s_id, ai_type) pair exists: ~62.5 %.
  const double access_rate =
      static_cast<double>(tatp.succeeded(Tx::kGetAccessData)) /
      static_cast<double>(tatp.executed(Tx::kGetAccessData));
  EXPECT_NEAR(access_rate, 0.625, 0.05);
  // The standard mix is respected (35 % GetSubscriberData etc.).
  const double gsd_share =
      static_cast<double>(tatp.executed(Tx::kGetSubscriberData)) / 20000.0;
  EXPECT_NEAR(gsd_share, 0.35, 0.02);
  const double ul_share =
      static_cast<double>(tatp.executed(Tx::kUpdateLocation)) / 20000.0;
  EXPECT_NEAR(ul_share, 0.14, 0.02);
}

TEST_F(WorkloadTest, TatpIndexedAndNonIndexedAgree) {
  // The same transaction stream must produce identical success counts in
  // both storage modes (indexes are an access path, not semantics).
  TatpParams params;
  params.subscribers = 300;
  params.indexed = true;
  sim::Simulator sim2;
  hwsim::Machine machine2(&sim2, hwsim::MachineParams::HaswellEp());
  engine::Engine engine2(&sim2, &machine2, engine::EngineParams{});
  TatpWorkload indexed(&engine_, params);
  indexed.Load();
  params.indexed = false;
  TatpWorkload scan(&engine2, params);
  scan.Load();

  Rng rng_a(9), rng_b(9);
  for (int i = 0; i < 3000; ++i) {
    Rng pick_a = rng_a;  // PickTx shares the stream with the tx body
    indexed.ExecuteTx(indexed.PickTx(rng_a), rng_a);
    (void)pick_a;
    scan.ExecuteTx(scan.PickTx(rng_b), rng_b);
  }
  for (int t = 0; t < TatpWorkload::kNumTxTypes; ++t) {
    const auto type = static_cast<TatpWorkload::TxType>(t);
    EXPECT_EQ(indexed.succeeded(type), scan.succeeded(type))
        << TatpWorkload::TxName(type);
  }
}

TEST_F(WorkloadTest, SsbLoadAndQueries) {
  SsbParams params;
  params.scale_factor = 0.01;
  SsbWorkload ssb(&engine_, params);
  ssb.Load();
  EXPECT_GT(ssb.lineorder_rows(), 0);

  // Q1.1: discount 1-3 (3/11 of rows), quantity < 25 (~24/50), year 1993
  // (1/7): expect a small but non-empty match set.
  const auto q11 = ssb.RunQuery(1, 1);
  EXPECT_EQ(q11.rows_scanned, ssb.lineorder_rows());
  EXPECT_GT(q11.matches, 0);
  EXPECT_LT(q11.matches, ssb.lineorder_rows() / 10);
  EXPECT_GT(q11.aggregate, 0.0);
  const double selectivity =
      static_cast<double>(q11.matches) / static_cast<double>(q11.rows_scanned);
  EXPECT_NEAR(selectivity, (3.0 / 11.0) * (24.0 / 50.0) * (1.0 / 7.0), 0.01);

  // Q2.1: category MFGR#12 (1/25 of parts), region AMERICA (1/5): grouped
  // by year and brand.
  const auto q21 = ssb.RunQuery(2, 1);
  EXPECT_GT(q21.matches, 0);
  EXPECT_GT(q21.groups, 1);

  // All 13 queries execute without issue.
  for (int i = 0; i < SsbWorkload::kNumQueries; ++i) {
    const auto [flight, number] = SsbWorkload::QueryAt(i);
    const auto r = ssb.RunQuery(flight, number);
    EXPECT_EQ(r.rows_scanned, ssb.lineorder_rows());
  }
}

TEST_F(WorkloadTest, SsbSimQueriesTouchAllPartitions) {
  SsbParams params;
  params.sim_lineorder_rows = 6'000'000;
  SsbWorkload ssb(&engine_, params);
  const engine::QuerySpec q = ssb.MakeQuery(rng_);
  EXPECT_EQ(static_cast<int>(q.work.size()), engine_.db().num_partitions());
  EXPECT_EQ(q.profile, &SsbIndexed());
}

TEST_F(WorkloadTest, MicroWorkloadSpreadsWork) {
  MicroWorkload micro(&engine_, MemoryScan(), 1000.0, 4);
  const engine::QuerySpec q = micro.MakeQuery(rng_);
  EXPECT_EQ(q.work.size(), 4u);
  double total = 0.0;
  for (const auto& w : q.work) total += w.ops;
  EXPECT_NEAR(total, 1000.0, 1e-9);
}

TEST(KernelTest, ComputeKernelCounts) {
  EXPECT_EQ(kernels::ComputeKernel(1000), 1000);
}

TEST(KernelTest, ScanKernelSums) {
  std::vector<int64_t> data(1000, 3);
  EXPECT_EQ(kernels::ScanKernel(data), 3000);
}

TEST(KernelTest, AtomicContentionReachesTarget) {
  EXPECT_EQ(kernels::AtomicContentionKernel(4, 20000), 20000);
}

TEST(KernelTest, SharedHashInsertKeepsAllKeys) {
  EXPECT_EQ(kernels::SharedHashInsertKernel(4, 5000), 4u * 5000u);
}

TEST(LoadProfileTest, SpikeCoversFullRangeWithOverload) {
  SpikeProfile spike;
  EXPECT_EQ(spike.duration(), Seconds(180));
  EXPECT_NEAR(spike.LoadAt(0), 0.0, 1e-9);
  EXPECT_GT(spike.LoadAt(Seconds(90)), 1.0);  // overload plateau
  EXPECT_NEAR(spike.LoadAt(Seconds(180)), 0.0, 1e-9);
  // Monotone ramp-up before the plateau.
  EXPECT_LT(spike.LoadAt(Seconds(20)), spike.LoadAt(Seconds(60)));
}

TEST(LoadProfileTest, TwitterAlternatesAndSpikes) {
  TwitterProfile twitter;
  double lo = 2.0, hi = 0.0;
  int direction_changes = 0;
  double prev = twitter.LoadAt(0), prev_delta = 0.0;
  for (SimTime t = Millis(500); t < twitter.duration(); t += Millis(500)) {
    const double v = twitter.LoadAt(t);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    const double delta = v - prev;
    if (delta * prev_delta < 0) ++direction_changes;
    prev = v;
    if (delta != 0.0) prev_delta = delta;
  }
  EXPECT_LT(lo, 0.3);
  EXPECT_GT(hi, 0.8);               // sudden peaks present
  EXPECT_GT(direction_changes, 20);  // frequently alternating
}

TEST(LoadProfileTest, StepProfileSwitchesLevels) {
  StepProfile step({{Seconds(0), 0.2}, {Seconds(10), 0.8}}, Seconds(20));
  EXPECT_DOUBLE_EQ(step.LoadAt(Seconds(5)), 0.2);
  EXPECT_DOUBLE_EQ(step.LoadAt(Seconds(15)), 0.8);
}

TEST_F(WorkloadTest, CapacityEstimatesArePositiveAndOrdered) {
  KvParams indexed_params;
  indexed_params.indexed = true;
  KvWorkload indexed(&engine_, indexed_params);
  KvParams scan_params;
  scan_params.indexed = false;
  KvWorkload scan(&engine_, scan_params);
  const auto mp = hwsim::MachineParams::HaswellEp();
  const double cap_indexed = BaselineCapacityQps(mp, indexed);
  const double cap_scan = BaselineCapacityQps(mp, scan);
  EXPECT_GT(cap_indexed, 1000.0);
  EXPECT_GT(cap_scan, 1000.0);
  // The scan capacity is bounded by memory bandwidth:
  // bandwidth / bytes_per_op / ops_per_query.
  const double expect_scan_ops =
      SaturatedOpsPerSec(mp, KvNonIndexed());
  EXPECT_NEAR(cap_scan, expect_scan_ops / scan.MeanOpsPerQuery(), 1.0);
}

TEST_F(WorkloadTest, DriverFollowsProfileRate) {
  machine_.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine_.topology(), 2.6, 3.0));
  MicroWorkload micro(&engine_, ComputeBound(), 1000.0, 1);
  ConstantProfile profile(0.5, Seconds(10));
  DriverParams params;
  params.capacity_qps = 1000.0;
  LoadDriver driver(&sim_, &engine_, &micro, &profile, params);
  driver.Start();
  sim_.RunFor(Seconds(11));
  // 0.5 * 1000 qps * 10 s = ~5000 queries (Poisson).
  EXPECT_NEAR(static_cast<double>(driver.submitted()), 5000.0, 300.0);
  EXPECT_EQ(engine_.latency().completed(), driver.submitted());
}

TEST_F(WorkloadTest, DriverStopsAtProfileEnd) {
  MicroWorkload micro(&engine_, ComputeBound(), 1000.0, 1);
  ConstantProfile profile(1.0, Seconds(2));
  DriverParams params;
  params.capacity_qps = 100.0;
  LoadDriver driver(&sim_, &engine_, &micro, &profile, params);
  driver.Start();
  sim_.RunFor(Seconds(10));
  const int64_t at_end = driver.submitted();
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(driver.submitted(), at_end);
}


/// Forwards to a wrapped workload and records the partitions of every
/// query it makes.
class RecordingWorkload : public Workload {
 public:
  explicit RecordingWorkload(Workload* inner) : inner_(inner) {}
  std::string_view name() const override { return inner_->name(); }
  const hwsim::WorkProfile& profile() const override {
    return inner_->profile();
  }
  engine::QuerySpec MakeQuery(Rng& rng) override {
    engine::QuerySpec spec = inner_->MakeQuery(rng);
    for (const engine::PartitionWork& w : spec.work) {
      partitions.push_back(w.partition);
    }
    return spec;
  }
  double MeanOpsPerQuery() const override {
    return inner_->MeanOpsPerQuery();
  }

  std::vector<PartitionId> partitions;

 private:
  Workload* inner_;
};

TEST(LoadDriverTest, SubmitCallbackMatchesEngineConstructor) {
  // Two identical systems, one driver seed: the engine constructor and a
  // recording submit callback must drive the same arrival stream.
  struct System {
    System()
        : machine(&sim, hwsim::MachineParams::HaswellEp()),
          engine(&sim, &machine, engine::EngineParams{}),
          micro(&engine, ComputeBound(), 1000.0, 2) {}
    sim::Simulator sim;
    hwsim::Machine machine;
    engine::Engine engine;
    MicroWorkload micro;
  };
  System a;
  System b;
  ConstantProfile profile(0.5, Seconds(2));
  DriverParams params;
  params.capacity_qps = 500.0;
  params.seed = 99;

  RecordingWorkload recorded_a(&a.micro);
  LoadDriver by_engine(&a.sim, &a.engine, &recorded_a, &profile, params);
  std::vector<PartitionId> submitted_b;
  LoadDriver by_callback(
      &b.sim,
      [&](const engine::QuerySpec& spec) {
        for (const engine::PartitionWork& w : spec.work) {
          submitted_b.push_back(w.partition);
        }
        b.engine.Submit(spec);
      },
      &b.micro, &profile, params);
  by_engine.Start();
  by_callback.Start();
  a.sim.RunFor(Seconds(3));
  b.sim.RunFor(Seconds(3));

  EXPECT_GT(by_engine.submitted(), 0);
  EXPECT_EQ(by_engine.submitted(), by_callback.submitted());
  EXPECT_EQ(recorded_a.partitions, submitted_b);
  EXPECT_EQ(a.engine.latency().completed(), b.engine.latency().completed());
}

TEST_F(WorkloadTest, AsyncFunctionalOpsThroughMessageLayer) {
  machine_.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine_.topology(), 2.6, 3.0));
  KvParams params;
  params.indexed = true;
  params.functional_keys = 2000;
  KvWorkload kv(&engine_, params);
  kv.Load();
  kv.InstallExecutor();

  const QueryId get1 = kv.SubmitGet(77);
  const QueryId miss = kv.SubmitGet(999999);
  EXPECT_FALSE(kv.TakeResult(get1).has_value());  // still in flight
  sim_.RunFor(Millis(50));
  const auto r1 = kv.TakeResult(get1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_TRUE(r1->found);
  EXPECT_EQ(r1->value, 77 * 2 + 1);
  const auto r2 = kv.TakeResult(miss);
  ASSERT_TRUE(r2.has_value());
  EXPECT_FALSE(r2->found);
  // Results are consumed on take.
  EXPECT_FALSE(kv.TakeResult(get1).has_value());

  // Writes become visible once their fluid work completes.
  kv.SubmitPut(77, -5);
  sim_.RunFor(Millis(50));
  const QueryId get2 = kv.SubmitGet(77);
  sim_.RunFor(Millis(50));
  EXPECT_EQ(kv.TakeResult(get2)->value, -5);
  // Latencies were tracked for all four queries.
  EXPECT_EQ(engine_.latency().completed(), 4);
}

TEST_F(WorkloadTest, AsyncOpsWaitForSleepingSocket) {
  // A functional get to a partition on a sleeping socket completes only
  // after the ECL (here: us) wakes a thread - real virtual-time latency.
  KvParams params;
  params.indexed = true;
  params.functional_keys = 500;
  KvWorkload kv(&engine_, params);
  kv.Load();
  kv.InstallExecutor();
  const QueryId id = kv.SubmitGet(5);
  sim_.RunFor(Millis(200));
  EXPECT_FALSE(kv.TakeResult(id).has_value());  // machine is idle
  machine_.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine_.topology(), 1.2, 1.2));
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(kv.TakeResult(id).has_value());
  EXPECT_GT(engine_.latency().all().Mean(), 200.0);  // waited for the wake
}


TEST_F(WorkloadTest, TatpAsyncTransactionsThroughMessageLayer) {
  machine_.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine_.topology(), 2.6, 3.0));
  TatpParams params;
  params.subscribers = 2000;
  TatpWorkload tatp(&engine_, params);
  tatp.Load();
  tatp.InstallExecutor();

  Rng rng(31);
  int64_t submitted = 0;
  for (int i = 0; i < 500; ++i) {
    tatp.SubmitTx(tatp.PickTx(rng), rng);
    ++submitted;
  }
  sim_.RunFor(Millis(500));
  EXPECT_EQ(engine_.latency().completed(), submitted);
  int64_t executed = 0;
  for (int t = 0; t < TatpWorkload::kNumTxTypes; ++t) {
    executed += tatp.executed(static_cast<TatpWorkload::TxType>(t));
  }
  EXPECT_EQ(executed, submitted);
  // Writes really happened: UpdateLocation succeeded on real rows.
  EXPECT_GT(tatp.succeeded(TatpWorkload::TxType::kUpdateLocation), 0);
}


TEST_F(WorkloadTest, SsbDistributedQueryMatchesSynchronous) {
  machine_.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine_.topology(), 2.6, 3.0));
  SsbParams params;
  params.scale_factor = 0.005;
  SsbWorkload ssb(&engine_, params);
  ssb.Load();
  ssb.InstallExecutor();

  // Reference: synchronous execution.
  const auto sync_q21 = ssb.RunQuery(2, 1);
  const auto sync_q41 = ssb.RunQuery(4, 1);

  // Distributed: fan-out through the message layer, partial aggregates
  // merged on completion.
  const QueryId id21 = ssb.SubmitQuery(2, 1);
  const QueryId id41 = ssb.SubmitQuery(4, 1);
  EXPECT_FALSE(ssb.TakeResult(id21).has_value());  // in flight
  sim_.RunFor(Seconds(2));
  const auto async_q21 = ssb.TakeResult(id21);
  const auto async_q41 = ssb.TakeResult(id41);
  ASSERT_TRUE(async_q21.has_value());
  ASSERT_TRUE(async_q41.has_value());
  EXPECT_EQ(async_q21->matches, sync_q21.matches);
  EXPECT_EQ(async_q21->groups, sync_q21.groups);
  EXPECT_NEAR(async_q21->aggregate, sync_q21.aggregate, 1e-6);
  EXPECT_EQ(async_q21->rows_scanned, sync_q21.rows_scanned);
  EXPECT_EQ(async_q41->matches, sync_q41.matches);
  EXPECT_NEAR(async_q41->aggregate, sync_q41.aggregate, 1e-6);
  // Latencies recorded for both distributed queries.
  EXPECT_EQ(engine_.latency().completed(), 2);
  // Results are consumed on take.
  EXPECT_FALSE(ssb.TakeResult(id21).has_value());
}

TEST_F(WorkloadTest, SsbMorselizedDistributedQueryMatchesSynchronous) {
  machine_.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine_.topology(), 2.6, 3.0));
  SsbParams params;
  params.scale_factor = 0.005;
  SsbWorkload ssb(&engine_, params);
  ssb.Load();
  ssb.InstallExecutor();

  const auto sync_q21 = ssb.RunQuery(2, 1);
  const auto sync_q31 = ssb.RunQuery(3, 1);

  // Morselized fan-out: each partition's scan splits into 4 morsel
  // messages; the executor scans only each morsel's row range, and the
  // merged result must match the synchronous single-pass execution
  // (keys and counts exactly; sums to rounding — the morsel grid
  // reassociates the FP additions).
  const QueryId id21 = ssb.SubmitQuery(2, 1, /*morsels_per_partition=*/4);
  const QueryId id31 = ssb.SubmitQuery(3, 1, /*morsels_per_partition=*/7);
  sim_.RunFor(Seconds(2));
  const auto async_q21 = ssb.TakeResult(id21);
  const auto async_q31 = ssb.TakeResult(id31);
  ASSERT_TRUE(async_q21.has_value());
  ASSERT_TRUE(async_q31.has_value());
  EXPECT_EQ(async_q21->matches, sync_q21.matches);
  EXPECT_EQ(async_q21->groups, sync_q21.groups);
  EXPECT_EQ(async_q21->rows_scanned, sync_q21.rows_scanned);
  EXPECT_NEAR(async_q21->aggregate, sync_q21.aggregate,
              1e-9 * (1.0 + std::abs(sync_q21.aggregate)));
  EXPECT_EQ(async_q31->matches, sync_q31.matches);
  EXPECT_EQ(async_q31->groups, sync_q31.groups);
  EXPECT_EQ(async_q31->rows_scanned, sync_q31.rows_scanned);
  EXPECT_NEAR(async_q31->aggregate, sync_q31.aggregate,
              1e-9 * (1.0 + std::abs(sync_q31.aggregate)));
  EXPECT_EQ(engine_.latency().completed(), 2);
}

TEST_F(WorkloadTest, SsbDimensionReplicasIdenticalAcrossPartitions) {
  // Load() generates the dimension tables once and bulk-copies them into
  // the other partitions; every replica must look generated-in-place:
  // same rows, same dictionary codes, same tracked int bounds.
  SsbParams params;
  params.scale_factor = 0.005;
  SsbWorkload ssb(&engine_, params);
  ssb.Load();
  engine::Database& db = engine_.db();
  const engine::Table* p0 = db.partition(0)->table("part");
  for (int p = 1; p < db.num_partitions(); p += 7) {
    const engine::Table* rep = db.partition(p)->table("part");
    ASSERT_EQ(rep->num_rows(), p0->num_rows());
    const engine::Column* c0 = p0->column(2);   // p_category (string)
    const engine::Column* cr = rep->column(2);
    ASSERT_EQ(cr->dict_size(), c0->dict_size());
    for (size_t r = 0; r < p0->num_rows(); r += 97) {
      EXPECT_EQ(cr->GetString(r), c0->GetString(r));
      EXPECT_EQ(cr->GetStringCode(r), c0->GetStringCode(r));
    }
    int64_t lo0 = 0, hi0 = 0, lor = 0, hir = 0;
    ASSERT_TRUE(p0->column(0)->IntBounds(&lo0, &hi0));
    ASSERT_TRUE(rep->column(0)->IntBounds(&lor, &hir));
    EXPECT_EQ(lor, lo0);
    EXPECT_EQ(hir, hi0);
  }
}

}  // namespace
}  // namespace ecldb::workload
