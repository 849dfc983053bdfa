// Google-benchmark microbenchmarks of the hot building blocks: message
// FIFOs, partition queues, the hash index, the vectorized query engine,
// profile lookup, and the performance-model solver.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "ecl/profile_predictor.h"
#include "engine/hash_index.h"
#include "engine/morsel.h"
#include "engine/operators.h"
#include "engine/simd.h"
#include "engine/placement.h"
#include "engine/table.h"
#include "hwsim/machine.h"
#include "msg/partition_queue.h"
#include "msg/segmented_fifo.h"
#include "profile/config_generator.h"
#include "profile/energy_profile.h"
#include "workload/work_profiles.h"

namespace ecldb {
namespace {

void BM_SegmentedFifoPushPop(benchmark::State& state) {
  msg::SegmentedFifo<int64_t> fifo(1024);
  int64_t v = 0;
  for (auto _ : state) {
    fifo.TryPush(v);
    int64_t out = 0;
    fifo.TryPop(&out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentedFifoPushPop);

// A default-capacity message FIFO takes 73 messages per segment, and a
// drained FIFO refills its one segment from the start, so each lap of 74
// pushes then 74 pops links in (and later frees) one segment.
void BM_SegmentedFifoSegmentCrossing(benchmark::State& state) {
  msg::SegmentedFifo<msg::Message> fifo(1 << 14);
  const size_t lap = fifo.segment_capacity() + 1;
  msg::Message m;
  msg::Message out;
  for (auto _ : state) {
    for (size_t i = 0; i < lap; ++i) {
      fifo.TryPush(m);
      ++m.query_id;
    }
    for (size_t i = 0; i < lap; ++i) fifo.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lap));
}
BENCHMARK(BM_SegmentedFifoSegmentCrossing);

void BM_PartitionQueueBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  msg::PartitionQueue q(0, 1 << 12);
  msg::Message m;
  m.partition = 0;
  std::vector<msg::Message> out;
  q.TryAcquire(1);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) q.Enqueue(m);
    out.clear();
    q.DequeueBatch(1, batch, &out);
    benchmark::DoNotOptimize(out.data());
  }
  q.Release(1);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_PartitionQueueBatch)->Arg(8)->Arg(64);

void BM_HashIndexFind(benchmark::State& state) {
  engine::HashIndex idx;
  const int64_t n = state.range(0);
  for (int64_t k = 0; k < n; ++k) idx.Insert(k, static_cast<uint32_t>(k));
  Rng rng(5);
  for (auto _ : state) {
    const auto row = idx.Find(static_cast<int64_t>(rng.NextBounded(n)));
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexFind)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_HashIndexInsertErase(benchmark::State& state) {
  engine::HashIndex idx;
  int64_t k = 0;
  for (auto _ : state) {
    idx.Insert(k, 1);
    idx.Erase(k);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexInsertErase);

// --- Vectorized engine kernels ---------------------------------------------
// A shared SSB-like star schema: 1M fact rows, one replicated dimension.
// Each benchmark runs one full pass over the fact table; items/s is rows/s.

constexpr int64_t kBenchFactRows = 1 << 20;
constexpr int64_t kBenchDimRows = 2048;
constexpr const char* kBenchRegions[] = {"ASIA", "EUROPE", "AMERICA",
                                         "AFRICA", "MIDDLE EAST"};

struct StarSchema {
  engine::Table dim;
  engine::Table fact;

  StarSchema()
      : dim("dim", engine::Schema({{"key", engine::ColumnType::kInt64},
                                   {"name", engine::ColumnType::kString},
                                   {"region", engine::ColumnType::kString}})),
        fact("fact", engine::Schema({{"fk", engine::ColumnType::kInt64},
                                     {"qty", engine::ColumnType::kInt64},
                                     {"price", engine::ColumnType::kInt64},
                                     {"tag", engine::ColumnType::kString}})) {
    Rng rng(42);
    for (int64_t k = 1; k <= kBenchDimRows; ++k) {
      dim.AppendRow({k, "name" + std::to_string(k % 250),
                     std::string(kBenchRegions[rng.NextBounded(5)])});
    }
    for (int64_t i = 0; i < kBenchFactRows; ++i) {
      fact.AppendRow({rng.NextInRange(1, kBenchDimRows),
                      rng.NextInRange(1, 50), rng.NextInRange(1, 10000),
                      "tag" + std::to_string(rng.NextBounded(16))});
    }
  }
};

StarSchema& SharedSchema() {
  static StarSchema s;
  return s;
}

/// One filter kernel over the whole fact table, vectorized vs the
/// row-at-a-time reference, per predicate kind.
void BM_FilterKernel(benchmark::State& state, engine::Predicate pred,
                     bool vectorized) {
  StarSchema& s = SharedSchema();
  engine::FilterOperator filter(&s.fact, {std::move(pred)});
  engine::TableScan scan(&s.fact, 4096);
  std::vector<uint32_t> rows;
  for (auto _ : state) {
    scan.Reset();
    size_t kept = 0;
    while (scan.Next(&rows)) {
      kept += vectorized ? filter.Apply(&rows) : filter.ApplyScalar(&rows);
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * kBenchFactRows);
}

#define ECLDB_FILTER_BENCH(name, pred)                                 \
  BENCHMARK_CAPTURE(BM_FilterKernel, name##_scalar, pred, false);      \
  BENCHMARK_CAPTURE(BM_FilterKernel, name##_vectorized, pred, true)

ECLDB_FILTER_BENCH(int_range_fact,
                   engine::Predicate::IntRange(engine::ColumnRef::Fact(1), 10,
                                               35));
ECLDB_FILTER_BENCH(int_range_dim,
                   engine::Predicate::IntRange(
                       engine::ColumnRef::Dim(0, &SharedSchema().dim, 0), 1,
                       kBenchDimRows / 4));
ECLDB_FILTER_BENCH(string_eq_dim,
                   engine::Predicate::StringEq(
                       engine::ColumnRef::Dim(0, &SharedSchema().dim, 2),
                       "ASIA"));
ECLDB_FILTER_BENCH(string_in_fact,
                   engine::Predicate::StringIn(engine::ColumnRef::Fact(3),
                                               {"tag1", "tag5", "tag9"}));
ECLDB_FILTER_BENCH(string_range_dim,
                   engine::Predicate::StringRange(
                       engine::ColumnRef::Dim(0, &SharedSchema().dim, 1),
                       "name1", "name2zz"));

#undef ECLDB_FILTER_BENCH

/// Pure aggregation throughput (no filter): packed int keys + the
/// open-addressing table vs the string-keyed std::map baseline.
void BM_Aggregate(benchmark::State& state, bool vectorized) {
  StarSchema& s = SharedSchema();
  const std::vector<engine::ColumnRef> group_by = {
      engine::ColumnRef::Dim(0, &s.dim, 2),  // region (5)
      engine::ColumnRef::Dim(0, &s.dim, 1),  // name (250)
  };
  const engine::ValueExpr value = engine::ValueExpr::Product(
      engine::ColumnRef::Fact(1), engine::ColumnRef::Fact(2), 0.01);
  engine::FilterOperator filter(&s.fact, {});
  for (auto _ : state) {
    engine::HashAggregator agg(group_by, value);
    if (vectorized) {
      engine::RunAggregationPipeline(&s.fact, filter, &agg);
    } else {
      engine::RunAggregationPipelineScalar(&s.fact, filter, &agg);
    }
    benchmark::DoNotOptimize(agg.TotalSum());
  }
  state.SetItemsProcessed(state.iterations() * kBenchFactRows);
}
BENCHMARK_CAPTURE(BM_Aggregate, string_map_scalar, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Aggregate, int_key_vectorized, true)
    ->Unit(benchmark::kMillisecond);

/// The vectorized pipeline with the SIMD kernels forced to the portable
/// scalar fallback: what a non-AVX2 host (or ECLDB_SIMD=OFF build) runs.
void BM_AggregateScalarKernels(benchmark::State& state) {
  StarSchema& s = SharedSchema();
  const std::vector<engine::ColumnRef> group_by = {
      engine::ColumnRef::Dim(0, &s.dim, 2),
      engine::ColumnRef::Dim(0, &s.dim, 1),
  };
  const engine::ValueExpr value = engine::ValueExpr::Product(
      engine::ColumnRef::Fact(1), engine::ColumnRef::Fact(2), 0.01);
  engine::FilterOperator filter(&s.fact, {});
  engine::simd::SetLevelOverride(engine::simd::Level::kScalar);
  for (auto _ : state) {
    engine::HashAggregator agg(group_by, value);
    engine::RunAggregationPipeline(&s.fact, filter, &agg);
    benchmark::DoNotOptimize(agg.TotalSum());
  }
  engine::simd::SetLevelOverride(std::nullopt);
  state.SetItemsProcessed(state.iterations() * kBenchFactRows);
}
BENCHMARK(BM_AggregateScalarKernels)->Unit(benchmark::kMillisecond);

/// Morsel-driven parallel aggregation over the same pipeline, by worker
/// count (worker count 1 = pool with the caller only).
void BM_AggregateMorsel(benchmark::State& state) {
  StarSchema& s = SharedSchema();
  const std::vector<engine::ColumnRef> group_by = {
      engine::ColumnRef::Dim(0, &s.dim, 2),
      engine::ColumnRef::Dim(0, &s.dim, 1),
  };
  const engine::ValueExpr value = engine::ValueExpr::Product(
      engine::ColumnRef::Fact(1), engine::ColumnRef::Fact(2), 0.01);
  engine::FilterOperator filter(&s.fact, {});
  engine::MorselPool pool(static_cast<int>(state.range(0)) - 1);
  for (auto _ : state) {
    engine::HashAggregator agg(group_by, value);
    engine::RunMorselAggregationPipeline(&s.fact, filter, &agg, &pool);
    benchmark::DoNotOptimize(agg.TotalSum());
  }
  state.SetItemsProcessed(state.iterations() * kBenchFactRows);
}
BENCHMARK(BM_AggregateMorsel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The full SSB-style pipeline (scan -> filter -> group-by aggregate),
/// vectorized vs the row-at-a-time reference.
void BM_SsbPipeline(benchmark::State& state, bool vectorized) {
  StarSchema& s = SharedSchema();
  const std::vector<engine::Predicate> preds = {
      engine::Predicate::StringEq(engine::ColumnRef::Dim(0, &s.dim, 2),
                                  "ASIA"),
      engine::Predicate::IntRange(engine::ColumnRef::Fact(1), 5, 45),
  };
  const std::vector<engine::ColumnRef> group_by = {
      engine::ColumnRef::Dim(0, &s.dim, 2),
      engine::ColumnRef::Fact(3),
  };
  const engine::ValueExpr value = engine::ValueExpr::Product(
      engine::ColumnRef::Fact(1), engine::ColumnRef::Fact(2));
  engine::FilterOperator filter(&s.fact, preds);
  for (auto _ : state) {
    engine::HashAggregator agg(group_by, value);
    if (vectorized) {
      engine::RunAggregationPipeline(&s.fact, filter, &agg);
    } else {
      engine::RunAggregationPipelineScalar(&s.fact, filter, &agg);
    }
    benchmark::DoNotOptimize(agg.TotalSum());
  }
  state.SetItemsProcessed(state.iterations() * kBenchFactRows);
}
BENCHMARK_CAPTURE(BM_SsbPipeline, scalar, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SsbPipeline, vectorized, true)
    ->Unit(benchmark::kMillisecond);

void BM_ProfileFindForDemand(benchmark::State& state) {
  const hwsim::Topology topo = hwsim::Topology::HaswellEp2S();
  profile::ConfigGenerator gen(topo, hwsim::FrequencyTable::HaswellEp());
  profile::EnergyProfile profile(gen.Generate(profile::GeneratorParams{}));
  Rng rng(3);
  for (int i = 1; i < profile.size(); ++i) {
    profile.Record(i, 20.0 + rng.NextDouble() * 100.0,
                   1e9 * (0.1 + rng.NextDouble()), Seconds(1));
  }
  double demand = 0.0;
  for (auto _ : state) {
    demand += 1e7;
    if (demand > profile.PeakPerfScore()) demand = 0.0;
    benchmark::DoNotOptimize(profile.FindForDemand(demand));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileFindForDemand);

profile::FeatureVector MakeFeature(Rng& rng) {
  profile::FeatureInputs in;
  in.instr_rate = 1e9 * (0.5 + rng.NextDouble());
  in.dram_bytes_rate = 1e9 * rng.NextDouble();
  in.active_threads = 1 + static_cast<int>(rng.NextDouble() * 23.0);
  in.core_freq_ghz = 1.2 + rng.NextDouble() * 1.4;
  in.rti_duty = 0.2 + rng.NextDouble() * 0.8;
  in.utilization = 0.3 + rng.NextDouble() * 0.7;
  return profile::ExtractFeatures(in);
}

/// kNN prediction against a full learn cache (145 configurations x 8
/// observations). The drift handler runs one Predict per non-idle
/// configuration, so a full seeding pass costs ~144x this. Budget: even at
/// 1 us/lookup that is ~0.15 ms, vs the 101 ms (settle + measure) one
/// multiplexed evaluation slice costs the socket — the predictor pays for
/// itself if it skips a single measurement.
void BM_PredictorPredict(benchmark::State& state) {
  const hwsim::Topology topo = hwsim::Topology::HaswellEp2S();
  profile::ConfigGenerator gen(topo, hwsim::FrequencyTable::HaswellEp());
  profile::EnergyProfile profile(gen.Generate(profile::GeneratorParams{}));
  ecl::ProfilePredictorParams params;
  params.enabled = true;
  ecl::ProfilePredictor pred(profile.size(), params);
  Rng rng(7);
  for (int round = 0; round < params.max_entries_per_config; ++round) {
    for (int i = 1; i < profile.size(); ++i) {
      pred.Observe(i, MakeFeature(rng), 20.0 + rng.NextDouble() * 100.0,
                   1e9 * (0.1 + rng.NextDouble()), Seconds(round + 1));
    }
  }
  const profile::FeatureVector query = MakeFeature(rng);
  int index = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.Predict(index, query));
    if (++index >= pred.num_configs()) index = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorPredict);

/// Learn-cache insert on the online-measurement path (once per ECL
/// interval per socket, i.e. 1 Hz — vanishing next to the interval).
void BM_PredictorObserve(benchmark::State& state) {
  const hwsim::Topology topo = hwsim::Topology::HaswellEp2S();
  profile::ConfigGenerator gen(topo, hwsim::FrequencyTable::HaswellEp());
  profile::EnergyProfile profile(gen.Generate(profile::GeneratorParams{}));
  ecl::ProfilePredictorParams params;
  params.enabled = true;
  ecl::ProfilePredictor pred(profile.size(), params);
  Rng rng(11);
  std::vector<profile::FeatureVector> features;
  for (int i = 0; i < 64; ++i) features.push_back(MakeFeature(rng));
  int index = 1;
  size_t f = 0;
  SimTime at = 0;
  for (auto _ : state) {
    at += Millis(1);
    pred.Observe(index, features[f], 50.0, 1e9, at);
    if (++index >= pred.num_configs()) index = 1;
    if (++f >= features.size()) f = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorObserve);

void BM_PerfModelSolve(benchmark::State& state) {
  const hwsim::MachineParams params = hwsim::MachineParams::HaswellEp();
  const hwsim::BandwidthModel bw(params.bandwidth);
  const hwsim::PerfModel model(params.topology, bw, params.perf);
  const hwsim::MachineConfig cfg =
      hwsim::MachineConfig::AllOn(params.topology, 2.6, 3.0);
  std::vector<hwsim::ThreadLoad> loads(
      static_cast<size_t>(params.topology.total_threads()),
      hwsim::ThreadLoad{&workload::MemoryScan(), 1.0});
  hwsim::SolveResult out;
  for (auto _ : state) {
    model.Solve(cfg, loads, &out);
    benchmark::DoNotOptimize(out.threads.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerfModelSolve);

/// One simulated second of Machine::Advance slices under constant full
/// load: the steady-state path (cache hit on every slice after the first).
void BM_MachineAdvanceSteady(benchmark::State& state) {
  sim::Simulator simulator;
  hwsim::Machine machine(&simulator, hwsim::MachineParams::HaswellEp());
  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));
  for (HwThreadId t = 0; t < machine.topology().total_threads(); ++t) {
    machine.SetThreadLoad(t, &workload::MemoryScan(), 1.0);
  }
  simulator.RunFor(Millis(10));  // settle stall + prime the cache
  for (auto _ : state) {
    simulator.RunFor(Seconds(1));
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // 1 ms slices
}
BENCHMARK(BM_MachineAdvanceSteady)->Unit(benchmark::kMillisecond);

/// One simulated second of Machine::Advance slices with a load change
/// every slice: every slice takes the full re-solve path (the cost every
/// slice paid before steady-state fast-forward).
void BM_MachineAdvanceResolve(benchmark::State& state) {
  sim::Simulator simulator;
  hwsim::Machine machine(&simulator, hwsim::MachineParams::HaswellEp());
  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));
  for (HwThreadId t = 0; t < machine.topology().total_threads(); ++t) {
    machine.SetThreadLoad(t, &workload::MemoryScan(), 1.0);
  }
  simulator.RunFor(Millis(10));
  double flip = 0.999;
  for (auto _ : state) {
    for (int ms = 0; ms < 1000; ++ms) {
      machine.SetThreadLoad(0, &workload::MemoryScan(), flip);
      flip = flip == 1.0 ? 0.999 : 1.0;
      simulator.RunFor(Millis(1));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MachineAdvanceResolve)->Unit(benchmark::kMillisecond);

// --- Dynamic placement ------------------------------------------------------

/// The routing hot path with dynamic placement: every message send does a
/// HomeOf lookup plus an epoch read (the stamp compared on delivery to
/// detect stale-epoch arrivals).
void BM_PlacementRouteLookup(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  engine::PlacementMap placement(parts, 2);
  Rng rng(11);
  for (auto _ : state) {
    const PartitionId p = static_cast<PartitionId>(rng.NextBounded(parts));
    const SocketId home = placement.HomeOf(p);
    const int64_t epoch = placement.epoch();
    benchmark::DoNotOptimize(home);
    benchmark::DoNotOptimize(epoch);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementRouteLookup)->Arg(48)->Arg(4096);

/// One full migration bookkeeping cycle (Begin + Commit): the epoch bump
/// and per-socket recount that every live migration pays once, there and
/// back.
void BM_PlacementMigrationCycle(benchmark::State& state) {
  engine::PlacementMap placement(48, 2);
  for (auto _ : state) {
    placement.BeginMigration(0, 1);
    benchmark::DoNotOptimize(placement.CommitMigration(0));
    placement.BeginMigration(0, 0);
    benchmark::DoNotOptimize(placement.CommitMigration(0));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PlacementMigrationCycle);

/// One simulated second with sparse events (10 Hz) over an idle machine:
/// the Simulator::RunUntil fast-forward path between events.
void BM_SimulatorRunUntilSparseEvents(benchmark::State& state) {
  sim::Simulator simulator;
  hwsim::Machine machine(&simulator, hwsim::MachineParams::HaswellEp());
  simulator.RunFor(Millis(10));
  int64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 10; ++i) {
      simulator.ScheduleAfter(Millis(100 * (i + 1)), [&fired] { ++fired; });
    }
    simulator.RunFor(Seconds(1));
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SimulatorRunUntilSparseEvents)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecldb

BENCHMARK_MAIN();
