#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ecl/ecl.h"
#include "engine/engine.h"
#include "experiment/experiment.h"
#include "experiment/run_matrix.h"
#include "hwsim/hw_config.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "telemetry/metric_registry.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/micro.h"
#include "workload/ssb.h"
#include "workload/work_profiles.h"
#include "workload/workload.h"

namespace ecldb::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

TEST(CounterTest, UnboundHandleCountsLocally) {
  Counter c;
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(CounterTest, CopyOfLocalCounterIsIndependent) {
  Counter a;
  a.Add(5);
  Counter b = a;  // value copies, storage re-points to the copy
  b.Increment();
  EXPECT_EQ(a.value(), 5);
  EXPECT_EQ(b.value(), 6);
}

TEST(CounterTest, RegistryBackedCopiesShareTheCell) {
  MetricRegistry reg;
  Counter a = reg.AddCounter("x");
  Counter b = a;
  a.Increment();
  b.Add(2);
  EXPECT_EQ(a.value(), 3);
  EXPECT_EQ(reg.CounterValueByName("x"), 3);
}

TEST(RegistryTest, CounterFnReadsThrough) {
  MetricRegistry reg;
  int64_t backing = 0;
  reg.AddCounterFn("atomic_mirror", [&backing] { return backing; });
  backing = 17;
  bool found = false;
  EXPECT_EQ(reg.CounterValueByName("atomic_mirror", &found), 17);
  EXPECT_TRUE(found);
  EXPECT_EQ(reg.CounterValueByName("missing", &found), 0);
  EXPECT_FALSE(found);
}

TEST(HistogramTest, DefaultBucketBoundariesAreExactPowersOfTwo) {
  // The golden property: bound[i] = first_bound * growth^i computed by
  // repeated multiplication. With growth == 2.0 every step is exact, so
  // bound[i] == ldexp(first_bound, i) bit-for-bit.
  MetricRegistry reg;
  Histogram* h = reg.AddHistogram("lat", HistogramSpec{});
  const std::vector<double>& bounds = h->bounds();
  ASSERT_EQ(bounds.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(bounds[static_cast<size_t>(i)], std::ldexp(1e-3, i)) << i;
  }
  // Bucket semantics: bucket i counts v <= bound[i] (above bound[i-1]).
  EXPECT_EQ(h->BucketOf(1e-3), 0);
  EXPECT_EQ(h->BucketOf(1e-3 * 1.0001), 1);
  EXPECT_EQ(h->BucketOf(0.0), 0);
  EXPECT_EQ(h->BucketOf(bounds.back()), 31);
  EXPECT_EQ(h->BucketOf(bounds.back() * 2.0), 32);  // overflow bucket
}

TEST(HistogramTest, RecordsAndSummarizes) {
  MetricRegistry reg;
  Histogram* h = reg.AddHistogram("lat", HistogramSpec{1.0, 2.0, 4});
  for (double v : {0.5, 1.5, 3.0, 100.0}) h->Record(v);
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum(), 105.0);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
  EXPECT_DOUBLE_EQ(h->Mean(), 105.0 / 4.0);
  EXPECT_EQ(h->buckets()[0], 1);  // 0.5
  EXPECT_EQ(h->buckets()[1], 1);  // 1.5
  EXPECT_EQ(h->buckets()[2], 1);  // 3.0
  EXPECT_EQ(h->buckets()[4], 1);  // 100 -> overflow
  EXPECT_DOUBLE_EQ(h->PercentileBound(0), 1.0);
  EXPECT_DOUBLE_EQ(h->PercentileBound(100), 100.0);  // overflow -> max
}

TEST(RegistryTest, DumpIsSortedAndRepeatable) {
  MetricRegistry reg;
  Counter z = reg.AddCounter("zzz/last");
  reg.AddCounter("aaa/first");
  reg.AddGauge("mmm/middle", [] { return 1.25; });
  z.Add(3);
  const std::string d1 = reg.Dump();
  const std::string d2 = reg.Dump();
  EXPECT_EQ(d1, d2);
  // Lines sort lexicographically ("counter <name>" lines group before
  // "gauge <name>"), independent of registration order.
  const size_t a = d1.find("counter aaa/first");
  const size_t zp = d1.find("counter zzz/last");
  const size_t m = d1.find("gauge mmm/middle");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(zp, std::string::npos);
  EXPECT_LT(a, zp);
  EXPECT_LT(zp, m);
  EXPECT_NE(d1.find("counter zzz/last 3"), std::string::npos);
}

TEST(RegistryTest, PathPrefixScopesRegistrationsOnly) {
  // Cluster runs register each node's component metrics under "node{N}/";
  // the prefix applies at registration time, so lookups and dumps see the
  // qualified names. Clearing it restores unqualified registration — the
  // default empty prefix keeps single-node metric names (and golden
  // dumps) byte-identical.
  MetricRegistry reg;
  reg.SetPathPrefix("node0/");
  Counter a = reg.AddCounter("msg/sends");
  reg.AddGauge("ecl/pressure", [] { return 0.5; });
  reg.SetPathPrefix("node1/");
  Counter b = reg.AddCounter("msg/sends");  // no clash: different node
  reg.SetPathPrefix("");
  Counter c = reg.AddCounter("cluster/wakes");
  a.Add(2);
  b.Add(5);
  c.Add(7);
  EXPECT_EQ(reg.CounterValueByName("node0/msg/sends"), 2);
  EXPECT_EQ(reg.CounterValueByName("node1/msg/sends"), 5);
  EXPECT_EQ(reg.CounterValueByName("cluster/wakes"), 7);
  bool found = true;
  reg.CounterValueByName("msg/sends", &found);
  EXPECT_FALSE(found);  // the unqualified name was never registered
  const std::string dump = reg.Dump();
  EXPECT_NE(dump.find("counter node0/msg/sends 2"), std::string::npos);
  EXPECT_NE(dump.find("gauge node0/ecl/pressure"), std::string::npos);
  EXPECT_NE(dump.find("counter cluster/wakes 7"), std::string::npos);
}

TEST(TraceTest, PathPrefixScopesLaneRegistration) {
  TelemetryParams tp;
  tp.enabled = true;
  Telemetry tel(tp);
  tel.SetPathPrefix("node3/");
  const int lane = tel.trace().RegisterLane("ecl/socket0");
  tel.SetPathPrefix("");
  tel.trace().Instant(lane, "ecl", "tick", Micros(1));
  const std::string json = ChromeTraceJson(tel);
  EXPECT_NE(json.find("\"name\":\"node3/ecl/socket0\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace recorder + Chrome export
// ---------------------------------------------------------------------------

TEST(TraceTest, RingBufferKeepsNewestAndCountsDropped) {
  TraceRecorder rec(4);
  rec.set_enabled(true);
  const int lane = rec.RegisterLane("test");
  for (int i = 0; i < 6; ++i) {
    rec.Instant(lane, "t", "e", Millis(i), "\"i\":" + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2);
  const std::vector<const TraceEvent*> events = rec.InOrder();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front()->ts, Millis(2));  // oldest surviving
  EXPECT_EQ(events.back()->ts, Millis(5));
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder rec(8);
  const int lane = rec.RegisterLane("test");
  rec.Instant(lane, "t", "e", Millis(1));
  rec.Span(lane, "t", "s", Millis(1), Millis(2));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0);
}

std::string BuildSmallTraceJson() {
  TelemetryParams tp;
  tp.enabled = true;
  Telemetry tel(tp);
  const int lane = tel.trace().RegisterLane("ecl/socket0");
  tel.trace().Span(lane, "ecl", "tick", Micros(1500), Micros(2500),
                   "\"config\":3");
  tel.trace().Instant(lane, "ecl", "drift_detected", Micros(2000));
  tel.trace().CounterSample("power_w", Micros(2000), 95.5);
  return ChromeTraceJson(tel);
}

TEST(TraceTest, ChromeJsonIsDeterministicAndWellFormed) {
  const std::string j1 = BuildSmallTraceJson();
  const std::string j2 = BuildSmallTraceJson();
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j1.find("\"name\":\"ecl/socket0\""), std::string::npos);
  // Timestamps are integer-formatted microseconds with ns fraction.
  EXPECT_NE(j1.find("\"ts\":1500.000"), std::string::npos);
  EXPECT_NE(j1.find("\"dur\":1000.000"), std::string::npos);
  EXPECT_NE(j1.find("\"args\":{\"config\":3}"), std::string::npos);
}

TEST(TraceTest, JsonHelpers) {
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TEST(SamplerTest, SamplesEveryPeriodRelativeToOrigin) {
  TelemetryParams tp;
  tp.enabled = true;
  tp.sample_period = Millis(500);
  Telemetry tel(tp);
  sim::Simulator sim;
  tel.Bind(&sim);
  tel.registry().AddGauge("t_echo", [&sim] { return ToSeconds(sim.now()); });
  sim.RunFor(Seconds(1));  // origin != 0
  tel.StartSampler(sim.now());
  sim.RunFor(Millis(2500));
  const Series& series = tel.series();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_EQ(series.header, (std::vector<std::string>{"t_s", "t_echo"}));
  EXPECT_DOUBLE_EQ(series.At(0, "t_s"), 0.5);     // relative to origin
  EXPECT_DOUBLE_EQ(series.At(0, "t_echo"), 1.5);  // absolute sim time
  EXPECT_DOUBLE_EQ(series.At(4, "t_s"), 2.5);
  EXPECT_EQ(series.Find("missing"), -1);
  EXPECT_EQ(series.Column("t_s"),
            (std::vector<double>{0.5, 1.0, 1.5, 2.0, 2.5}));
  tel.StopSampler();
  sim.RunFor(Seconds(1));
  EXPECT_EQ(tel.series().size(), 5u);  // no rows after stop
}

TEST(SamplerTest, DisabledTelemetryNeverSamples) {
  TelemetryParams tp;  // enabled = false
  Telemetry tel(tp);
  sim::Simulator sim;
  tel.Bind(&sim);
  tel.registry().AddGauge("g", [] { return 1.0; });
  tel.StartSampler(0);
  sim.RunFor(Seconds(2));
  EXPECT_TRUE(tel.series().empty());
  EXPECT_EQ(tel.trace().size(), 0u);
}

// ---------------------------------------------------------------------------
// hwsim instrumentation: polled instructions
// ---------------------------------------------------------------------------

TEST(HwsimTelemetryTest, WorklessActiveThreadsRetirePollInstructions) {
  sim::Simulator sim;
  TelemetryParams tp;  // counters count even when disabled
  Telemetry tel(tp);
  tel.Bind(&sim);
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  machine.AttachTelemetry(&tel);
  const hwsim::Topology& topo = machine.topology();
  machine.ApplyMachineConfig(hwsim::MachineConfig::AllOn(topo, 2.6, 3.0));
  sim.RunFor(Seconds(1));
  const int64_t polled =
      tel.registry().CounterValueByName("hwsim/socket0/polled_instructions");
  const int64_t instr =
      tel.registry().CounterValueByName("hwsim/socket0/instructions");
  EXPECT_GT(polled, 0);       // all-active, no work: pure idle polling
  EXPECT_LE(polled, instr);   // polling is a subset of retirement

  // Fully loaded threads have no poll share: the counter stops growing.
  for (int t = 0; t < topo.total_threads(); ++t) {
    machine.SetThreadLoad(t, &workload::Firestarter(), 1.0);
  }
  sim.RunFor(Seconds(1));
  const int64_t polled2 =
      tel.registry().CounterValueByName("hwsim/socket0/polled_instructions");
  EXPECT_EQ(polled2, polled);
}

// ---------------------------------------------------------------------------
// ECL: poll exclusion in the measured performance level
// ---------------------------------------------------------------------------

double MeasuredRateUnderLowLoad(bool exclude) {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  engine::Engine engine(&sim, &machine, engine::EngineParams{});
  workload::KvParams kvp;
  kvp.indexed = true;
  workload::KvWorkload kv(&engine, kvp);
  const double cap = workload::BaselineCapacityQps(machine.params(), kv);
  ecl::EclParams params;
  params.socket.exclude_poll_instructions = exclude;
  ecl::EnergyControlLoop loop(&sim, &engine, params);
  loop.Start();
  engine.scheduler().SetSyntheticLoad(&kv.profile());
  sim.RunFor(Seconds(10));  // prime the profiles
  engine.scheduler().SetSyntheticLoad(nullptr);
  workload::ConstantProfile low(0.12, Seconds(60));
  workload::DriverParams dp;
  dp.capacity_qps = cap;
  workload::LoadDriver driver(&sim, &engine, &kv, &low, dp);
  driver.Start();
  sim.RunFor(Seconds(10));
  const double rate = loop.socket(0).last_measured_rate();
  loop.Stop();
  return rate;
}

TEST(EclTelemetryTest, PollExclusionLowersTheMeasuredRate) {
  const double with_polls = MeasuredRateUnderLowLoad(false);
  const double without_polls = MeasuredRateUnderLowLoad(true);
  EXPECT_GT(with_polls, 0.0);
  EXPECT_GT(without_polls, 0.0);
  // At low load a large share of retirement is idle polling; excluding it
  // must strictly lower the demand signal.
  EXPECT_LT(without_polls, with_polls);
}

// ---------------------------------------------------------------------------
// Experiment integration: run-local vs caller series, CSV, determinism
// ---------------------------------------------------------------------------

experiment::WorkloadFactory MicroFactory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    return std::make_unique<workload::MicroWorkload>(
        e, workload::ComputeBound(), 1e6, 2);
  };
}

std::unique_ptr<Telemetry> MakeRunTelemetry() {
  TelemetryParams tp;
  tp.enabled = true;
  tp.sample_period = Millis(500);
  return std::make_unique<Telemetry>(tp);
}

experiment::RunResult SeriesRun(Telemetry* tel) {
  workload::ConstantProfile profile(0.4, Seconds(8));
  experiment::RunOptions options;
  options.mode = experiment::ControlMode::kEcl;
  options.prime_duration = Seconds(3);
  options.telemetry = tel;
  experiment::NodeRig rig(MicroFactory(), options);
  return experiment::Run(rig, profile);
}

TEST(ExperimentTelemetryTest, SeriesIsTheSameWithOrWithoutCallerTelemetry) {
  // Without caller telemetry the exp/* gauges sample on a run-local one;
  // with it they share the caller's registry with every layer's gauges.
  // Either way the exp/* columns and the run itself are identical.
  const experiment::RunResult local = SeriesRun(nullptr);
  std::unique_ptr<Telemetry> tel = MakeRunTelemetry();
  const experiment::RunResult shared = SeriesRun(tel.get());

  EXPECT_TRUE(local.telemetry_dump.empty());
  EXPECT_FALSE(shared.telemetry_dump.empty());
  EXPECT_EQ(shared.series, tel->series());
  EXPECT_EQ(local.energy_j, shared.energy_j);
  EXPECT_EQ(local.p99_ms, shared.p99_ms);
  ASSERT_EQ(local.series.size(), 16u);
  ASSERT_EQ(local.series.header.size(), 12u);  // t_s + 7 + 2 per socket
  EXPECT_GT(shared.series.header.size(), local.series.header.size());
  for (const std::string& name : local.series.header) {
    EXPECT_EQ(local.series.Column(name), shared.series.Column(name)) << name;
  }
}

std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

TEST(ExperimentTelemetryTest, SeriesCsvSelectsAndRenamesColumns) {
  Series series;
  series.header = {"t_s", "exp/a", "exp/b"};
  series.rows = {{0.5, 1.25, 7.0}, {1.0, 2.5, 8.0}};
  const std::string path = "telemetry_test_out/series.csv";
  ASSERT_TRUE(WriteSeriesCsv(series, path, {"t_s", "exp/b"}, {"t_s", "b"}));
  EXPECT_EQ(Slurp(path), "t_s,b\n0.5,7\n1,8\n");
  ASSERT_TRUE(WriteSeriesCsv(series, path));
  EXPECT_EQ(Slurp(path), "t_s,exp/a,exp/b\n0.5,1.25,7\n1,2.5,8\n");
  EXPECT_FALSE(WriteSeriesCsv(series, path, {"exp/missing"}));
  EXPECT_FALSE(WriteSeriesCsv(series, path, {"t_s"}, {"t_s", "extra"}));
}

TEST(ExperimentTelemetryDeathTest, DisabledCallerTelemetryAborts) {
  TelemetryParams tp;  // enabled = false: it would sample no series
  Telemetry tel(tp);
  EXPECT_DEATH(SeriesRun(&tel), "disabled");
}

TEST(ExperimentTelemetryDeathTest, MismatchedSamplePeriodAborts) {
  TelemetryParams tp;
  tp.enabled = true;
  tp.sample_period = Seconds(1);  // the run samples every 500 ms
  Telemetry tel(tp);
  EXPECT_DEATH(SeriesRun(&tel), "sample_period");
}

struct ArmArtifacts {
  std::string dump;
  std::string trace_json;
};

std::vector<ArmArtifacts> RunArms(int jobs) {
  constexpr int kArms = 2;
  std::vector<std::unique_ptr<Telemetry>> tels;
  for (int i = 0; i < kArms; ++i) tels.push_back(MakeRunTelemetry());
  std::vector<experiment::RunResult> results(kArms);
  experiment::RunMatrix(kArms, jobs, [&](int i) {
    workload::ConstantProfile profile(0.4, Seconds(6));
    experiment::RunOptions options;
    options.mode = experiment::ControlMode::kEcl;
    options.prime_duration = Seconds(3);
    options.driver_seed = 4242 + static_cast<uint64_t>(i);
    options.telemetry = tels[static_cast<size_t>(i)].get();
    experiment::NodeRig rig(MicroFactory(), options);
    results[static_cast<size_t>(i)] = experiment::Run(rig, profile);
  });
  std::vector<ArmArtifacts> out(kArms);
  for (int i = 0; i < kArms; ++i) {
    out[static_cast<size_t>(i)].dump =
        results[static_cast<size_t>(i)].telemetry_dump;
    out[static_cast<size_t>(i)].trace_json =
        ChromeTraceJson(*tels[static_cast<size_t>(i)]);
  }
  return out;
}

TEST(ExperimentTelemetryTest, ArtifactsAreByteIdenticalAcrossJobsAndRepeats) {
  const std::vector<ArmArtifacts> serial = RunArms(1);
  const std::vector<ArmArtifacts> parallel = RunArms(2);
  const std::vector<ArmArtifacts> again = RunArms(1);
  ASSERT_EQ(serial.size(), 2u);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].dump.empty());
    EXPECT_EQ(serial[i].dump, parallel[i].dump);
    EXPECT_EQ(serial[i].dump, again[i].dump);
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json);
    EXPECT_EQ(serial[i].trace_json, again[i].trace_json);
  }
  // The two arms differ (different driver seeds) — the equality above is
  // not vacuous.
  EXPECT_NE(serial[0].dump, serial[1].dump);
}

// ---------------------------------------------------------------------------
// Consolidation regression: poll exclusion improves the saving
// ---------------------------------------------------------------------------

experiment::RunResult ConsolidationRun(bool exclude_polls) {
  experiment::RunOptions options;
  options.mode = experiment::ControlMode::kEcl;
  options.ecl.consolidation.enabled = true;
  options.ecl.socket.exclude_poll_instructions = exclude_polls;
  options.engine.migration.min_shard_bytes = 128.0 * (1 << 20);
  workload::StepProfile profile(
      {{0, 0.6}, {Seconds(20), 0.1}, {Seconds(100), 0.6}}, Seconds(120));
  experiment::NodeRig rig(
      [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
        workload::KvParams params;
        params.indexed = false;
        return std::make_unique<workload::KvWorkload>(e, params);
      },
      options);
  return experiment::Run(rig, profile);
}

TEST(ConsolidationRegressionTest, PollExclusionImprovesConsolidatedEnergy) {
  const experiment::RunResult with_polls = ConsolidationRun(false);
  const experiment::RunResult without_polls = ConsolidationRun(true);
  // Same work either way.
  EXPECT_EQ(with_polls.completed, without_polls.completed);
  // The receiver socket of a consolidation runs many mostly-idle threads;
  // counting their poll loops as demand kept its configuration wider than
  // the work needed. Excluding them must lower total energy.
  EXPECT_LT(without_polls.energy_j, with_polls.energy_j);
  // And consolidation still actually consolidates.
  EXPECT_GT(without_polls.consolidation_moves, 0);
}

// ---------------------------------------------------------------------------
// Kernel-dispatch and morsel metrics determinism
// ---------------------------------------------------------------------------

TEST(KernelMetricsTest, ExportIsDeterministicAcrossRepeats) {
  // The raw dispatch counters are process-global atomics; each engine
  // exports the delta since its construction, so running the identical
  // workload in fresh engines (as RunMatrix does for every --jobs value)
  // must yield identical metric values no matter what ran before.
  auto run_once = [] {
    sim::Simulator sim;
    hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
    Telemetry telemetry{TelemetryParams{}};
    telemetry.Bind(&sim);
    engine::EngineParams params;
    params.telemetry = &telemetry;
    engine::Engine engine(&sim, &machine, params);
    machine.ApplyMachineConfig(
        hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));
    workload::SsbParams sp;
    sp.scale_factor = 0.003;
    workload::SsbWorkload ssb(&engine, sp);
    ssb.Load();
    ssb.InstallExecutor();
    const QueryId q1 = ssb.SubmitQuery(1, 1, /*morsels_per_partition=*/3);
    const QueryId q2 = ssb.SubmitQuery(2, 1, /*morsels_per_partition=*/3);
    sim.RunFor(Seconds(2));
    EXPECT_TRUE(ssb.TakeResult(q1).has_value());
    EXPECT_TRUE(ssb.TakeResult(q2).has_value());

    std::vector<std::pair<std::string, int64_t>> values;
    const MetricRegistry& reg = telemetry.registry();
    for (int i = 0; i < reg.num_counters(); ++i) {
      const std::string& name = reg.counter_name(i);
      if (name.rfind("engine/kernels/", 0) == 0 ||
          name.rfind("engine/morsels", 0) == 0) {
        values.emplace_back(name, reg.CounterValue(i));
      }
    }
    return values;
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_FALSE(first.empty());
  int64_t filter_total = 0;
  int64_t morsels_dispatched = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first);
    EXPECT_EQ(first[i].second, second[i].second) << first[i].first;
    if (first[i].first.rfind("engine/kernels/filter_int_range/", 0) == 0) {
      filter_total += first[i].second;
    }
    if (first[i].first == "engine/morsels_dispatched") {
      morsels_dispatched = first[i].second;
    }
  }
  // The SSB pipelines actually dispatched filter kernels, and the two
  // 3-morsel submissions produced 3 messages per partition each.
  EXPECT_GT(filter_total, 0);
  EXPECT_EQ(morsels_dispatched,
            2 * 3 * static_cast<int64_t>(48));
}

}  // namespace
}  // namespace ecldb::telemetry
