// Reproduces Figure 11: the socket-level ECL guiding example — measured
// utilization and applied performance level over time, including RTI usage
// and a multiplexed-adaptation phase. Also runs the RTI-cycle ablation
// from DESIGN.md.
//
// The table is sourced from the generic telemetry subsystem (sampled gauge
// series + registry counters) rather than bespoke per-figure reads; the
// output is byte-identical to the pre-telemetry version of this bench.
// With --trace[=path] the run also exports a Chrome trace (load it in
// chrome://tracing or ui.perfetto.dev) and the sampled series as CSV.
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.h"
#include "ecl/ecl.h"
#include "engine/engine.h"
#include "experiment/node_rig.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

using namespace ecldb;

namespace {

void RunTrace(int max_rti_cycles, bool print_table,
              const std::string& trace_path) {
  telemetry::TelemetryParams tp;
  tp.enabled = true;
  tp.sample_period = Seconds(1);
  telemetry::Telemetry tel(tp);
  experiment::RunOptions options;
  options.ecl.socket.rti.max_cycles_per_interval = max_rti_cycles;
  options.telemetry = &tel;
  experiment::NodeRig rig(
      [](engine::Engine* engine) {
        workload::KvParams kvp;
        kvp.indexed = true;
        return std::make_unique<workload::KvWorkload>(engine, kvp);
      },
      options);
  sim::Simulator& sim = rig.simulator();
  hwsim::Machine& machine = rig.machine();
  engine::Engine& engine = rig.engine();
  ecl::EnergyControlLoop& loop = *rig.loop();
  rig.Prime();

  // The guiding example: full load, two decreasing steps, then a low phase
  // where RTI kicks in; at t=10 s the profile is flagged stale so the
  // multiplexed adaptation window becomes visible.
  workload::StepProfile steps({{Seconds(0), 1.0},
                               {Seconds(4), 0.55},
                               {Seconds(6), 0.25},
                               {Seconds(9), 0.12}},
                              Seconds(14));
  workload::DriverParams dp;
  dp.capacity_qps = rig.capacity();
  workload::LoadDriver driver(&sim, &engine, &rig.workload(), &steps, dp);
  driver.Start();
  tel.StartSampler(sim.now());
  sim.Schedule(sim.now() + Seconds(10), [&] { loop.FlagWorkloadChange(); });

  const double e0 = machine.TotalEnergyJoules();
  // Multiplexed-evaluation deltas come from the registry counter; the
  // per-second control state comes from the sampled gauge series below.
  telemetry::MetricRegistry& reg = tel.registry();
  std::vector<int64_t> eval_counts;
  eval_counts.push_back(
      reg.CounterValueByName("ecl/socket0/multiplexed_evals"));
  for (int t = 1; t <= 14; ++t) {
    sim.RunFor(Seconds(1));
    eval_counts.push_back(
        reg.CounterValueByName("ecl/socket0/multiplexed_evals"));
  }
  const double energy = machine.TotalEnergyJoules() - e0;

  if (print_table) {
    TablePrinter table({"t s", "load", "util", "perf level", "config",
                        "rti", "duty", "cycles", "mux evals"});
    const telemetry::Series& series = tel.series();
    const ecl::SocketEcl& se = loop.socket(0);
    for (int t = 1; t <= 14; ++t) {
      const size_t row = static_cast<size_t>(t - 1);
      const int config =
          static_cast<int>(series.At(row, "ecl/socket0/config_index"));
      const int cycles =
          static_cast<int>(series.At(row, "ecl/socket0/rti_cycles"));
      table.AddRow({FmtInt(t), Fmt(steps.LoadAt(Seconds(t - 1)), 2),
                    Fmt(series.At(row, "ecl/socket0/utilization"), 2),
                    Fmt(series.At(row, "ecl/socket0/perf_level") /
                            series.At(row, "ecl/socket0/peak_perf"),
                        2),
                    bench::Describe(machine.topology(),
                                    se.profile().config(config)),
                    cycles > 0 ? "on" : "off",
                    Fmt(series.At(row, "ecl/socket0/rti_duty"), 2),
                    FmtInt(cycles),
                    FmtInt(eval_counts[static_cast<size_t>(t)] -
                           eval_counts[static_cast<size_t>(t - 1)])});
    }
    table.Print();
  }
  std::printf("max RTI cycles/interval = %2d: energy %.1f J, mean latency "
              "%.1f ms, p99 %.1f ms\n",
              max_rti_cycles, energy, engine.latency().all().Mean(),
              engine.latency().all().Percentile(99));

  if (!trace_path.empty()) {
    if (telemetry::WriteChromeTrace(tel, trace_path)) {
      std::printf("[trace exported to %s]\n", trace_path.c_str());
    }
    const std::string csv_path = trace_path + ".series.csv";
    if (telemetry::WriteSeriesCsv(tel.series(), csv_path)) {
      std::printf("[telemetry series exported to %s]\n", csv_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --trace or --trace=<path>: export the Chrome trace + series CSV of the
  // headline run. Off by default so the default stdout stays stable.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "bench_results/fig11_socket_ecl_trace.trace.json";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    }
  }
  bench::PrintHeader(
      "fig11_socket_ecl_trace", "paper Fig. 11",
      "Socket-level ECL guiding example: utilization, applied performance "
      "level, RTI switching and a multiplexed-adaptation window (flagged "
      "at t=10 s). Indexed key-value workload, 1 Hz base interval.");
  RunTrace(50, /*print_table=*/true, trace_path);

  std::printf("\n-- ablation: RTI cycles per interval (DESIGN.md) --\n");
  for (int cycles : {1, 5, 10, 20, 50}) RunTrace(cycles, false, "");
  std::printf(
      "\nShape check (paper): at full utilization the discovery strategy "
      "raises the performance level exponentially; below full utilization "
      "the level follows utilization (Eq. 3); at low load the ECL emulates "
      "the level via race-to-idle; more RTI cycles per interval lower the "
      "latency impact of idling at slightly higher switching overhead.\n");
  return 0;
}
