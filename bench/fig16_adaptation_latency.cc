// Reproduces Figure 16: query latency compliance of the three
// energy-profile maintenance strategies after the workload change.
#include <vector>

#include "bench_common.h"
#include "experiment/drift_trace.h"
#include "experiment/run_matrix.h"

using namespace ecldb;

int main(int argc, char** argv) {
  const int jobs = experiment::ParseJobs(argc, argv);
  bench::PrintHeader(
      "fig16_adaptation_latency", "paper Fig. 16",
      "Query latencies after the workload switch (t >= 40 s), 100 ms limit: "
      "static vs online vs multiplexed profile maintenance.");
  // The static, online and multiplexed maintenance strategies are
  // independent simulations: indexed KV for 40 s, then scans for 80 s.
  std::vector<experiment::DriftTraceResult> results(3);
  experiment::RunMatrix(3, jobs, [&](int i) {
    experiment::DriftTraceParams p;
    p.online = i >= 1;
    p.multiplexed = i == 2;
    p.phases = {{experiment::DriftWorkload::kIndexed, 0.5, Seconds(40),
                 Seconds(40)},
                {experiment::DriftWorkload::kScan, 0.5, Seconds(80),
                 Seconds(80)}};
    results[static_cast<size_t>(i)] = experiment::RunDriftTrace(p);
  });
  const auto& none = results[0];
  const auto& online = results[1];
  const auto& mux = results[2];

  TablePrinter table({"strategy", "mean ms", "p99 ms", "violations %"});
  auto row = [&](const char* name, const experiment::DriftTraceResult& r) {
    const experiment::DriftTracePhase& after = r.phases[1];
    table.AddRow({name, Fmt(after.tail_mean_ms, 1), Fmt(after.tail_p99_ms, 1),
                  Fmt(100.0 * after.tail_violation_frac, 2)});
  };
  row("ECL static", none);
  row("ECL online", online);
  row("ECL multiplexed", mux);
  table.Print();

  std::printf(
      "\nShape check (paper): without profile adaptation the ECL mostly "
      "cannot stay within the response-time limit after the workload "
      "change (inaccurate performance levels and RTI calculations); the "
      "online and multiplexed settings stay within the limit.\n");
  return 0;
}
