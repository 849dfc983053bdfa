// Ablation: why DBMS-integrated energy control — comparing the OS's
// ondemand-style frequency governor against the ECL on a polling
// data-oriented DBMS (paper Section 1's motivation made executable).
//
// The OS measures utilization as C0 residency; a polling message layer
// keeps every worker in C0, so the governor sees 100 % utilization at any
// query load and never scales down. Even with a hypothetical *blocking*
// engine (a usable utilization signal) the governor only controls core
// frequencies — no C-states for pinned threads, no uncore clock, no
// workload-dependent configuration choice.
#include <memory>

#include "bench_common.h"
#include "experiment/node_rig.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

using namespace ecldb;

namespace {

using experiment::ControlMode;

struct Outcome {
  double avg_power_w = 0.0;
  double p99_ms = 0.0;
  double mean_freq_ghz = 0.0;
};

/// `sees_polling_as_busy` picks the governor's DBMS: polling (true) or a
/// hypothetical blocking one (false).
Outcome Run(ControlMode mode, double load, bool sees_polling_as_busy = true) {
  experiment::RunOptions options;
  options.mode = mode;
  options.os_governor.sees_polling_as_busy = sees_polling_as_busy;
  // Only the ECL arm is primed.
  if (mode != ControlMode::kEcl) options.prime_duration = 0;
  experiment::NodeRig rig(
      [](engine::Engine* engine) {
        workload::KvParams kvp;
        kvp.indexed = false;
        return std::make_unique<workload::KvWorkload>(engine, kvp);
      },
      options);
  sim::Simulator& sim = rig.simulator();
  hwsim::Machine& machine = rig.machine();
  engine::Engine& engine = rig.engine();
  rig.Prime();

  workload::ConstantProfile profile(load, Seconds(30));
  workload::DriverParams dp;
  dp.capacity_qps = rig.capacity();
  workload::LoadDriver driver(&sim, &engine, &rig.workload(), &profile, dp);
  const double e0 = machine.TotalEnergyJoules();
  driver.Start();
  double freq_sum = 0.0;
  int freq_samples = 0;
  for (int t = 0; t < 30; ++t) {
    sim.RunFor(Seconds(1));
    const double f = machine.effective_config().sockets[0].MeanActiveCoreFreq(
        machine.topology());
    if (f > 0.0) {  // skip RTI idle-phase samples
      freq_sum += f;
      ++freq_samples;
    }
  }
  Outcome o;
  o.avg_power_w = (machine.TotalEnergyJoules() - e0) / 30.0;
  sim.RunFor(Seconds(2));
  o.p99_ms = engine.latency().all().Percentile(99);
  o.mean_freq_ghz = freq_samples > 0 ? freq_sum / freq_samples : 0.0;
  return o;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "ablation_os_governor", "paper Section 1 (motivation ablation)",
      "OS ondemand-style governor vs DBMS-integrated ECL on the polling "
      "data-oriented engine, non-indexed key-value store at 25 % load.");

  TablePrinter table({"controller", "avg power W", "p99 ms",
                      "mean core GHz", "saving vs baseline %"});
  const Outcome base = Run(ControlMode::kBaseline, 0.25);
  auto row = [&](const char* name, const Outcome& o) {
    table.AddRow({name, Fmt(o.avg_power_w, 1), Fmt(o.p99_ms, 1),
                  Fmt(o.mean_freq_ghz, 2),
                  Fmt(100.0 * (1.0 - o.avg_power_w / base.avg_power_w), 1)});
  };
  row("baseline (race-to-idle)", base);
  row("OS governor (polling DBMS)", Run(ControlMode::kOsGovernor, 0.25));
  row("OS governor (hypothetical blocking DBMS)",
      Run(ControlMode::kOsGovernor, 0.25, /*sees_polling_as_busy=*/false));
  row("ECL (DBMS-integrated)", Run(ControlMode::kEcl, 0.25));
  table.Print();

  std::printf(
      "\nThe polling message layer keeps every worker in C0, so the OS "
      "governor sees 100 %% utilization and never scales down (power == "
      "baseline). Even with a usable utilization signal the governor only "
      "touches core frequencies: it cannot power threads down (they are "
      "pinned and polling), cannot pin the uncore clock, and knows nothing "
      "about the workload's energy profile - the gap to the ECL remains.\n");
  return 0;
}
