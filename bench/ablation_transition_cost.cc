// Ablation: sensitivity of the ECL to configuration-transition costs.
// The paper (Fig. 12 discussion, citing [7]) relies on C-/P-state
// transitions costing only microseconds; this sweep shows how the RTI
// strategy's benefit erodes — and the controller must fall back to
// steady configurations — if transitions were expensive.
#include <memory>

#include "bench_common.h"
#include "experiment/experiment.h"
#include "workload/kv.h"
#include "workload/load_profile.h"

using namespace ecldb;

namespace {

experiment::WorkloadFactory Factory() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

}  // namespace

int main() {
  bench::PrintHeader(
      "ablation_transition_cost", "design ablation (DESIGN.md)",
      "ECL at 20 % load while the configuration-apply latency is swept "
      "from the realistic microseconds to hypothetical milliseconds.");

  workload::ConstantProfile profile(0.2, Seconds(30));
  experiment::RunOptions base_opt;
  base_opt.mode = experiment::ControlMode::kBaseline;
  experiment::NodeRig base_rig(Factory(), base_opt);
  const auto base = experiment::Run(base_rig, profile);

  TablePrinter table({"apply latency", "ECL power W", "saving %", "p99 ms"});
  for (SimDuration apply : {Micros(20), Micros(200), Millis(2), Millis(10)}) {
    experiment::RunOptions opt;
    opt.mode = experiment::ControlMode::kEcl;
    opt.machine.config_apply_latency = apply;
    experiment::NodeRig rig(Factory(), opt);
    const auto r = experiment::Run(rig, profile);
    char label[32];
    if (apply >= Millis(1)) {
      std::snprintf(label, sizeof(label), "%.0f ms", ToMillis(apply));
    } else {
      std::snprintf(label, sizeof(label), "%.0f us", ToMillis(apply) * 1000.0);
    }
    table.AddRow({label, Fmt(r.avg_power_w, 1),
                  Fmt(experiment::SavingsPercent(base, r), 1),
                  Fmt(r.p99_ms, 1)});
  }
  table.Print();

  std::printf(
      "\nbaseline: %.1f W. With microsecond transitions (real hardware), "
      "frequent RTI switching is essentially free; at millisecond "
      "transition costs every switch burns active time, eroding both the "
      "savings and the latency headroom - the hardware property the "
      "paper's meta calibration verifies before relying on it.\n",
      base.avg_power_w);
  return 0;
}
