// Reproduces Figure 12: the ECL's startup meta calibration — deviation of
// power measurements as the apply and measure times are shortened.
#include "bench_common.h"
#include "ecl/meta_calibration.h"

using namespace ecldb;

int main() {
  bench::PrintHeader(
      "fig12_meta_calibration", "paper Fig. 12",
      "Meta calibration: reference measurement with generous times, then "
      "the measure window and the apply settle time are shortened while "
      "tracking the deviation (switching highest <-> lowest configuration).");
  bench::MachineRig rig;
  ecl::MetaCalibration cal(&rig.simulator, &rig.machine, 0);
  const ecl::MetaCalibrationResult result = cal.Run(workload::ComputeBound());

  std::printf("\n-- measure-time sweep (apply time at reference) --\n");
  TablePrinter mt({"measure ms", "deviation %"});
  for (const auto& p : result.measure_sweep) {
    mt.AddRow({Fmt(ToMillis(p.duration), 0), Fmt(100.0 * p.deviation, 2)});
  }
  mt.Print();

  std::printf("\n-- apply-time sweep (measure time as chosen) --\n");
  TablePrinter at({"apply ms", "deviation %"});
  for (const auto& p : result.apply_sweep) {
    at.AddRow({Fmt(ToMillis(p.duration), 0), Fmt(100.0 * p.deviation, 2)});
  }
  at.Print();

  std::printf("\nchosen: measure %.0f ms, apply %.0f ms\n",
              ToMillis(result.measure_time), ToMillis(result.apply_time));
  std::printf(
      "\nShape check (paper): applying a configuration is accurate even at "
      "1 ms (C-/P-state transitions cost microseconds); measuring the RAPL "
      "counters becomes increasingly inaccurate below ~100 ms, which the "
      "paper identifies as the best accuracy/speed trade-off.\n");
  return 0;
}
