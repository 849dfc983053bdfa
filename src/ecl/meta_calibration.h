#ifndef ECLDB_ECL_META_CALIBRATION_H_
#define ECLDB_ECL_META_CALIBRATION_H_

#include <vector>

#include "common/types.h"
#include "hwsim/cluster.h"
#include "hwsim/machine.h"
#include "hwsim/work_profile.h"
#include "sim/simulator.h"

namespace ecldb::ecl {

/// Result of one calibration sweep step.
struct CalibrationPoint {
  SimDuration duration = 0;
  double deviation = 0.0;  // relative to the reference measurement
};

struct MetaCalibrationResult {
  SimDuration measure_time = 0;
  SimDuration apply_time = 0;
  std::vector<CalibrationPoint> measure_sweep;
  std::vector<CalibrationPoint> apply_sweep;
};

/// The ECL's startup meta-calibration (paper Section 5.1, Fig. 12):
/// determines how quickly configurations can be applied and how short the
/// counter measurement window may be. It takes a reference measurement
/// with generous times, then shortens the times step by step while
/// tracking the deviation — switching between the highest configuration
/// (all cores, maximum frequency) and the lowest (one core, minimum
/// frequency) for every probe, first calibrating the measure time, then
/// the apply time.
class MetaCalibration {
 public:
  MetaCalibration(sim::Simulator* simulator, hwsim::Machine* machine,
                  SocketId socket);

  /// Runs the calibration under the given synthetic workload; consumes
  /// virtual time on the simulator.
  MetaCalibrationResult Run(const hwsim::WorkProfile& work);

 private:
  /// One probe: apply `cfg`, wait `apply`, measure power over `measure`.
  double ProbePowerW(const hwsim::SocketConfig& cfg,
                     const hwsim::WorkProfile& work, SimDuration apply,
                     SimDuration measure);

  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  SocketId socket_;
};

/// The whole-node transition-cost regime, the cluster-tier analogue of
/// the apply/measure times above. Where a socket configuration applies in
/// tens of microseconds, a node transition pays a boot of tens of seconds
/// at elevated power — three to six orders of magnitude apart, which is
/// why the cluster ECL needs its own calibrated hysteresis instead of
/// reusing the in-box dwell times.
struct NodeTransitionCost {
  SimDuration boot_latency = 0;
  /// Energy burned by one boot (boot power over the boot latency).
  double boot_energy_j = 0.0;
  /// Wall power while off (standby).
  double off_power_w = 0.0;
  /// Measured wall power of the fully idle node while on: machine idle
  /// draw plus the platform overhead — everything a power-down removes.
  double on_idle_power_w = 0.0;
  /// Minimum off duration for a power-down to save net energy: below
  /// this, the boot premium exceeds the off-state savings.
  double break_even_off_s = 0.0;
};

/// Measures node `n`'s transition economics by observing the cluster's
/// energy accounting over an idle window (consumes virtual time; the node
/// must be on and unloaded). The break-even compares staying on against
/// off-then-boot: savings accrue at (on_idle - off) W while off, the boot
/// repays (boot - on_idle) W over the boot latency.
NodeTransitionCost CalibrateNodeTransition(sim::Simulator* simulator,
                                           hwsim::Cluster* cluster, NodeId n,
                                           SimDuration measure = Seconds(1));

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_META_CALIBRATION_H_
