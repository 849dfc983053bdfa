#ifndef ECLDB_ECL_UTILIZATION_CONTROLLER_H_
#define ECLDB_ECL_UTILIZATION_CONTROLLER_H_

#include "profile/energy_profile.h"

namespace ecldb::ecl {

struct UtilizationControllerParams {
  /// Headroom multiplied onto the observed demand so transient bursts do
  /// not immediately build backlog. Varied by
  /// UtilizationControllerTest.{Equation3BelowFullUtilization,
  /// HeadroomPadsDemand, DampedDecrease}.
  double headroom = 1.25;
  /// Largest per-tick reduction of the performance level (0.5 = at most
  /// halve), damping down-up oscillation of the reactive loop. Varied by
  /// the same tests.
  double max_decrease = 0.5;
};

/// The paper's utilization controller (Section 5.1): determines the
/// current performance-level demand of the DBMS on this socket.
///
/// Below full utilization the demand is directly observable:
///   performance_level_new = utilization * performance_level_old  (Eq. 3)
///
/// At full utilization the controller cannot know the true demand (the
/// utilization is measured relative to the active workers), so it
/// discovers it by exponentially increasing the performance level —
/// faster when the system-level ECL reports latency pressure.
class UtilizationController {
 public:
  explicit UtilizationController(const UtilizationControllerParams& params)
      : params_(params) {}

  /// Computes the new performance-level demand.
  ///
  /// `utilization` in [0,1] is the worker-busy fraction (saturation
  /// signal); `measured_rate` is the performance level actually processed
  /// over the finished interval (instructions retired per second), which
  /// below saturation equals the true demand — this is Eq. 3 expressed in
  /// the measured currency (utilization * offered level == processed
  /// level). `current_level` is the previously offered level; `pressure`
  /// in [0,1] comes from the system-level ECL.
  double Update(double utilization, double measured_rate, double current_level,
                double pressure, const profile::EnergyProfile& profile) const;

 private:
  UtilizationControllerParams params_;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_UTILIZATION_CONTROLLER_H_
