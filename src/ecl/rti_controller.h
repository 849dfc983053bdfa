#ifndef ECLDB_ECL_RTI_CONTROLLER_H_
#define ECLDB_ECL_RTI_CONTROLLER_H_

#include "common/types.h"
#include "profile/energy_profile.h"

namespace ecldb::ecl {

struct RtiControllerParams {
  /// Maximum RTI cycles per socket-level ECL interval (the paper uses up
  /// to 50 cycles per 1 s interval; fig11_socket_ecl_trace varies it).
  int max_cycles_per_interval = 50;
};

/// The paper's race-to-idle controller (Section 5.1): in the
/// under-utilization zone the socket switches between the most
/// energy-efficient configuration and idle mode, which (1) partially
/// compensates the high cost of activating the first core of a socket and
/// (2) emulates any performance level the profile has no configuration
/// for. Higher latency pressure raises the switching frequency (shorter
/// idle stints) and eventually disables RTI.
class RtiController {
 public:
  struct Plan {
    /// Whether to switch between `config_index` and idle at all; when
    /// false, `config_index` is applied for the entire interval.
    bool use_rti = false;
    /// Configuration to run during active phases.
    int config_index = -1;
    /// Fraction of each cycle spent in the active configuration.
    double duty = 1.0;
    /// Number of cycles in the upcoming ECL interval.
    int cycles = 1;
  };

  explicit RtiController(const RtiControllerParams& params) : params_(params) {}

  /// Plans the next interval for a demanded performance level.
  /// `selected_index` is the utilization controller's configuration pick.
  Plan MakePlan(double demand, int selected_index,
                const profile::EnergyProfile& profile, double pressure) const;

 private:
  RtiControllerParams params_;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_RTI_CONTROLLER_H_
