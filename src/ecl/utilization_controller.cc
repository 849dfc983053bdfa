#include "ecl/utilization_controller.h"

#include <algorithm>

namespace ecldb::ecl {

/// Utilization at or above which the controller considers the socket
/// fully utilized (the true demand is then unobservable).
constexpr double kFullThreshold = 0.95;
/// Base factor of the exponential discovery strategy at full utilization.
constexpr double kDiscoveryFactor = 2.0;
/// Additional aggressiveness at maximum latency pressure: the factor
/// grows to kDiscoveryFactor * (1 + kPressureBoost * pressure).
constexpr double kPressureBoost = 3.0;

double UtilizationController::Update(double utilization, double measured_rate,
                                     double current_level, double pressure,
                                     const profile::EnergyProfile& profile) const {
  utilization = std::clamp(utilization, 0.0, 1.0);
  pressure = std::clamp(pressure, 0.0, 1.0);

  const double peak = profile.PeakPerfScore();
  // The smallest meaningful level: the least performing measured config
  // throttled down to one RTI duty step.
  double floor_level = peak;
  for (int i = 1; i < profile.size(); ++i) {
    const profile::Configuration& c = profile.config(i);
    if (c.measured() && c.perf_score > 0.0) {
      floor_level = std::min(floor_level, c.perf_score);
    }
  }
  if (peak <= 0.0) return 0.0;
  floor_level *= 0.05;

  double demand;
  if (utilization >= kFullThreshold) {
    const double factor = kDiscoveryFactor * (1.0 + kPressureBoost * pressure);
    const double base =
        std::max({current_level, measured_rate, floor_level});
    demand = base * factor;
  } else {
    // Demand is observable (Eq. 3 in the measured currency: the processed
    // performance level equals the true demand below saturation), padded
    // with headroom and damped on the way down so a one-interval dip does
    // not throw capacity away.
    const double observed = measured_rate * params_.headroom;
    demand = std::max(observed, current_level * params_.max_decrease);
  }
  // Latency pressure keeps a floor under the performance level: while the
  // limit is threatened, the socket is "more eager to increase the
  // performance level" (paper Section 5.2).
  demand = std::max(demand, peak * pressure);
  return std::min(peak, demand);
}

}  // namespace ecldb::ecl
