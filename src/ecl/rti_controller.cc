#include "ecl/rti_controller.h"

#include <algorithm>
#include <cmath>

namespace ecldb::ecl {

/// Minimum cycles when RTI is active.
constexpr int kMinCyclesPerInterval = 10;
/// Above this duty there is no point in switching (residency in idle
/// would be negligible).
constexpr double kMaxDuty = 0.95;
/// Latency pressure at or above which RTI is disabled entirely (idle
/// residency hurts response times).
constexpr double kDisablePressure = 0.7;

RtiController::Plan RtiController::MakePlan(
    double demand, int selected_index, const profile::EnergyProfile& profile,
    double pressure) const {
  Plan plan;
  plan.config_index = selected_index;
  if (selected_index < 0 || pressure >= kDisablePressure) return plan;
  // RTI applies in the under-utilization zone: run the most
  // energy-efficient configuration and idle the rest of the time.
  if (profile.ZoneForDemand(demand) != profile::Zone::kUnderUtilization) {
    return plan;
  }
  const int optimal = profile.MostEfficientIndex();
  if (optimal < 0) return plan;
  const double optimal_perf = profile.config(optimal).perf_score;
  if (optimal_perf <= 0.0) return plan;

  const double duty = std::clamp(demand / optimal_perf, 0.0, 1.0);
  if (duty >= kMaxDuty) {
    plan.config_index = optimal;
    return plan;
  }
  plan.use_rti = true;
  plan.config_index = optimal;
  plan.duty = duty;
  // More cycles under pressure: shorter idle stints keep latencies low at
  // the cost of more transitions.
  const double pressure_scale = pressure / kDisablePressure;
  plan.cycles = static_cast<int>(std::lround(
      kMinCyclesPerInterval +
      (params_.max_cycles_per_interval - kMinCyclesPerInterval) *
          std::clamp(pressure_scale, 0.0, 1.0)));
  plan.cycles = std::clamp(plan.cycles, 1, params_.max_cycles_per_interval);
  return plan;
}

}  // namespace ecldb::ecl
