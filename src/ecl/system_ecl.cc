#include "ecl/system_ecl.h"

#include <algorithm>

#include "common/check.h"

namespace ecldb::ecl {

/// Latency proximity (mean/limit) above which pressure starts rising even
/// without a positive trend.
constexpr double kProximityOnset = 0.7;
/// Floor on pressure contributed by the admission controller's recent shed
/// fraction (pressure >= weight * shed_fraction). Shed queries are demand
/// the latency window never sees: without this term, shedding that keeps
/// latency healthy would read as "system relaxed" and let the ECL widen
/// idling while the entrance is refusing work. The floor never exceeds the
/// weight, so on its own it never sheds a class whose onset is at or above
/// it: premium, standard (0.70; 0.50 in ablation_slo_tiers) and the
/// default best-effort (0.45), but not ablation_slo_tiers' best-effort at
/// 0.30, which it keeps shedding while over 3/4 of arrivals are shed.
constexpr double kShedPressureWeight = 0.4;

SystemEcl::SystemEcl(sim::Simulator* simulator,
                     const engine::LatencyTracker* latency,
                     const SystemEclParams& params)
    : simulator_(simulator), latency_(latency), params_(params) {
  ECLDB_CHECK(simulator != nullptr && latency != nullptr);
  ECLDB_CHECK(params.latency_limit_ms > 0.0);
}

void SystemEcl::Start() {
  running_ = true;
  const int64_t epoch = ++start_epoch_;
  simulator_->ScheduleAfter(params_.interval, [this, epoch] { Tick(epoch); });
}

void SystemEcl::Tick(int64_t epoch) {
  if (!running_ || epoch != start_epoch_) return;
  Update();
  simulator_->ScheduleAfter(params_.interval, [this, epoch] { Tick(epoch); });
}

void SystemEcl::Update() {
  // Demand the entrance refused never shows up in the latency window, so
  // the shed fraction contributes a pressure floor in every branch.
  const double shed_floor =
      shed_signal_ ? std::clamp(kShedPressureWeight * shed_signal_(), 0.0, 1.0)
                   : 0.0;
  if (latency_->WindowEmpty()) {
    pressure_ = shed_floor;
    ttv_s_ = 1e18;
    return;
  }
  const double mean = latency_->WindowMeanMs();
  const double trend = latency_->TrendMsPerSec();
  const double limit = params_.latency_limit_ms;

  if (mean >= limit) {
    ttv_s_ = 0.0;
    pressure_ = 1.0;
    return;
  }
  ttv_s_ = trend > 1e-9 ? (limit - mean) / trend : 1e18;

  const double trend_pressure =
      std::clamp(1.0 - ttv_s_ / params_.pressure_horizon_s, 0.0, 1.0);
  const double proximity = mean / limit;
  const double proximity_pressure = std::clamp(
      (proximity - kProximityOnset) / (1.0 - kProximityOnset), 0.0, 1.0);
  pressure_ = std::max({trend_pressure, proximity_pressure, shed_floor});
}

}  // namespace ecldb::ecl
