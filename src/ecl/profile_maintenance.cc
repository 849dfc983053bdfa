#include "ecl/profile_maintenance.h"

#include <algorithm>
#include <cmath>

namespace ecldb::ecl {

/// Relative deviation between a fresh online measurement and the stored
/// configuration data that indicates a workload change (drift) and
/// triggers multiplexed reevaluation of the whole profile.
constexpr double kDriftThreshold = 0.20;

ProfileMaintenance::OnlineOutcome ProfileMaintenance::RecordOnline(
    profile::EnergyProfile* profile, int index, double power_w,
    double perf_score, SimTime now) {
  OnlineOutcome outcome;
  if (!params_.enable_online || index <= 0 || index >= profile->size()) {
    return outcome;
  }
  // Sensor sanity: a RAPL dropout freezes the published energy counters,
  // collapsing the interval's power delta to zero (or, with quantization
  // jitter, below zero). Real socket power is tens of watts, so a
  // non-positive measurement can only be a broken sensor — discard it
  // instead of poisoning the profile with a "free energy" configuration.
  if (power_w <= 0.0) {
    ++discarded_measurements_;
    return outcome;
  }
  profile::Configuration& c = profile->config(index);
  if (c.measured() && c.power_w > 0.0 && c.perf_score > 0.0 &&
      perf_score > 0.0) {
    const double power_dev = std::abs(power_w - c.power_w) / c.power_w;
    const double perf_dev = std::abs(perf_score - c.perf_score) / c.perf_score;
    if (std::max(power_dev, perf_dev) > kDriftThreshold) {
      outcome.drift_detected = true;
    }
  }
  profile->Record(index, power_w, perf_score, now);
  ++online_updates_;
  outcome.recorded = true;
  return outcome;
}

ProfileMaintenance::SeedOutcome ProfileMaintenance::SeedFromPredictions(
    profile::EnergyProfile* profile, const ProfilePredictor& predictor,
    const profile::FeatureVector& features, double threshold, SimTime now) {
  SeedOutcome outcome;
  if (!features.valid) return outcome;
  double ignorance_sum = 0.0;
  for (int i = 1; i < profile->size(); ++i) {
    const ProfilePredictor::Prediction p = predictor.Predict(i, features);
    ignorance_sum += p.ignorance;
    if (p.ignorance <= threshold && p.perf_score > 0.0) {
      const bool was_stale = profile->config(i).force_stale;
      profile->Record(i, p.power_w, p.perf_score, now);
      ++predictor_hits_;
      ++predictor_seeded_;
      if (was_stale) ++predictor_skipped_;
      ++outcome.seeded;
    } else {
      ++predictor_misses_;
      ++outcome.left_stale;
    }
  }
  const int n = profile->size() - 1;
  outcome.mean_ignorance =
      n > 0 ? ignorance_sum / static_cast<double>(n) : 1.0;
  last_mean_ignorance_ = outcome.mean_ignorance;
  return outcome;
}

std::vector<int> ProfileMaintenance::PickForReevaluation(
    const profile::EnergyProfile& profile, SimTime now) {
  std::vector<int> picks;
  if (!params_.enable_multiplexed) return picks;
  const std::vector<int> stale = profile.StaleConfigs(now, params_.stale_age);
  if (stale.empty()) {
    reeval_cursor_ = 0;
    return picks;
  }
  // Round-robin through the stale set so repeated calls make progress even
  // if earlier entries stay stale (e.g. evaluation was preempted).
  for (int i = 0; i < params_.evals_per_interval &&
                  i < static_cast<int>(stale.size());
       ++i) {
    picks.push_back(stale[(reeval_cursor_ + static_cast<size_t>(i)) % stale.size()]);
  }
  reeval_cursor_ = (reeval_cursor_ + picks.size()) % std::max<size_t>(1, stale.size());
  return picks;
}

}  // namespace ecldb::ecl
