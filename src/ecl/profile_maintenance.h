#ifndef ECLDB_ECL_PROFILE_MAINTENANCE_H_
#define ECLDB_ECL_PROFILE_MAINTENANCE_H_

#include <vector>

#include "common/types.h"
#include "ecl/profile_predictor.h"
#include "profile/energy_profile.h"
#include "profile/feature_vector.h"

namespace ecldb::ecl {

struct ProfileMaintenanceParams {
  bool enable_online = true;
  bool enable_multiplexed = true;
  /// Measurements older than this are considered stale. Varied by
  /// ProfileMaintenanceTest.PicksStaleForReevaluation.
  SimDuration stale_age = Seconds(120);
  /// Stale configurations reevaluated per ECL interval while multiplexed
  /// adaptation is active. Varied by the same test.
  int evals_per_interval = 6;
};

/// Maintains the energy profile at runtime (paper Section 5.1):
///
///  * Online adaptation: every interval the applied configuration ran
///    un-interrupted, its measured power/performance replaces the stored
///    values — free of overhead but only covers applied configurations.
///  * Multiplexed adaptation: when a high drift is detected (or entries
///    are stale), stale configurations are reevaluated in small batches,
///    borrowing the interval time the RTI controller would have idled.
class ProfileMaintenance {
 public:
  explicit ProfileMaintenance(const ProfileMaintenanceParams& params)
      : params_(params) {}

  struct OnlineOutcome {
    bool recorded = false;
    bool drift_detected = false;
  };

  /// Feeds an online measurement of configuration `index` (measured over a
  /// full interval with no RTI idling). Detects drift against the stored
  /// values before replacing them.
  OnlineOutcome RecordOnline(profile::EnergyProfile* profile, int index,
                             double power_w, double perf_score, SimTime now);

  /// Configurations to reevaluate in the upcoming interval (empty when
  /// multiplexed adaptation is off or nothing is stale).
  std::vector<int> PickForReevaluation(const profile::EnergyProfile& profile,
                                       SimTime now);

  /// Declares a workload change: flags the whole profile for multiplexed
  /// reevaluation.
  void FlagDrift(profile::EnergyProfile* profile) {
    profile->InvalidateAll();
    ++drift_flags_;
  }

  /// Number of drift events flagged (experiments use deltas of this to
  /// attribute adaptation work to a workload switch).
  int64_t drift_flags() const { return drift_flags_; }

  struct SeedOutcome {
    /// Configurations recorded from predictions (now fresh again).
    int seeded = 0;
    /// Configurations whose ignorance exceeded the threshold; they stay
    /// stale and the multiplexed evaluator measures them for real.
    int left_stale = 0;
    double mean_ignorance = 1.0;
  };

  /// Learned adaptation (ROADMAP item 3): after FlagDrift invalidated the
  /// profile, seeds every configuration whose prediction for `features`
  /// has ignorance <= `threshold` — a recurring work profile then
  /// re-converges after the handful of high-ignorance measurements
  /// instead of a full ~|profile| multiplexed sweep. The skyline /
  /// FindForDemand / zone logic runs unchanged on the seeded values.
  SeedOutcome SeedFromPredictions(profile::EnergyProfile* profile,
                                  const ProfilePredictor& predictor,
                                  const profile::FeatureVector& features,
                                  double threshold, SimTime now);

  int64_t online_updates() const { return online_updates_; }
  int64_t multiplexed_evals() const { return multiplexed_evals_; }
  void CountMultiplexedEval() { ++multiplexed_evals_; }
  /// Online measurements rejected as sensor failures (non-positive power:
  /// a frozen RAPL counter during a sensor dropout).
  int64_t discarded_measurements() const { return discarded_measurements_; }
  void CountDiscardedMeasurement() { ++discarded_measurements_; }

  /// Predictor statistics (telemetry: ecl/socketN/predictor_*).
  int64_t predictor_hits() const { return predictor_hits_; }
  int64_t predictor_misses() const { return predictor_misses_; }
  int64_t predictor_seeded_configs() const { return predictor_seeded_; }
  int64_t predictor_measurements_skipped() const { return predictor_skipped_; }
  /// Mean ignorance of the last seeding pass (1 before any pass).
  double last_mean_ignorance() const { return last_mean_ignorance_; }

  const ProfileMaintenanceParams& params() const { return params_; }
  /// Toggles the strategies at runtime (experiments prime the profile with
  /// adaptation enabled, then freeze it for the "ECL static" arm).
  void SetEnabled(bool online, bool multiplexed) {
    params_.enable_online = online;
    params_.enable_multiplexed = multiplexed;
  }

 private:
  ProfileMaintenanceParams params_;
  int64_t online_updates_ = 0;
  int64_t multiplexed_evals_ = 0;
  int64_t discarded_measurements_ = 0;
  int64_t drift_flags_ = 0;
  int64_t predictor_hits_ = 0;
  int64_t predictor_misses_ = 0;
  int64_t predictor_seeded_ = 0;
  int64_t predictor_skipped_ = 0;
  double last_mean_ignorance_ = 1.0;
  size_t reeval_cursor_ = 0;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_PROFILE_MAINTENANCE_H_
