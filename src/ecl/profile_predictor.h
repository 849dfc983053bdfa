#ifndef ECLDB_ECL_PROFILE_PREDICTOR_H_
#define ECLDB_ECL_PROFILE_PREDICTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "profile/feature_vector.h"

namespace ecldb::ecl {

/// Seed a configuration from its prediction only when the ignorance is at
/// or below this; above it the configuration stays stale and the
/// multiplexed evaluator measures it for real.
inline constexpr double kIgnoranceThreshold = 0.15;
/// Feature snapshots from intervals below this utilization are discarded
/// (idle intervals do not describe the workload).
inline constexpr double kMinUtilization = 0.05;

struct ProfilePredictorParams {
  /// Master switch. Off by default: every paper figure runs the paper's
  /// exhaustive multiplexed rediscovery unchanged.
  bool enabled = false;
  /// Learn-cache bound per configuration; the oldest observation is
  /// evicted when a configuration's bucket is full. Varied by
  /// ProfilePredictorTest.EvictsOldestWhenBucketFull.
  int max_entries_per_config = 8;
  /// An observation closer than this to an existing one replaces it
  /// instead of growing the bucket (the cache tracks the newest
  /// measurement per feature neighborhood, AQO-style). Varied by the same
  /// test.
  double merge_radius = 0.03;
};

/// Online learned model of (work-profile features, configuration) ->
/// (power, performance), fed from every energy-profile measurement and
/// queried on workload drift to seed the invalidated profile (ROADMAP
/// item 3, after postgrespro/aqo's learn-cache + ignorance loop).
///
/// Storage is a bounded per-configuration bucket of observations; lookup
/// is distance-weighted kNN over the feature space with an explicit
/// ignorance score, so the caller can distinguish "seen this workload
/// before" from extrapolation. Everything is deterministic: ties are
/// broken by insertion order.
class ProfilePredictor {
 public:
  struct Observation {
    profile::FeatureVector features;
    double power_w = 0.0;
    double perf_score = 0.0;
    SimTime at = 0;
  };

  struct Prediction {
    double power_w = 0.0;
    double perf_score = 0.0;
    /// 0 = confident (near neighbors, full k), 1 = no basis at all.
    double ignorance = 1.0;
  };

  /// `num_configs` is the energy profile's size (index 0 = idle is never
  /// observed or predicted).
  ProfilePredictor(int num_configs, const ProfilePredictorParams& params);

  /// Records one measurement of `config_index` taken while the workload
  /// looked like `features`. Invalid features are ignored.
  void Observe(int config_index, const profile::FeatureVector& features,
               double power_w, double perf_score, SimTime at);

  /// Predicts (power, performance) of `config_index` for the workload
  /// described by `features`.
  Prediction Predict(int config_index,
                     const profile::FeatureVector& features) const;

  int num_configs() const { return num_configs_; }
  /// Total observations currently cached.
  int64_t size() const { return size_; }
  /// Observations of one configuration, oldest-insertion first.
  const std::vector<Observation>& entries(int config_index) const;

  void Clear();

 private:
  ProfilePredictorParams params_;
  int num_configs_;
  std::vector<std::vector<Observation>> cache_;  // [config_index]
  int64_t size_ = 0;
};

/// Serializes the learn-cache so experiments (and a DBMS restart) can
/// prime a trained predictor. Companion of the profile serialization
/// format (line-based, all-or-nothing load); `fingerprint` must be the
/// LearnCacheFingerprint of the profile the predictor belongs to and the
/// machine shape it was trained on (a cache from a different node shape
/// must be rejected, not silently loaded).
///
/// Format:
///   ecldb-learncache v1 <num_configs> <fingerprint> <feature_dims>
///   <config> <f0> .. <f3> <power_w> <perf_score> <at_ns>
///   ...
std::string SerializeLearnCache(const ProfilePredictor& predictor,
                                uint64_t fingerprint);

/// Loads a serialized learn-cache. Returns false (leaving the predictor
/// untouched) when the header, fingerprint, dimensionality, or any record
/// is invalid.
bool DeserializeLearnCache(std::string_view text, uint64_t fingerprint,
                           ProfilePredictor* predictor);

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_PROFILE_PREDICTOR_H_
