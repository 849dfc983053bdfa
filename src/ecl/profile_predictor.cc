#include "ecl/profile_predictor.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace ecldb::ecl {

/// Neighbors consulted per prediction (distance-weighted kNN).
constexpr int kNeighbors = 3;
static_assert(kNeighbors >= 1);
/// Mean neighbor distance at which distance ignorance saturates to 1.
constexpr double kDistanceScale = 0.25;
/// Additional ignorance per missing neighbor (fraction of kNeighbors).
constexpr double kCountPenalty = 0.05;

ProfilePredictor::ProfilePredictor(int num_configs,
                                   const ProfilePredictorParams& params)
    : params_(params), num_configs_(num_configs) {
  ECLDB_CHECK(num_configs >= 1);
  ECLDB_CHECK(params.max_entries_per_config >= 1);
  cache_.resize(static_cast<size_t>(num_configs));
}

void ProfilePredictor::Observe(int config_index,
                               const profile::FeatureVector& features,
                               double power_w, double perf_score, SimTime at) {
  if (!features.valid || config_index <= 0 || config_index >= num_configs_) {
    return;
  }
  if (features.v[2] < kMinUtilization) return;
  std::vector<Observation>& bucket = cache_[static_cast<size_t>(config_index)];

  // Merge: a near-duplicate feature point carries the *newest* truth for
  // its neighborhood — replace it instead of accumulating history that a
  // drifted workload has invalidated.
  int nearest = -1;
  double nearest_d = params_.merge_radius;
  for (size_t i = 0; i < bucket.size(); ++i) {
    const double d = FeatureDistance(bucket[i].features, features);
    if (d <= nearest_d) {
      nearest_d = d;
      nearest = static_cast<int>(i);
    }
  }
  if (nearest >= 0) {
    bucket[static_cast<size_t>(nearest)] = {features, power_w, perf_score, at};
    return;
  }
  if (static_cast<int>(bucket.size()) >= params_.max_entries_per_config) {
    // Bounded cache: evict the oldest observation (ties by position).
    size_t oldest = 0;
    for (size_t i = 1; i < bucket.size(); ++i) {
      if (bucket[i].at < bucket[oldest].at) oldest = i;
    }
    bucket[oldest] = {features, power_w, perf_score, at};
    return;
  }
  bucket.push_back({features, power_w, perf_score, at});
  ++size_;
}

ProfilePredictor::Prediction ProfilePredictor::Predict(
    int config_index, const profile::FeatureVector& features) const {
  Prediction p;
  if (!features.valid || config_index <= 0 || config_index >= num_configs_) {
    return p;
  }
  const std::vector<Observation>& bucket =
      cache_[static_cast<size_t>(config_index)];
  if (bucket.empty()) return p;

  // Distances to every cached observation; k nearest with deterministic
  // tie-breaking by insertion order.
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(bucket.size());
  for (size_t i = 0; i < bucket.size(); ++i) {
    dist.emplace_back(FeatureDistance(bucket[i].features, features), i);
  }
  std::sort(dist.begin(), dist.end());
  const size_t k = std::min(dist.size(), static_cast<size_t>(kNeighbors));

  double wsum = 0.0, power = 0.0, perf = 0.0, dsum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const Observation& o = bucket[dist[i].second];
    const double w = 1.0 / (dist[i].first + 1e-3);
    wsum += w;
    power += w * o.power_w;
    perf += w * o.perf_score;
    dsum += w * dist[i].first;
  }
  p.power_w = power / wsum;
  p.perf_score = perf / wsum;

  // Ignorance: how far the evidence sits from the query, plus a penalty
  // for a thin neighborhood (fewer than k observations). The distance is
  // averaged with the same inverse-distance weights as the values, so it
  // tracks the evidence the prediction actually leans on: one on-point
  // observation means confidence even when the rest of the bucket belongs
  // to other work profiles, while a query between clusters (every
  // neighbor far) stays ignorant.
  const double mean_d = dsum / wsum;
  const double missing =
      static_cast<double>(kNeighbors - static_cast<int>(k)) /
      static_cast<double>(kNeighbors);
  p.ignorance = std::clamp(mean_d / kDistanceScale + kCountPenalty * missing,
                           0.0, 1.0);
  return p;
}

const std::vector<ProfilePredictor::Observation>& ProfilePredictor::entries(
    int config_index) const {
  ECLDB_CHECK(config_index >= 0 && config_index < num_configs_);
  return cache_[static_cast<size_t>(config_index)];
}

void ProfilePredictor::Clear() {
  for (auto& bucket : cache_) bucket.clear();
  size_ = 0;
}

std::string SerializeLearnCache(const ProfilePredictor& predictor,
                                uint64_t fingerprint) {
  std::ostringstream out;
  out << "ecldb-learncache v1 " << predictor.num_configs() << ' '
      << fingerprint << ' ' << profile::kFeatureDims << '\n';
  for (int c = 1; c < predictor.num_configs(); ++c) {
    for (const ProfilePredictor::Observation& o : predictor.entries(c)) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%d %.17g %.17g %.17g %.17g %.17g %.17g %" PRId64 "\n", c,
                    o.features.v[0], o.features.v[1], o.features.v[2],
                    o.features.v[3], o.power_w, o.perf_score, o.at);
      out << line;
    }
  }
  return out.str();
}

bool DeserializeLearnCache(std::string_view text, uint64_t fingerprint,
                           ProfilePredictor* predictor) {
  ECLDB_CHECK(predictor != nullptr);
  std::istringstream in{std::string(text)};
  std::string header;
  if (!std::getline(in, header)) return false;
  {
    std::istringstream head(header);
    std::string magic, version, rest;
    int num_configs = 0, dims = 0;
    uint64_t fp = 0;
    if (!(head >> magic >> version >> num_configs >> fp >> dims)) return false;
    if (head >> rest) return false;  // trailing junk in the header
    if (magic != "ecldb-learncache" || version != "v1") return false;
    if (num_configs != predictor->num_configs() || fp != fingerprint ||
        dims != profile::kFeatureDims) {
      return false;
    }
  }

  // Parse every record before touching the cache (all-or-nothing load).
  // Line-based so a truncated record fails instead of blending into the
  // end of the stream.
  struct Record {
    int config;
    ProfilePredictor::Observation obs;
  };
  std::vector<Record> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Record r;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "%d %lf %lf %lf %lf %lf %lf %" SCNd64 " %n",
                    &r.config, &r.obs.features.v[0], &r.obs.features.v[1],
                    &r.obs.features.v[2], &r.obs.features.v[3], &r.obs.power_w,
                    &r.obs.perf_score, &r.obs.at, &consumed) != 8 ||
        consumed != static_cast<int>(line.size())) {
      return false;
    }
    if (r.config <= 0 || r.config >= predictor->num_configs()) return false;
    if (r.obs.power_w < 0.0 || r.obs.perf_score < 0.0 || r.obs.at < 0) {
      return false;
    }
    for (double f : r.obs.features.v) {
      if (!std::isfinite(f) || f < 0.0 || f > 1.0) return false;
    }
    r.obs.features.valid = true;
    records.push_back(r);
  }

  predictor->Clear();
  for (const Record& rec : records) {
    predictor->Observe(rec.config, rec.obs.features, rec.obs.power_w,
                       rec.obs.perf_score, rec.obs.at);
  }
  return true;
}

}  // namespace ecldb::ecl
