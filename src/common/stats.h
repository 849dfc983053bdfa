#ifndef ECLDB_COMMON_STATS_H_
#define ECLDB_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"

namespace ecldb {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Collects samples and answers percentile queries. Intended for latency
/// distributions of a single experiment run (bounded sample count).
class PercentileTracker {
 public:
  void Add(double x);
  void Clear();

  size_t count() const { return samples_.size(); }
  /// Returns the p-th percentile (p in [0, 100]); 0 if empty.
  double Percentile(double p) const;
  double Mean() const;
  double Max() const;
  /// Fraction of samples strictly above the threshold.
  double FractionAbove(double threshold) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Sliding window over (time, value) samples; used by the system-level ECL
/// to estimate the current average query latency and its trend.
class SlidingWindow {
 public:
  /// Keeps samples no older than `horizon` relative to the newest sample.
  explicit SlidingWindow(SimDuration horizon) : horizon_(horizon) {}

  void Add(SimTime t, double value);
  void Clear();

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double Mean() const;
  /// Least-squares slope in value-units per second; 0 with <2 samples.
  double SlopePerSecond() const;

 private:
  struct Sample {
    SimTime t;
    double value;
  };

  SimDuration horizon_;
  std::deque<Sample> samples_;
};

}  // namespace ecldb

#endif  // ECLDB_COMMON_STATS_H_
