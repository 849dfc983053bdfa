#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace ecldb {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::Reset() { *this = StreamingStats(); }

double StreamingStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void PercentileTracker::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void PercentileTracker::Clear() {
  samples_.clear();
  sorted_ = true;
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double PercentileTracker::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double PercentileTracker::Max() const {
  double m = 0.0;
  for (double s : samples_) m = std::max(m, s);
  return m;
}

double PercentileTracker::FractionAbove(double threshold) const {
  if (samples_.empty()) return 0.0;
  size_t n = 0;
  for (double s : samples_) {
    if (s > threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(samples_.size());
}

void SlidingWindow::Add(SimTime t, double value) {
  samples_.push_back({t, value});
  while (!samples_.empty() && samples_.front().t < t - horizon_) {
    samples_.pop_front();
  }
}

void SlidingWindow::Clear() { samples_.clear(); }

double SlidingWindow::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const Sample& s : samples_) sum += s.value;
  return sum / static_cast<double>(samples_.size());
}

double SlidingWindow::SlopePerSecond() const {
  const size_t n = samples_.size();
  if (n < 2) return 0.0;
  // Least squares over (t in seconds, value).
  double st = 0.0, sv = 0.0, stt = 0.0, stv = 0.0;
  const SimTime t0 = samples_.front().t;
  for (const Sample& s : samples_) {
    const double t = ToSeconds(s.t - t0);
    st += t;
    sv += s.value;
    stt += t * t;
    stv += t * s.value;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * stt - st * st;
  if (denom <= 1e-12) return 0.0;
  return (dn * stv - st * sv) / denom;
}

}  // namespace ecldb
