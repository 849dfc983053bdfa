#include "loadgen/admission.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace ecldb::loadgen {

/// Horizon of the recent-shed-fraction window the ECL feedback reads.
constexpr SimDuration kShedWindow = Seconds(3);
static_assert(kShedWindow >= Seconds(1));

TokenBucket::TokenBucket(double rate_qps, double burst)
    : rate_qps_(rate_qps),
      burst_(burst > 0.0 ? burst : rate_qps),
      tokens_(burst_) {}

double TokenBucket::Refilled(SimTime now) const {
  if (rate_qps_ <= 0.0) return tokens_;
  return std::min(burst_,
                  tokens_ + rate_qps_ * ToSeconds(now - last_));
}

bool TokenBucket::TryTake(SimTime now) {
  if (rate_qps_ <= 0.0) return true;
  tokens_ = Refilled(now);
  last_ = now;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::tokens(SimTime now) const { return Refilled(now); }

namespace {

std::array<TokenBucket, kNumSloClasses> MakeBuckets(
    const AdmissionParams& params) {
  return {TokenBucket(params.classes[0].bucket_rate_qps,
                      params.classes[0].bucket_burst),
          TokenBucket(params.classes[1].bucket_rate_qps,
                      params.classes[1].bucket_burst),
          TokenBucket(params.classes[2].bucket_rate_qps,
                      params.classes[2].bucket_burst)};
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionParams& params)
    : params_(params), buckets_(MakeBuckets(params)) {
  for (const ClassAdmissionParams& c : params_.classes) {
    ECLDB_CHECK(c.shed_full > c.shed_onset);
  }
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    for (int i = 0; i < kNumSloClasses; ++i) {
      const std::string cls(SloClassName(static_cast<SloClass>(i)));
      admitted_counters_[static_cast<size_t>(i)] =
          telemetry::MakeCounter(tel, "admission/" + cls + "/admitted");
      shed_counters_[static_cast<size_t>(i)] =
          telemetry::MakeCounter(tel, "admission/" + cls + "/shed");
    }
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("admission/admitted", [this] { return total_admitted(); });
    reg.AddCounterFn("admission/shed", [this] { return total_shed(); });
    reg.AddGauge("admission/shed_fraction", [this, tel] {
      return RecentShedFraction(tel->now());
    });
    reg.AddGauge("admission/shed_qps",
                 [this, tel] { return RecentShedQps(tel->now()); });
  }
}

bool AdmissionController::Admit(SloClass c, SimTime now, Rng& rng) {
  const size_t i = static_cast<size_t>(c);
  bool admit = buckets_[i].TryTake(now);
  if (admit) {
    const ClassAdmissionParams& cp = params_.classes[i];
    const double pressure =
        pressure_source_ ? pressure_source_() : 0.0;
    last_pressure_ = pressure;
    if (pressure > cp.shed_onset) {
      const double shed_prob = std::clamp(
          (pressure - cp.shed_onset) / (cp.shed_full - cp.shed_onset), 0.0,
          1.0);
      // The coin comes from the tenant's own stream, so the decision
      // sequence is a pure function of the seed and the pressure series.
      if (rng.NextBool(shed_prob)) admit = false;
    }
  }
  if (admit) {
    ++admitted_[i];
    admitted_counters_[i].Increment();
  } else {
    ++shed_[i];
    shed_counters_[i].Increment();
  }
  RecordDecision(now, admit);
  return admit;
}

void AdmissionController::RecordDecision(SimTime now, bool admitted_decision) {
  const SimTime bucket_start = now - now % Seconds(1);
  if (window_.empty() || window_.back().start != bucket_start) {
    WindowBucket b;
    b.start = bucket_start;
    window_.push_back(b);
  }
  if (admitted_decision) {
    ++window_.back().admitted;
  } else {
    ++window_.back().shed;
  }
  PruneWindow(now);
}

void AdmissionController::PruneWindow(SimTime now) const {
  const SimTime horizon = now - kShedWindow;
  while (!window_.empty() && window_.front().start + Seconds(1) <= horizon) {
    window_.pop_front();
  }
}

double AdmissionController::RecentShedFraction(SimTime now) const {
  PruneWindow(now);
  int64_t admitted_total = 0;
  int64_t shed_total = 0;
  for (const WindowBucket& b : window_) {
    admitted_total += b.admitted;
    shed_total += b.shed;
  }
  const int64_t total = admitted_total + shed_total;
  return total > 0 ? static_cast<double>(shed_total) /
                         static_cast<double>(total)
                   : 0.0;
}

double AdmissionController::RecentShedQps(SimTime now) const {
  PruneWindow(now);
  int64_t shed_total = 0;
  for (const WindowBucket& b : window_) shed_total += b.shed;
  return static_cast<double>(shed_total) / ToSeconds(kShedWindow);
}

void AdmissionController::ResetRunStats() {
  admitted_ = {0, 0, 0};
  shed_ = {0, 0, 0};
  window_.clear();
}

int64_t AdmissionController::total_admitted() const {
  int64_t total = 0;
  for (int64_t a : admitted_) total += a;
  return total;
}

int64_t AdmissionController::total_shed() const {
  int64_t total = 0;
  for (int64_t s : shed_) total += s;
  return total;
}

}  // namespace ecldb::loadgen
