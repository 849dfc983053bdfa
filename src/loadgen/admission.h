#ifndef ECLDB_LOADGEN_ADMISSION_H_
#define ECLDB_LOADGEN_ADMISSION_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "loadgen/slo.h"
#include "telemetry/telemetry.h"

namespace ecldb::loadgen {

/// Classic token bucket in virtual time: refills continuously at
/// `rate_qps`, holds at most `burst` tokens, admits while a token is
/// available. rate_qps <= 0 disables the bucket (always admits).
class TokenBucket {
 public:
  TokenBucket(double rate_qps, double burst);

  bool TryTake(SimTime now);
  double tokens(SimTime now) const;

 private:
  double Refilled(SimTime now) const;

  double rate_qps_;
  double burst_;
  double tokens_;
  SimTime last_ = 0;
};

/// Per-class admission policy.
struct ClassAdmissionParams {
  /// Token-bucket rate cap (queries/s); 0 = uncapped. Experiment drivers
  /// usually express this relative to capacity and fill it in.
  double bucket_rate_qps = 0.0;
  /// Bucket depth in tokens; 0 = one second at the rate cap.
  double bucket_burst = 0.0;
  /// System pressure where probabilistic shedding starts / reaches 100 %.
  /// Pressure is in [0, 1], so an onset above 1 means "never shed" — the
  /// premium default.
  double shed_onset = 1.1;
  double shed_full = 1.3;
};

struct AdmissionParams {
  /// Indexed by SloClass: premium is never pressure-shed by default,
  /// standard sheds late, best-effort sheds first.
  std::array<ClassAdmissionParams, kNumSloClasses> classes = {
      ClassAdmissionParams{0.0, 0.0, 1.1, 1.3},
      ClassAdmissionParams{0.0, 0.0, 0.70, 0.95},
      ClassAdmissionParams{0.0, 0.0, 0.45, 0.75},
  };
  /// Optional telemetry: admission/{admitted,shed} totals, per-class
  /// admission/<class>/{admitted,shed} counters, and the
  /// admission/shed_fraction gauge. Registered only by loadgen runs.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Admission control at the system entrance: a per-class token bucket
/// (hard rate cap) plus pressure-driven probabilistic shedding, degrading
/// best-effort before standard before premium. Refused queries never reach
/// the engine — the shed rate is demand the ECL no longer sees, which is
/// exactly how shedding turns into measured energy savings.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionParams& params);

  /// Pressure source consulted per decision (usually SystemEcl::pressure
  /// or the max over a cluster's node pressures). Unset = pressure 0.
  void SetPressureSource(std::function<double()> source) {
    pressure_source_ = std::move(source);
  }

  /// Decides one arrival of class `c` at virtual time `now`. The shed coin
  /// is drawn from `rng` (the tenant's stream) so decisions are
  /// deterministic per seed.
  bool Admit(SloClass c, SimTime now, Rng& rng);

  int64_t admitted(SloClass c) const {
    return admitted_[static_cast<size_t>(c)];
  }
  int64_t shed(SloClass c) const { return shed_[static_cast<size_t>(c)]; }
  int64_t total_admitted() const;
  int64_t total_shed() const;

  /// Fraction of arrivals shed over the recent window ending at `now` —
  /// the reduced-demand signal the system ECL folds into its pressure.
  double RecentShedFraction(SimTime now) const;
  /// Shed arrivals per second over the same window.
  double RecentShedQps(SimTime now) const;

  double last_pressure() const { return last_pressure_; }

  /// Clears run counters and the recent window (telemetry counters stay
  /// monotonic, as everywhere else).
  void ResetRunStats();

 private:
  struct WindowBucket {
    SimTime start = 0;
    int64_t admitted = 0;
    int64_t shed = 0;
  };

  void RecordDecision(SimTime now, bool admitted_decision);
  void PruneWindow(SimTime now) const;

  AdmissionParams params_;
  std::function<double()> pressure_source_;
  std::array<TokenBucket, kNumSloClasses> buckets_;
  std::array<int64_t, kNumSloClasses> admitted_ = {0, 0, 0};
  std::array<int64_t, kNumSloClasses> shed_ = {0, 0, 0};
  std::array<telemetry::Counter, kNumSloClasses> admitted_counters_;
  std::array<telemetry::Counter, kNumSloClasses> shed_counters_;
  double last_pressure_ = 0.0;
  /// 1-second buckets over the recent window (pruned lazily; mutable so
  /// the read-side accessors stay const).
  mutable std::deque<WindowBucket> window_;
};

}  // namespace ecldb::loadgen

#endif  // ECLDB_LOADGEN_ADMISSION_H_
