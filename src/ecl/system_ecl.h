#ifndef ECLDB_ECL_SYSTEM_ECL_H_
#define ECLDB_ECL_SYSTEM_ECL_H_

#include <functional>

#include "common/types.h"
#include "engine/query.h"
#include "sim/simulator.h"

namespace ecldb::ecl {

struct SystemEclParams {
  /// Monitoring interval of the system-level ECL.
  SimDuration interval = Millis(500);
  /// The user-defined query latency limit (soft constraint).
  double latency_limit_ms = 100.0;
  /// Estimated times-until-violation below this horizon raise pressure
  /// towards 1. Varied by SystemEclTest.RisingTrendRaisesPressure.
  double pressure_horizon_s = 3.0;
};

/// The system-level ECL (paper Section 5.2): monitors the average query
/// latency — the only globally meaningful metric — estimates its trend,
/// and derives the time until the user-defined latency limit would be
/// violated. This is distilled into a latency *pressure* in [0, 1] the
/// socket-level ECLs consume: it raises their discovery aggressiveness at
/// full utilization and curbs (ultimately disables) RTI idling.
class SystemEcl {
 public:
  SystemEcl(sim::Simulator* simulator, const engine::LatencyTracker* latency,
            const SystemEclParams& params);

  /// Starts periodic monitoring.
  void Start();
  void Stop() { running_ = false; }

  double pressure() const { return pressure_; }
  /// Estimated seconds until the latency limit is violated (infinity when
  /// the trend is flat or falling, 0 when already violated).
  double time_to_violation_s() const { return ttv_s_; }
  double latency_limit_ms() const { return params_.latency_limit_ms; }

  /// Recomputes pressure immediately (also called by the periodic tick).
  void Update();

  /// Reduced-demand feedback from admission control: a callable returning
  /// the recent shed fraction in [0, 1]. Unset (the default, and every
  /// non-loadgen experiment) leaves Update() exactly as before.
  void SetShedSignal(std::function<double()> signal) {
    shed_signal_ = std::move(signal);
  }

 private:
  void Tick(int64_t epoch);

  sim::Simulator* simulator_;
  const engine::LatencyTracker* latency_;
  SystemEclParams params_;
  std::function<double()> shed_signal_;
  bool running_ = false;
  /// Bumped on every Start so a Stop/Start cycle (node power-down and
  /// re-boot at cluster scope) cannot leave two tick chains running.
  int64_t start_epoch_ = 0;
  double pressure_ = 0.0;
  double ttv_s_ = 1e18;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_SYSTEM_ECL_H_
