#ifndef ECLDB_ECL_OS_GOVERNOR_H_
#define ECLDB_ECL_OS_GOVERNOR_H_

#include "common/types.h"
#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"

namespace ecldb::ecl {

struct OsGovernorParams {
  /// Sampling interval (Linux ondemand default order of magnitude).
  SimDuration interval = Millis(100);
  /// The OS measures utilization as C0 (non-idle) residency. A
  /// data-oriented DBMS polls its message queues, so its threads never
  /// block: the OS sees 100 % utilization no matter the query load
  /// (paper Section 1: "hardware and operating system have almost no
  /// chance to appropriately configure the energy-related tuning knobs").
  /// Set false to model a hypothetical *blocking* DBMS whose idle threads
  /// actually sleep, giving the governor a usable signal.
  bool sees_polling_as_busy = true;
};

/// An operating-system CPU-frequency governor (ondemand-style): samples
/// utilization and scales the core frequency of all (always-active)
/// threads; the uncore clock stays in the hardware's automatic mode.
/// This is what a DBMS without integrated energy control gets.
class OsGovernor {
 public:
  OsGovernor(sim::Simulator* simulator, engine::Engine* engine,
             const OsGovernorParams& params);

  void Start();
  void Stop() { running_ = false; }

  double last_utilization() const { return last_util_; }
  double current_freq_ghz() const { return freq_ghz_; }

 private:
  void Tick();
  void Apply(double freq_ghz);

  sim::Simulator* simulator_;
  engine::Engine* engine_;
  OsGovernorParams params_;
  bool running_ = false;
  double last_util_ = 0.0;
  double freq_ghz_ = 0.0;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_OS_GOVERNOR_H_
