#ifndef ECLDB_ECL_SOCKET_ECL_H_
#define ECLDB_ECL_SOCKET_ECL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include <memory>

#include "common/types.h"
#include "ecl/profile_maintenance.h"
#include "ecl/profile_predictor.h"
#include "ecl/rti_controller.h"
#include "ecl/system_ecl.h"
#include "ecl/utilization_controller.h"
#include "hwsim/machine.h"
#include "profile/energy_profile.h"
#include "sim/simulator.h"

namespace ecldb::ecl {

struct SocketEclParams {
  /// Base interval of the socket-level ECL (1 Hz in the paper; the
  /// evaluation also uses 2 Hz = 500 ms).
  SimDuration interval = Seconds(1);
  UtilizationControllerParams utilization;
  RtiControllerParams rti;
  ProfileMaintenanceParams maintenance;
  /// Learned profile predictor (off by default): on drift, the profile is
  /// seeded from kNN predictions over work-profile features and the
  /// multiplexed evaluator only measures configurations whose ignorance
  /// exceeds the threshold — a recurring workload re-converges after a
  /// handful of confirming measurements instead of a full sweep.
  ProfilePredictorParams predictor;
  /// Counter measurement window for profile (re)evaluation; found by the
  /// meta calibration (paper Fig. 12: 100 ms).
  SimDuration measure_time = Millis(100);
  /// Excludes the idle-polling instructions of workless active threads
  /// from the measured performance level. The paper's currency counts all
  /// instructions retired, so a consolidated receiver socket running many
  /// mostly-idle threads overstates its demand — the poll loops retire
  /// instructions at full rate — which keeps the configuration wider than
  /// the real work needs. With this set, the demand estimate tracks work
  /// actually processed. Off by default (the paper's literal signal).
  bool exclude_poll_instructions = false;
  /// Optional telemetry context: control-state gauges, tick spans with
  /// the decision reason, and drift/park instants.
  telemetry::Telemetry* telemetry = nullptr;
};

/// One socket-level ECL (paper Section 5.1): a reactive control loop,
/// executed periodically, that (1) determines the socket's performance
/// demand from worker utilization, (2) applies the most energy-efficient
/// configuration for that demand from its energy profile, (3) runs the
/// race-to-idle controller in the under-utilization zone, and (4) keeps
/// the energy profile fresh through online and multiplexed adaptation.
class SocketEcl {
 public:
  /// `util_source` returns the socket's worker utilization since the last
  /// call (Engine::TakeSocketUtilization). `system` may be null (no
  /// latency constraint — pressure 0).
  SocketEcl(sim::Simulator* simulator, hwsim::Machine* machine, SocketId socket,
            profile::EnergyProfile profile, SystemEcl* system,
            std::function<double()> util_source, const SocketEclParams& params);

  void Start();
  void Stop();

  SocketId socket() const { return socket_; }
  profile::EnergyProfile& profile() { return profile_; }
  const profile::EnergyProfile& profile() const { return profile_; }
  ProfileMaintenance& maintenance() { return maintenance_; }
  /// Non-null iff the learned predictor was enabled in the params.
  ProfilePredictor* predictor() { return predictor_.get(); }

  double performance_level() const { return perf_level_; }
  /// performance_level() relative to the profile's peak score (0 while
  /// the profile has no peak): the socket's relative load.
  double PerfLevelFrac() const {
    const double peak = profile_.PeakPerfScore();
    return peak > 0.0 ? perf_level_ / peak : 0.0;
  }
  int current_config_index() const { return current_index_; }
  double last_utilization() const { return last_utilization_; }
  /// Measured performance level (instr/s) of the last finished interval,
  /// after the optional poll-instruction exclusion.
  double last_measured_rate() const { return last_measured_rate_; }
  int64_t ticks() const { return ticks_; }

  /// Declares a workload change (flags the profile for reevaluation);
  /// normally drift detection does this automatically.
  void FlagWorkloadChange() { maintenance_.FlagDrift(&profile_); }

  /// Consolidation hook: when set and returning true at a tick, the
  /// socket is parked — it homes no partitions, so the loop holds the
  /// idle configuration (letting the firmware reach the deep package
  /// C-state) and skips control and adaptation until partitions return.
  void SetParkCheck(std::function<bool()> parked) {
    park_check_ = std::move(parked);
  }
  /// True while the last tick parked the socket.
  bool parked() const { return parked_; }

  /// Consolidation hook: returns the socket's queued-but-unserved work
  /// (Scheduler::BacklogOps). The utilization signal is measured relative
  /// to the *active* workers, so a socket whose threads are all asleep
  /// reads utilization 0 even while work queues up — with dynamic
  /// placement that state is reachable (stale routed arrivals, migration
  /// copy work land on a drained socket). When set, a tick whose backlog
  /// exceeds what the offered level could drain in about one interval
  /// treats the socket as saturated and drains at peak (race-to-idle)
  /// instead of decaying further.
  void SetBacklogCheck(std::function<double()> backlog) {
    backlog_check_ = std::move(backlog);
  }

 private:
  void Tick();
  /// Drift response: invalidate the profile and — with the predictor on —
  /// arm a deferred seeding pass so only high-ignorance configurations
  /// need real multiplexed measurements.
  void HandleDrift(SimTime now);
  /// Seeds the invalidated profile from predictions for the current
  /// feature snapshot (deferred from HandleDrift by one interval).
  void RunPendingSeed(SimTime now);
  void ApplyConfig(int index);
  void ApplyIdle();
  /// Schedules one evaluation (apply/settle/measure/record) starting at
  /// `at`; events are guarded by the current generation.
  void ScheduleEvaluation(SimTime at, int index, int64_t gen);
  void ScheduleRti(SimTime from, SimTime until, const RtiController::Plan& plan,
                   int64_t gen);
  uint64_t ReadSocketEnergyUj() const;

  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  SocketId socket_;
  profile::EnergyProfile profile_;
  SystemEcl* system_;
  std::function<double()> util_source_;
  SocketEclParams params_;

  UtilizationController util_controller_;
  RtiController rti_controller_;
  ProfileMaintenance maintenance_;
  std::unique_ptr<ProfilePredictor> predictor_;
  profile::FeatureVector last_features_;
  /// Seeding writes predictions through EnergyProfile::Record; the hook
  /// is muted so the predictor never re-trains on its own output.
  bool record_hook_muted_ = false;
  /// Set by HandleDrift; the next interval tick runs the seeding pass
  /// with its clean post-switch feature snapshot.
  bool pending_seed_ = false;

  bool running_ = false;
  int64_t generation_ = 0;
  int64_t ticks_ = 0;
  std::function<bool()> park_check_;
  std::function<double()> backlog_check_;
  bool parked_ = false;
  double perf_level_ = 0.0;
  int current_index_ = -1;
  RtiController::Plan last_plan_;
  double last_utilization_ = 0.0;
  double last_measured_rate_ = 0.0;
  int trace_lane_ = 0;  // "ecl/socket{S}" lane when telemetry is attached

  /// Online-adaptation measurement state for the running interval.
  bool interval_clean_ = false;
  int interval_config_ = -1;
  uint64_t interval_e0_uj_ = 0;
  uint64_t interval_i0_ = 0;
  uint64_t interval_poll0_ = 0;
  double interval_bytes0_ = 0.0;
  SimTime interval_t0_ = 0;

  /// RTI active-phase accumulators: during race-to-idle the queued work
  /// concentrates into the active windows, so they measure the applied
  /// configuration at effectively full load (online adaptation input).
  uint64_t rti_phase_e0_uj_ = 0;
  uint64_t rti_phase_i0_ = 0;
  SimTime rti_phase_t0_ = 0;
  double rti_active_energy_uj_ = 0.0;
  double rti_active_instr_ = 0.0;
  SimDuration rti_active_time_ = 0;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_SOCKET_ECL_H_
