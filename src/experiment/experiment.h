#ifndef ECLDB_EXPERIMENT_EXPERIMENT_H_
#define ECLDB_EXPERIMENT_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "ecl/ecl.h"
#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/driver.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

namespace ecldb::experiment {

/// Which controller rules the hardware during a run.
enum class ControlMode {
  kBaseline,  // all threads on, CPU/OS frequency control (race-to-idle)
  kEcl,       // the hierarchical Energy-Control Loop
};

struct RunOptions {
  hwsim::MachineParams machine = hwsim::MachineParams::HaswellEp();
  ControlMode mode = ControlMode::kEcl;
  ecl::EclParams ecl;
  engine::EngineParams engine;
  /// ECL runs warm up under synthetic saturation for this long so energy
  /// profiles are primed before measurement begins (the paper's profiles
  /// are "continuously maintained at runtime"; experiments start warm).
  SimDuration prime_duration = Seconds(30);
  /// Spacing of the recorded time series.
  SimDuration sample_period = Millis(500);
  uint64_t driver_seed = 4242;
  /// Capacity override in queries/s; 0 derives the all-on baseline
  /// capacity from the performance model.
  double capacity_qps = 0.0;
  /// Steady-state fast-forward of the simulation kernel. Guaranteed
  /// bit-identical results either way (see docs/architecture.md); off
  /// exists for determinism tests and debugging.
  bool fast_forward = true;
  /// Optional telemetry context for the run. The experiment binds it to
  /// the run's simulator, propagates it through every layer (machine,
  /// engine, ECL), registers the experiment-level `exp/*` gauges on it
  /// and samples them over the measured window into RunResult::series.
  /// Without one, the `exp/*` gauges go on a run-local telemetry no layer
  /// sees. Must be enabled and sample at `sample_period` (the runner
  /// checks both). Must outlive the call; afterwards only its *value*
  /// state is safe to read (series, trace events, and the dump captured
  /// in RunResult::telemetry_dump) — gauges reference run-local objects.
  /// Each concurrent RunMatrix arm needs its own instance.
  telemetry::Telemetry* telemetry = nullptr;
};

struct RunResult {
  double duration_s = 0.0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double capacity_qps = 0.0;
  int64_t submitted = 0;
  int64_t completed = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Fraction of queries above the latency limit.
  double violation_frac = 0.0;
  /// The `exp/*` gauge series (Figs. 11, 13-15), one row per sample
  /// period: t_s, offered_qps, rapl_power_w, latency_window_ms,
  /// active_threads, perf_level_frac (mean over sockets, relative to
  /// peak), utilization (mean over sockets, ECL view), and per socket
  /// socket{S}/power_w (package + DRAM) and socket{S}/partitions. With
  /// caller telemetry, the other layers' gauges are columns too.
  telemetry::Series series;
  /// Most energy-efficient configuration found by socket 0's ECL
  /// (empty string for baseline runs).
  std::string best_config;
  /// Live migrations completed during the run (0 unless consolidation or
  /// an explicit migration was active).
  int64_t migrations = 0;
  /// Consolidation policy counters (0 when the policy is disabled).
  int64_t consolidation_moves = 0;
  int64_t spread_moves = 0;
  /// Shard bytes moved by completed migrations.
  double migration_bytes = 0.0;
  /// In-flight messages forwarded after their partition moved away.
  int64_t stale_forwards = 0;
  /// Deterministic metric-registry dump captured at the end of the run
  /// (empty unless RunOptions::telemetry was set). Safe to compare after
  /// the run's objects are gone.
  std::string telemetry_dump;
};

/// Builds a workload against a fresh engine.
using WorkloadFactory =
    std::function<std::unique_ptr<workload::Workload>(engine::Engine*)>;

/// Runs one end-to-end load experiment: fresh machine + engine + workload,
/// optional ECL priming, then the load profile, recording energy, latency
/// statistics and a time series. Deterministic for fixed options.
RunResult RunLoadExperiment(const WorkloadFactory& factory,
                            const workload::LoadProfile& profile,
                            const RunOptions& options);

/// Convenience: relative energy saving of `ecl` vs `baseline` in percent.
inline double SavingsPercent(const RunResult& baseline, const RunResult& ecl) {
  return 100.0 * (1.0 - ecl.energy_j / baseline.energy_j);
}

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_EXPERIMENT_H_
