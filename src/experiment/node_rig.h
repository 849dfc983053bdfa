#ifndef ECLDB_EXPERIMENT_NODE_RIG_H_
#define ECLDB_EXPERIMENT_NODE_RIG_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/types.h"
#include "ecl/ecl.h"
#include "ecl/os_governor.h"
#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/workload.h"

namespace ecldb::experiment {

class RunSampler;
struct RunResult;

/// Which controller rules the hardware during a run.
enum class ControlMode {
  kBaseline,    // all threads on, CPU/OS frequency control (race-to-idle)
  kEcl,         // the hierarchical Energy-Control Loop
  kOsGovernor,  // an OS ondemand-style core-frequency governor
};

struct RunOptions {
  hwsim::MachineParams machine = hwsim::MachineParams::HaswellEp();
  ControlMode mode = ControlMode::kEcl;
  ecl::EclParams ecl;
  /// The governor of kOsGovernor runs (polling or blocking DBMS).
  ecl::OsGovernorParams os_governor;
  engine::EngineParams engine;
  /// ECL runs warm up under synthetic saturation for this long so energy
  /// profiles are primed before measurement begins (the paper's profiles
  /// are "continuously maintained at runtime"; experiments start warm).
  SimDuration prime_duration = Seconds(30);
  /// Spacing of the recorded time series.
  SimDuration sample_period = Millis(500);
  uint64_t driver_seed = 4242;
  /// Steady-state fast-forward of the simulation kernel. Guaranteed
  /// bit-identical results either way (see docs/architecture.md); off
  /// exists for determinism tests and debugging.
  bool fast_forward = true;
  /// Optional telemetry context for the run. The rig binds it to the
  /// run's simulator and propagates it through every layer (machine,
  /// engine, ECL); Run registers the experiment-level `exp/*` gauges on it
  /// and samples them over the measured window into RunResult::series.
  /// Without one, the `exp/*` gauges go on a run-local telemetry no layer
  /// sees. Must be enabled and sample at `sample_period` (Run checks
  /// both). Must outlive the run; afterwards only its *value* state is
  /// safe to read (series, trace events, and the dump captured in
  /// RunResult::telemetry_dump) — gauges reference run-local objects.
  /// Each concurrent RunMatrix arm needs its own instance.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Builds a workload against a fresh engine.
using WorkloadFactory =
    std::function<std::unique_ptr<workload::Workload>(engine::Engine*)>;

/// The single-node test rig: one machine, its engine, the workload and
/// the controller of the run's mode (the ECL stack, the race-to-idle
/// baseline, or the OS governor) — everything a single-node experiment constructs before any
/// load arrives. Run drives it like a ClusterRig (both offer the same
/// calls); the hand-built benches drive it directly. Construction order is
/// load-bearing (advancer and event registration order fix the
/// simulation).
class NodeRig {
 public:
  NodeRig(const WorkloadFactory& factory, const RunOptions& options);

  /// Warms the controller up under synthetic saturation (every mode, so
  /// run windows stay aligned) and resets the latency run stats.
  void Prime();

  sim::Simulator& simulator() { return simulator_; }
  hwsim::Machine& machine() { return *machine_; }
  engine::Engine& engine() { return *engine_; }
  workload::Workload& workload() { return *workload_; }
  double capacity() const { return capacity_; }
  /// The ECL stack; null unless the mode is kEcl.
  ecl::EnergyControlLoop* loop() { return loop_.get(); }
  telemetry::Telemetry* telemetry() { return options_.telemetry; }
  const RunOptions& options() const { return options_; }

  // The calls Run makes on either rig (ClusterRig has the same set).
  void Submit(const engine::QuerySpec& spec) { engine_->Submit(spec); }
  void SetCompletionCallback(engine::Scheduler::CompletionCallback cb) {
    engine_->scheduler().SetCompletionCallback(std::move(cb));
  }
  void SetFailureCallback(engine::Scheduler::FailureCallback cb) {
    engine_->scheduler().SetFailureCallback(std::move(cb));
  }
  /// The system ECL's latency pressure; 0 without the ECL.
  double Pressure() const;
  /// Feeds the admission shed fraction to the system ECL (no-op without it).
  void SetShedSignal(std::function<double()> signal);
  double EnergyJ() const { return machine_->TotalEnergyJoules(); }
  /// Active hardware threads over all sockets.
  int Width() const;
  double LatencyWindowMs() const { return engine_->latency().WindowMeanMs(); }
  /// Registers the rig's own `exp/*` gauges: perf_level_frac (mean over
  /// sockets, relative to peak) and utilization (mean over sockets, ECL
  /// view) — both 0 without the ECL — and per socket socket{S}/power_w
  /// (package + DRAM) and socket{S}/partitions.
  void AddGauges(RunSampler& sampler);
  /// Queries completed plus queries failed since Prime.
  int64_t Resolved() const;
  /// Fills completed, failed and the latency summary since Prime.
  void ReadQueries(RunResult* result) const;
  /// Fills the migration counters and socket 0's best configuration.
  void ReadCounters(RunResult* result) const;
  /// Per-socket queued work, for the drain watchdog's diagnostic.
  std::string DescribeBacklog() const;
  void StopEcls();

 private:
  RunOptions options_;
  sim::Simulator simulator_;
  std::unique_ptr<hwsim::Machine> machine_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<workload::Workload> workload_;
  double capacity_ = 0.0;
  std::unique_ptr<ecl::EnergyControlLoop> loop_;
  std::unique_ptr<ecl::OsGovernor> governor_;
};

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_NODE_RIG_H_
