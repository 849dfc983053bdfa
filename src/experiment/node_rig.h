#ifndef ECLDB_EXPERIMENT_NODE_RIG_H_
#define ECLDB_EXPERIMENT_NODE_RIG_H_

#include <functional>
#include <memory>
#include <string>

#include "ecl/ecl.h"
#include "engine/engine.h"
#include "experiment/experiment.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace ecldb::experiment {

/// The single-node test rig: one machine, its engine, the workload and
/// the controller of the run's mode (the ECL stack, or the race-to-idle
/// baseline) — everything a single-node experiment constructs before any
/// load arrives. The single-node analogue of ClusterRig: the classic
/// load runner and the loadgen/SLO runner build byte-identical systems on
/// it. Construction order is load-bearing (advancer and event
/// registration order fix the simulation).
class NodeRig {
 public:
  NodeRig(const WorkloadFactory& factory, const RunOptions& options);

  /// Warms the controller up under synthetic saturation (both modes, so
  /// run windows stay aligned) and resets the latency run stats.
  void Prime();

  sim::Simulator& simulator() { return simulator_; }
  hwsim::Machine& machine() { return *machine_; }
  engine::Engine& engine() { return *engine_; }
  workload::Workload& workload() { return *workload_; }
  double capacity() const { return capacity_; }
  /// The ECL stack; null in baseline mode.
  ecl::EnergyControlLoop* loop() { return loop_.get(); }
  telemetry::Telemetry* telemetry() { return options_.telemetry; }
  const RunOptions& options() const { return options_; }

  // The calls the loadgen runner makes on either rig (ClusterRig has the
  // same set).
  void Submit(const engine::QuerySpec& spec) { engine_->Submit(spec); }
  void SetCompletionCallback(engine::Scheduler::CompletionCallback cb) {
    engine_->scheduler().SetCompletionCallback(std::move(cb));
  }
  void SetFailureCallback(engine::Scheduler::FailureCallback cb) {
    engine_->scheduler().SetFailureCallback(std::move(cb));
  }
  /// The system ECL's latency pressure; 0 in baseline mode.
  double Pressure() const;
  /// Feeds the admission shed fraction to the system ECL (baseline: no-op).
  void SetShedSignal(std::function<double()> signal);
  double EnergyJ() const { return machine_->TotalEnergyJoules(); }
  /// Active hardware threads over all sockets.
  int Width() const;
  double LatencyWindowMs() const { return engine_->latency().WindowMeanMs(); }
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
};

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_NODE_RIG_H_
