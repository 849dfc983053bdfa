#ifndef ECLDB_EXPERIMENT_CLUSTER_RIG_H_
#define ECLDB_EXPERIMENT_CLUSTER_RIG_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "ecl/cluster_ecl.h"
#include "ecl/ecl.h"
#include "engine/cluster_engine.h"
#include "faultsim/fault_injector.h"
#include "faultsim/fault_schedule.h"
#include "hwsim/cluster.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/workload.h"

namespace ecldb::experiment {

class RunSampler;
struct RunResult;

struct ClusterRunOptions {
  /// Node set + network (telemetry is filled in by the rig).
  hwsim::ClusterParams cluster =
      hwsim::ClusterParams::Homogeneous(4, hwsim::ClusterNodeParams{});
  engine::ClusterEngineParams engine;
  /// Per-node ECL stack (socket + system tiers; in-box consolidation
  /// stays off — the cluster tier owns placement).
  ecl::EclParams node_ecl;
  ecl::ClusterEclParams cluster_ecl;
  SimDuration prime_duration = Seconds(30);
  SimDuration sample_period = Millis(500);
  uint64_t driver_seed = 4242;
  bool fast_forward = true;
  /// Entry-node routing of the open-loop drivers. Default (false): every
  /// query enters at the home node of its first partition (partition-aware
  /// clients). True: queries enter at a uniformly random powered-on node —
  /// placement-oblivious clients — so remote sends and stale-epoch
  /// forwarding are exercised on every query, not only around migrations.
  bool any_node_entry = false;
  /// Scripted faults, injected through a FaultInjector armed when Prime
  /// ends. Event times are relative to measurement start (t=0 is the
  /// instant Prime returns), so schedules compose with any
  /// prime_duration. Empty (the default) constructs no injector: the run
  /// is byte-identical to a pre-faultsim build.
  faultsim::FaultSchedule faults;
  /// Optional telemetry; per-node layers register under "node{N}/",
  /// cluster-scope metrics unprefixed. Same rules as
  /// RunOptions::telemetry.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Builds the workload against node 0's engine (every node engine hosts
/// the full global partition range, so queries generated against any one
/// of them address the whole cluster).
using ClusterWorkloadFactory =
    std::function<std::unique_ptr<workload::Workload>(engine::Engine*)>;

/// The cluster test rig: N machines + network, the cluster engine, one
/// full per-node ECL stack, and the cluster ECL on top — everything a
/// cluster experiment constructs before any load arrives. Run drives it
/// like a NodeRig (both offer the same calls); construction order is
/// load-bearing (advancer and event registration order fix the
/// simulation).
class ClusterRig {
 public:
  ClusterRig(const ClusterWorkloadFactory& factory,
             const ClusterRunOptions& options);

  /// Primes every node's energy profiles under synthetic saturation,
  /// resets the per-node latency run stats (measurement starts clean) and
  /// arms the options' fault schedule from the current instant.
  void Prime();

  /// Stops the cluster ECL (if any) and every node ECL.
  void StopEcls();

  /// Entry node for one query under the options' routing mode. Draws from
  /// the entry Rng only in any-node mode, so home routing never perturbs a
  /// seeded stream.
  NodeId EntryNodeFor(const engine::QuerySpec& spec);

  sim::Simulator& simulator() { return simulator_; }
  hwsim::Cluster& cluster() { return *cluster_; }
  engine::ClusterEngine& cengine() { return *cengine_; }
  workload::Workload& workload() { return *workload_; }
  double capacity() const { return capacity_; }
  int num_nodes() const { return cluster_->num_nodes(); }
  ecl::EnergyControlLoop& node_ecl(NodeId n) {
    return *node_ecls_[static_cast<size_t>(n)];
  }
  ecl::ClusterEcl* cluster_ecl() { return cluster_ecl_.get(); }
  telemetry::Telemetry* telemetry() { return tel_; }
  const ClusterRunOptions& options() const { return options_; }

  // The calls Run makes on either rig (NodeRig has the same set).
  /// Enters a query at EntryNodeFor(spec); empty queries are dropped.
  void Submit(const engine::QuerySpec& spec);
  /// Wires `cb` into every node's scheduler.
  void SetCompletionCallback(
      const engine::Scheduler::CompletionCallback& cb);
  void SetFailureCallback(engine::Scheduler::FailureCallback cb) {
    cengine_->SetQueryFailureCallback(std::move(cb));
  }
  /// Max over the per-node system-ECL pressures (the admission
  /// controller's cluster-scope pressure signal).
  double Pressure() const;
  /// Feeds the admission shed fraction to every node's system ECL.
  void SetShedSignal(const std::function<double()>& signal);
  /// Whole-cluster energy: machine RAPL + platform overheads + off/boot.
  double EnergyJ() const { return cluster_->TotalEnergyJoules(); }
  /// Powered-on nodes.
  int Width() const { return cluster_->NodesOn(); }
  /// Max over nodes of the latency window mean.
  double LatencyWindowMs() const;
  /// The cluster registers no gauges beyond Run's common set.
  void AddGauges(RunSampler&) {}
  /// Queries completed since Prime plus typed failures.
  int64_t Resolved() const;
  /// Fills completed, failed and the latency summary since Prime: the
  /// mean and violation fraction are completion-weighted over nodes, the
  /// percentiles and max are the max over the per-node trackers — an
  /// upper bound on the true cluster percentile (per-node latency
  /// populations are not merged).
  void ReadQueries(RunResult* result) const;
  /// Fills the node power-state, migration and network counters.
  void ReadCounters(RunResult* result) const;
  /// Per-node queued work, for the drain watchdog's diagnostic.
  std::string DescribeBacklog() const;

 private:
  ClusterRunOptions options_;
  sim::Simulator simulator_;
  telemetry::Telemetry* tel_ = nullptr;
  hwsim::ClusterParams cluster_params_;
  std::unique_ptr<hwsim::Cluster> cluster_;
  std::unique_ptr<engine::ClusterEngine> cengine_;
  std::unique_ptr<workload::Workload> workload_;
  double capacity_ = 0.0;
  std::vector<std::unique_ptr<ecl::EnergyControlLoop>> node_ecls_;
  std::unique_ptr<ecl::ClusterEcl> cluster_ecl_;
  std::unique_ptr<faultsim::FaultInjector> injector_;
  Rng entry_rng_;
};

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_CLUSTER_RIG_H_
