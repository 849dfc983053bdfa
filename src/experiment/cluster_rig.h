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
#include "experiment/cluster_trace.h"
#include "hwsim/cluster.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace ecldb::experiment {

/// The shared cluster test rig: N machines + network, the cluster engine,
/// one full per-node ECL stack, and the cluster ECL on top — everything a
/// cluster experiment constructs before any load arrives. Extracted from
/// RunClusterExperiment so the classic trace runner and the loadgen/SLO
/// runner build byte-identical systems; construction order is load-bearing
/// (advancer and event registration order fix the simulation).
class ClusterRig {
 public:
  ClusterRig(const ClusterWorkloadFactory& factory,
             const ClusterRunOptions& options);

  /// Primes every node's energy profiles under synthetic saturation and
  /// resets the per-node latency run stats (measurement starts clean).
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

  // The calls the loadgen runner makes on either rig (NodeRig has the
  // same set).
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
  Rng entry_rng_;
};

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_CLUSTER_RIG_H_
