#ifndef ECLDB_EXPERIMENT_CLUSTER_TRACE_H_
#define ECLDB_EXPERIMENT_CLUSTER_TRACE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "ecl/cluster_ecl.h"
#include "ecl/ecl.h"
#include "engine/cluster_engine.h"
#include "hwsim/cluster.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/driver.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

namespace ecldb::experiment {

struct ClusterRunOptions {
  /// Node set + network (telemetry is filled in by the runner).
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
  /// Cluster capacity override in queries/s; 0 sums the per-node all-on
  /// baseline capacities.
  double capacity_qps = 0.0;
  bool fast_forward = true;
  /// Entry-node routing of the open-loop drivers. Default (false): every
  /// query enters at the home node of its first partition (partition-aware
  /// clients). True: queries enter at a uniformly random powered-on node —
  /// placement-oblivious clients — so remote sends and stale-epoch
  /// forwarding are exercised on every query, not only around migrations.
  bool any_node_entry = false;
  /// Seed of the entry-node picks (only drawn when any_node_entry is on,
  /// so the default keeps the arrival/query streams bit-identical).
  uint64_t entry_seed = 171717;
  /// Optional telemetry; per-node layers register under "node{N}/",
  /// cluster-scope metrics unprefixed. Same rules as
  /// RunOptions::telemetry.
  telemetry::Telemetry* telemetry = nullptr;
};

struct ClusterRunResult {
  double duration_s = 0.0;
  /// Whole-cluster energy over the measured window, joules.
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double capacity_qps = 0.0;
  int64_t submitted = 0;
  int64_t completed = 0;
  /// Completion-weighted mean over nodes.
  double mean_ms = 0.0;
  /// Max over the per-node trackers — an upper bound on the true cluster
  /// percentile (per-node latency populations are not merged).
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double violation_frac = 0.0;
  int64_t power_downs = 0;
  int64_t wakes = 0;
  int64_t node_migrations = 0;
  int64_t cancelled_migrations = 0;
  int64_t remote_sends = 0;
  int64_t stale_forwards = 0;
  /// The `exp/cluster/*` gauge series: t_s, offered_qps, power_w (whole
  /// cluster — machine RAPL + platform overheads + off/boot power —
  /// averaged over the sample period) and nodes_on.
  telemetry::Series series;
  std::string telemetry_dump;
};

/// Builds the workload against node 0's engine (every node engine hosts
/// the full global partition range, so queries generated against any one
/// of them address the whole cluster).
using ClusterWorkloadFactory =
    std::function<std::unique_ptr<workload::Workload>(engine::Engine*)>;

/// Runs one end-to-end cluster experiment: N machines + network +
/// cluster engine, one full per-node ECL stack each, the cluster ECL on
/// top, an open-loop driver entering queries at their home node, and the
/// cluster-scope `exp/cluster/*` gauges sampled into the series.
/// Deterministic for fixed options.
ClusterRunResult RunClusterExperiment(const ClusterWorkloadFactory& factory,
                                      const workload::LoadProfile& profile,
                                      const ClusterRunOptions& options);

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_CLUSTER_TRACE_H_
