#ifndef ECLDB_ENGINE_CLUSTER_ENGINE_H_
#define ECLDB_ENGINE_CLUSTER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "engine/engine.h"
#include "engine/placement.h"
#include "engine/query.h"
#include "hwsim/cluster.h"
#include "sim/simulator.h"

namespace ecldb::engine {

struct ClusterEngineParams {
  /// Per-node engine parameters. num_partitions and telemetry are managed
  /// by the cluster engine (every node engine hosts the full global
  /// partition range; telemetry is node-prefixed).
  EngineParams engine;
  /// Global partition count; 0 = one per hardware thread summed over all
  /// nodes.
  int num_partitions = 0;
  /// Node-level migration knobs: bytes_per_op / min_shard_bytes price the
  /// local drain+copy (kMigrationCheckInterval paces the handover poll).
  /// The copy then crosses the network at NIC speed instead of QPI speed.
  MigrationParams migration;
  /// Stale-epoch forward chains longer than this fail the sub-query with
  /// FailReason::kForwardCap instead of hopping again — a livelock guard
  /// for routing under concurrent migrations (each hop re-resolves the
  /// current placement, so in practice chains are short; the cap bounds
  /// the pathological case without dropping work silently). Varied by
  /// ClusterEngineTest.ForwardHopCapFailsTypedInsteadOfLivelock.
  int max_forward_hops = 16;
  telemetry::Telemetry* telemetry = nullptr;
};

/// The rack-scale engine: one full Engine per node plus a node-level
/// PlacementMap lifting the global resource address to (node, socket).
///
/// Routing is two-stage. The cluster placement maps a partition to its
/// home node; the node's own placement then maps it to a socket. A query
/// entering at node E splits into per-home-node groups: the local group
/// submits directly, remote groups ship through the network model and
/// re-resolve the cluster placement on arrival — if a node-level rehome
/// committed while the message was on the wire, the stale delivery is
/// counted and forwarded another hop, mirroring the epoch-stale
/// forwarding of the in-box message layer.
///
/// Node-level migration extends drain→copy→rehome across the network:
/// the drain and the local copy cost ride the source engine's partition
/// queue exactly like an in-box migration (FIFO drain barrier), the copy
/// then crosses the network at NIC bandwidth, and the commit re-homes the
/// partition at cluster scope. The source node keeps serving whatever was
/// queued behind the drain barrier — no queue object crosses nodes, so no
/// operation is dropped or double-counted. If the destination powered
/// down while the copy was on the wire, the migration cancels instead of
/// committing (the source never stopped being the home, so nothing is
/// lost).
class ClusterEngine {
 public:
  ClusterEngine(sim::Simulator* simulator, hwsim::Cluster* cluster,
                const ClusterEngineParams& params);

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  int num_nodes() const { return cluster_->num_nodes(); }
  int num_partitions() const { return placement_->num_partitions(); }
  hwsim::Cluster& cluster() { return *cluster_; }
  /// Node-level placement: "sockets" of this map are nodes.
  PlacementMap& placement() { return *placement_; }
  const PlacementMap& placement() const { return *placement_; }
  Engine& node_engine(NodeId n) { return *engines_[static_cast<size_t>(n)]; }
  const Engine& node_engine(NodeId n) const {
    return *engines_[static_cast<size_t>(n)];
  }

  /// Submits a query entering the system at `entry` (the node the client
  /// is connected to). Work for partitions homed on other nodes ships
  /// through the network model. Network flight time delays execution but
  /// is not part of the tracked query latency (per-node trackers time
  /// from local arrival).
  void Submit(NodeId entry, const QuerySpec& spec);

  /// Starts migrating partition `p` to node `to`. Returns false (no-op)
  /// when `p` is already migrating at node scope, `to` is its home, or
  /// either endpoint is not on.
  bool StartMigration(PartitionId p, NodeId to);

  /// Whether any node-scope migration has `n` as source or destination
  /// (such a node must not power down).
  bool NodeInvolvedInMigration(NodeId n) const;

  /// Crash recovery (fault injector, after hwsim::Cluster::Crash(n)):
  ///  1. cancels every node-scope migration with `n` as an endpoint (the
  ///     pending drain-poll / copy-delivery events no-op on the cancelled
  ///     state),
  ///  2. fails every query inflight on `n` with FailReason::kNodeCrash
  ///     (typed errors reach the client through the failure callback),
  ///  3. re-homes each lost partition onto the available survivor with the
  ///     fewest partitions (lowest id on ties) via an epoch bump, and
  ///     charges an internal shard re-copy from the durable placement
  ///     truth on the new home's partition queue.
  /// In-flight network messages addressed to `n` are not lost: their
  /// delivery re-resolves the (bumped) placement and forwards onward.
  /// With no available survivor only steps 1–2 run; partitions stay homed
  /// on the dead node until one recovers.
  void OnNodeCrash(NodeId n);

  /// Client-side failure fan-in: installed on every node scheduler, and
  /// invoked directly for cluster-level forward-cap drops.
  void SetQueryFailureCallback(Scheduler::FailureCallback cb);

  /// Fluid backlog queued on `n` across all its sockets (wake signal).
  double BacklogOps(NodeId n) const;

  /// Completed (non-internal) queries summed over all node engines.
  int64_t CompletedQueries() const;

  int64_t remote_sends() const { return remote_sends_; }
  int64_t stale_forwards() const { return stale_forwards_; }
  int active_migrations() const { return active_migrations_; }
  int64_t migrations_started() const { return migrations_started_; }
  int64_t migrations_completed() const { return migrations_completed_; }
  int64_t migrations_cancelled() const { return migrations_cancelled_; }
  double bytes_moved() const { return bytes_moved_; }

  /// Non-internal queries failed across all node schedulers plus
  /// cluster-level forward-cap drops.
  int64_t QueriesFailed() const;
  int64_t forward_drops() const { return forward_drops_; }
  int64_t crash_recoveries() const { return crash_recoveries_; }
  double recovery_bytes() const { return recovery_bytes_; }

 private:
  /// Submits a single-home-node sub-query on that node's engine.
  void SubmitLocal(NodeId n, QuerySpec sub);
  /// Ships a sub-query over the network; `forward` marks a stale hop.
  void Ship(NodeId from, NodeId to, QuerySpec sub, bool forward);
  /// Re-resolves the cluster placement for an arriving sub-query.
  void Route(NodeId at, QuerySpec sub);
  void CheckDrain(PartitionId p, QueryId copy_query, double bytes);
  void CommitOrCancel(PartitionId p, double bytes);

  sim::Simulator* simulator_;
  hwsim::Cluster* cluster_;
  ClusterEngineParams params_;
  std::unique_ptr<PlacementMap> placement_;
  std::vector<std::unique_ptr<Engine>> engines_;

  int64_t remote_sends_ = 0;
  int64_t stale_forwards_ = 0;
  int active_migrations_ = 0;
  int64_t migrations_started_ = 0;
  int64_t migrations_completed_ = 0;
  int64_t migrations_cancelled_ = 0;
  double bytes_moved_ = 0.0;
  int64_t forward_drops_ = 0;
  int64_t crash_recoveries_ = 0;
  double recovery_bytes_ = 0.0;
  Scheduler::FailureCallback failure_callback_;
};

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_CLUSTER_ENGINE_H_
