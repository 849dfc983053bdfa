#include "engine/cluster_engine.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/check.h"
#include "engine/migration.h"

namespace ecldb::engine {

ClusterEngine::ClusterEngine(sim::Simulator* simulator,
                             hwsim::Cluster* cluster,
                             const ClusterEngineParams& params)
    : simulator_(simulator), cluster_(cluster), params_(params) {
  ECLDB_CHECK(simulator != nullptr && cluster != nullptr);
  int num_partitions = params_.num_partitions;
  if (num_partitions == 0) {
    for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
      num_partitions += cluster_->machine(n).topology().total_threads();
    }
  }
  ECLDB_CHECK(num_partitions > 0);
  placement_ = std::make_unique<PlacementMap>(num_partitions,
                                              cluster_->num_nodes());
  telemetry::Telemetry* const tel = params_.telemetry;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    EngineParams ep = params_.engine;
    ep.num_partitions = num_partitions;
    ep.telemetry = tel;
    if (tel != nullptr) {
      tel->SetPathPrefix("node" + std::to_string(n) + "/");
    }
    engines_.push_back(std::make_unique<Engine>(
        simulator_, &cluster_->machine(n), ep));
  }
  if (tel != nullptr) {
    tel->SetPathPrefix("");
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("cluster/remote_sends", [this] { return remote_sends_; });
    reg.AddCounterFn("cluster/stale_forwards",
                     [this] { return stale_forwards_; });
    reg.AddCounterFn("cluster/migrations_started",
                     [this] { return migrations_started_; });
    reg.AddCounterFn("cluster/migrations_completed",
                     [this] { return migrations_completed_; });
    reg.AddCounterFn("cluster/migrations_cancelled",
                     [this] { return migrations_cancelled_; });
    reg.AddGauge("cluster/migrations_active", [this] {
      return static_cast<double>(active_migrations_);
    });
    reg.AddGauge("cluster/migration_bytes_moved",
                 [this] { return bytes_moved_; });
  }
}

void ClusterEngine::Submit(NodeId entry, const QuerySpec& spec) {
  ECLDB_CHECK(entry >= 0 && entry < num_nodes());
  // Split the work list by home node, preserving per-group work order.
  std::map<NodeId, QuerySpec> groups;
  for (const PartitionWork& w : spec.work) {
    const NodeId home = placement_->HomeOf(w.partition);
    QuerySpec& sub = groups[home];
    if (sub.work.empty()) {
      sub.profile = spec.profile;
      sub.internal = spec.internal;
      sub.slo_class = spec.slo_class;
      sub.tenant = spec.tenant;
      sub.attempt = spec.attempt;
    }
    sub.work.push_back(w);
  }
  for (auto& [home, sub] : groups) {
    if (home == entry) {
      SubmitLocal(entry, std::move(sub));
    } else {
      Ship(entry, home, std::move(sub), /*forward=*/false);
    }
  }
}

void ClusterEngine::SubmitLocal(NodeId n, QuerySpec sub) {
  Engine& eng = node_engine(n);
  sub.origin_socket = eng.placement().HomeOf(sub.work.front().partition);
  eng.Submit(sub);
}

void ClusterEngine::Ship(NodeId from, NodeId to, QuerySpec sub, bool forward) {
  const double bytes = cluster_->network().params().message_bytes;
  const SimTime deliver = cluster_->network().ReserveTransfer(
      from, to, bytes, simulator_->now());
  ++remote_sends_;
  if (forward) ++stale_forwards_;
  simulator_->Schedule(deliver, [this, to, sub = std::move(sub)]() mutable {
    Route(to, std::move(sub));
  });
}

void ClusterEngine::Route(NodeId at, QuerySpec sub) {
  const NodeId home = placement_->HomeOf(sub.work.front().partition);
  if (home == at) {
    SubmitLocal(at, std::move(sub));
    return;
  }
  // The partition re-homed while the message was on the wire: the epoch
  // it was addressed under is stale, forward another hop — up to the cap,
  // past which the sub-query fails typed instead of chasing the placement
  // forever (and the drop is visible in forward_drops / telemetry, never
  // silent: conservation requires every submission to end as a completion
  // or a typed failure).
  if (static_cast<int>(sub.forward_hops) >= params_.max_forward_hops) {
    ++forward_drops_;
    if (failure_callback_) {
      failure_callback_(sub.slo_class, sub.tenant, sub.attempt,
                        simulator_->now(), FailReason::kForwardCap);
    }
    return;
  }
  ++sub.forward_hops;
  Ship(at, home, std::move(sub), /*forward=*/true);
}

bool ClusterEngine::StartMigration(PartitionId p, NodeId to) {
  ECLDB_CHECK(p >= 0 && p < num_partitions());
  ECLDB_CHECK(to >= 0 && to < num_nodes());
  if (placement_->IsMigrating(p) || placement_->HomeOf(p) == to) return false;
  const NodeId from = placement_->HomeOf(p);
  if (!cluster_->IsOn(from) || !cluster_->IsOn(to)) return false;
  placement_->BeginMigration(p, to);
  ++active_migrations_;
  ++migrations_started_;

  // Drain + local copy: the shard-copy query rides the source partition's
  // FIFO queue, so everything already enqueued executes first and the
  // fluid copy work charges the source node's memory system.
  Engine& src = node_engine(from);
  const ShardCopy copy = MakeShardCopy(src.db(), p, src.placement().HomeOf(p),
                                       params_.migration);
  const double bytes = copy.bytes;
  const QueryId copy_query = src.Submit(copy.query);

  simulator_->ScheduleAfter(kMinCopyTime, [this, p, copy_query, bytes] {
    CheckDrain(p, copy_query, bytes);
  });
  return true;
}

void ClusterEngine::CheckDrain(PartitionId p, QueryId copy_query,
                               double bytes) {
  // Cancelled under our feet (a crash took an endpoint): the pending poll
  // must not treat the vanished copy query as a completed drain.
  if (!placement_->IsMigrating(p)) return;
  const NodeId from = placement_->HomeOf(p);
  if (node_engine(from).scheduler().IsInflight(copy_query)) {
    simulator_->ScheduleAfter(kMigrationCheckInterval,
                              [this, p, copy_query, bytes] {
                                CheckDrain(p, copy_query, bytes);
                              });
    return;
  }
  // Drained: the shard state now crosses the network at NIC bandwidth,
  // competing with control messages of both endpoints.
  const NodeId to = placement_->MigrationTarget(p);
  const SimTime deliver = cluster_->network().ReserveTransfer(
      from, to, bytes, simulator_->now());
  simulator_->Schedule(deliver,
                       [this, p, bytes] { CommitOrCancel(p, bytes); });
}

void ClusterEngine::CommitOrCancel(PartitionId p, double bytes) {
  // Crash-cancelled while the copy was on the wire: the crash path already
  // cancelled the migration and adjusted the counters.
  if (!placement_->IsMigrating(p)) return;
  --active_migrations_;
  if (!cluster_->IsOn(placement_->MigrationTarget(p))) {
    // Destination powered down while the copy was on the wire. The source
    // was never unhomed, so cancelling loses nothing: it kept serving the
    // queued tail and stays the home.
    placement_->CancelMigration(p);
    ++migrations_cancelled_;
    return;
  }
  placement_->CommitMigration(p);
  ++migrations_completed_;
  bytes_moved_ += bytes;
}

void ClusterEngine::SetQueryFailureCallback(Scheduler::FailureCallback cb) {
  failure_callback_ = std::move(cb);
  for (auto& eng : engines_) {
    eng->scheduler().SetFailureCallback(failure_callback_);
  }
}

void ClusterEngine::OnNodeCrash(NodeId n) {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  ECLDB_CHECK_MSG(cluster_->IsFailed(n), "crash recovery of a healthy node");

  // 1. Cancel migrations whose endpoint died. The pending drain-poll and
  // copy-delivery events of these migrations observe the cancelled state
  // and no-op.
  for (PartitionId p = 0; p < num_partitions(); ++p) {
    if (!placement_->IsMigrating(p)) continue;
    if (placement_->HomeOf(p) == n || placement_->MigrationTarget(p) == n) {
      placement_->CancelMigration(p);
      ++migrations_cancelled_;
      --active_migrations_;
    }
  }

  // 2. Fail what the node was holding: queued and in-flight queries fire
  // typed kNodeCrash errors back to the client; internal shard copies
  // vanish (their migrations were cancelled above).
  node_engine(n).scheduler().FailAllInflight(FailReason::kNodeCrash);

  // 3. Re-home the lost partitions onto survivors and charge the shard
  // re-copy from the durable placement truth on each new home. Survivor
  // choice is deterministic: fewest partitions after prior re-homes,
  // lowest node id on ties.
  for (PartitionId p = 0; p < num_partitions(); ++p) {
    if (placement_->HomeOf(p) != n) continue;
    NodeId to = -1;
    for (NodeId c = 0; c < num_nodes(); ++c) {
      if (!cluster_->IsAvailable(c)) continue;
      if (to < 0 || placement_->PartitionsOn(c) < placement_->PartitionsOn(to)) {
        to = c;
      }
    }
    if (to < 0) return;  // no survivor; partitions stay until one recovers
    placement_->ForceRehome(p, to);

    Engine& dst = node_engine(to);
    const ShardCopy copy = MakeShardCopy(
        dst.db(), p, dst.placement().HomeOf(p), params_.migration);
    dst.Submit(copy.query);
    ++crash_recoveries_;
    recovery_bytes_ += copy.bytes;
  }
}

int64_t ClusterEngine::QueriesFailed() const {
  int64_t total = forward_drops_;
  for (const auto& eng : engines_) total += eng->scheduler().queries_failed();
  return total;
}

bool ClusterEngine::NodeInvolvedInMigration(NodeId n) const {
  for (PartitionId p = 0; p < num_partitions(); ++p) {
    if (!placement_->IsMigrating(p)) continue;
    if (placement_->HomeOf(p) == n || placement_->MigrationTarget(p) == n) {
      return true;
    }
  }
  return false;
}

double ClusterEngine::BacklogOps(NodeId n) const {
  const Engine& eng = node_engine(n);
  double total = 0.0;
  const int sockets = cluster_->machine(n).topology().num_sockets;
  for (SocketId s = 0; s < sockets; ++s) {
    total += eng.scheduler().BacklogOps(s);
  }
  return total;
}

int64_t ClusterEngine::CompletedQueries() const {
  int64_t total = 0;
  for (const auto& eng : engines_) total += eng->latency().completed();
  return total;
}

}  // namespace ecldb::engine
