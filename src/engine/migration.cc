#include "engine/migration.h"

#include <algorithm>

#include "common/check.h"

namespace ecldb::engine {
namespace {

/// Work profile of the shard copy: a streaming, bandwidth-bound memcpy
/// through the hwsim memory model (read + remote write per cache line).
const hwsim::WorkProfile& ShardCopyProfile() {
  static const hwsim::WorkProfile* profile = [] {
    auto* p = new hwsim::WorkProfile();
    p->name = "shard_copy";
    // Streaming copy loop: few instructions per cache line, dominated by
    // DRAM traffic (64 B read locally + 64 B written to the remote
    // socket), with deep prefetch overlap.
    p->instr_per_op = 8.0;
    p->cpi = 0.6;
    p->mem_accesses_per_op = 0.0;
    p->mlp = 8.0;
    p->bytes_per_op = 128.0;
    return p;
  }();
  return *profile;
}

}  // namespace

ShardCopy MakeShardCopy(const Database& db, PartitionId p,
                        SocketId origin_socket, const MigrationParams& params) {
  ShardCopy copy;
  copy.bytes = std::max(static_cast<double>(db.partition(p)->MemoryBytes()),
                        params.min_shard_bytes);
  const double ops = std::max(1.0, copy.bytes / params.bytes_per_op);
  copy.query.profile = &ShardCopyProfile();
  copy.query.work.push_back({p, ops, msg::MessageType::kWorkUnits, 0, 0});
  copy.query.origin_socket = origin_socket;
  copy.query.internal = true;
  return copy;
}

MigrationCoordinator::MigrationCoordinator(
    sim::Simulator* simulator, hwsim::Machine* machine, Database* db,
    PlacementMap* placement, msg::MessageLayer* layer, Scheduler* scheduler,
    const MigrationParams& params)
    : simulator_(simulator),
      machine_(machine),
      db_(db),
      placement_(placement),
      layer_(layer),
      scheduler_(scheduler),
      params_(params) {
  ECLDB_CHECK(simulator != nullptr && machine != nullptr && db != nullptr &&
              placement != nullptr && layer != nullptr && scheduler != nullptr);
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("engine/migrations_started", [this] { return started_; });
    reg.AddCounterFn("engine/migrations_completed",
                     [this] { return completed_; });
    reg.AddCounterFn("engine/migration_messages_rehomed",
                     [this] { return messages_rehomed_; });
    reg.AddGauge("engine/migrations_active",
                 [this] { return static_cast<double>(active_); });
    reg.AddGauge("engine/migration_bytes_moved",
                 [this] { return bytes_moved_; });
    trace_lane_ = tel->trace().RegisterLane("engine/migration");
  }
}

bool MigrationCoordinator::StartMigration(PartitionId p, SocketId to) {
  ECLDB_CHECK(p >= 0 && p < placement_->num_partitions());
  ECLDB_CHECK(to >= 0 && to < placement_->num_sockets());
  ECLDB_CHECK_MSG(!scheduler_->static_binding(),
                  "live migration requires the elastic scheduler");
  if (placement_->IsMigrating(p) || placement_->HomeOf(p) == to) return false;
  const SocketId from = placement_->HomeOf(p);
  placement_->BeginMigration(p, to);
  ++active_;
  ++started_;

  const ShardCopy copy = MakeShardCopy(*db_, p, from, params_);
  const double bytes = copy.bytes;
  const QueryId copy_query = scheduler_->Submit(copy.query);

  // First handover check after the analytic QPI-limited copy estimate;
  // completion is then polled, because the copy's true finish time also
  // depends on the queue prefix ahead of it and the socket's current
  // configuration.
  const double qpi_gbps = machine_->params().bandwidth.qpi_gbps;
  const SimDuration estimate =
      qpi_gbps > 0.0 ? FromSeconds(bytes / (qpi_gbps * 1e9)) : SimDuration{0};
  const SimDuration first_check = std::max(kMinCopyTime, estimate);
  const SimTime t_start = simulator_->now();
  simulator_->ScheduleAfter(first_check, [this, p, copy_query, bytes, t_start] {
    CheckHandover(p, copy_query, bytes, t_start);
  });
  return true;
}

void MigrationCoordinator::CheckHandover(PartitionId p, QueryId copy_query,
                                         double bytes, SimTime t_start) {
  if (scheduler_->IsInflight(copy_query)) {
    simulator_->ScheduleAfter(kMigrationCheckInterval,
                              [this, p, copy_query, bytes, t_start] {
                                CheckHandover(p, copy_query, bytes, t_start);
                              });
    return;
  }
  Handover(p, bytes, t_start);
}

void MigrationCoordinator::Handover(PartitionId p, double bytes,
                                    SimTime t_start) {
  const SocketId from = placement_->HomeOf(p);
  const SocketId to = placement_->MigrationTarget(p);
  scheduler_->PrepareRehome(p);
  const auto rehomed = static_cast<int64_t>(layer_->Rehome(p, from, to));
  messages_rehomed_ += rehomed;
  placement_->CommitMigration(p);
  bytes_moved_ += bytes;
  --active_;
  ++completed_;
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    // One span per migration: drain+copy start through placement commit.
    tel->trace().Span(
        trace_lane_, "engine", "migration", t_start, simulator_->now(),
        "\"partition\":" + std::to_string(p) + ",\"from\":" +
            std::to_string(from) + ",\"to\":" + std::to_string(to) +
            ",\"bytes\":" + telemetry::JsonNumber(bytes) +
            ",\"messages_rehomed\":" + std::to_string(rehomed));
  }
}

}  // namespace ecldb::engine
