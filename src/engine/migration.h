#ifndef ECLDB_ENGINE_MIGRATION_H_
#define ECLDB_ENGINE_MIGRATION_H_

#include <cstdint>

#include "common/types.h"
#include "engine/database.h"
#include "engine/placement.h"
#include "engine/scheduler.h"
#include "hwsim/machine.h"
#include "msg/message_layer.h"
#include "sim/simulator.h"

namespace ecldb::engine {

/// Handover poll interval: after the copy query is submitted, the
/// coordinator (in-box or rack) checks at this granularity whether it has
/// drained.
inline constexpr SimDuration kMigrationCheckInterval = Millis(10);
/// First handover check after at least this long (covers tiny shards).
inline constexpr SimDuration kMinCopyTime = Millis(1);

struct MigrationParams {
  /// Bytes of shard state copied per fluid operation of the copy query
  /// (one cache line per op).
  double bytes_per_op = 64.0;
  /// Floor on the modeled shard size. Fluid-only workloads keep no real
  /// table data, so benches set this to model a realistic copy cost;
  /// 0 = use the partition's actual in-memory bytes only.
  double min_shard_bytes = 0.0;
  /// Optional telemetry context: migration counters plus one trace span
  /// per migration (drain+copy through commit) on an "engine/migration"
  /// lane.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Drives the live-migration protocol (drain -> copy -> rehome) on top of
/// the epoch-versioned PlacementMap:
///
///   drain  — an internal shard-copy query is submitted to the partition.
///            It rides the FIFO partition queue, so every message already
///            enqueued executes first (the queue is the drain barrier),
///            and its fluid work charges the bandwidth-limited copy cost
///            to the source socket through the hwsim memory model.
///   copy   — handover polls until the copy query has left the system,
///            i.e. the queue prefix and the copy itself fully executed.
///   rehome — any worker ownership is released (unprocessed batches are
///            requeued), the queue object moves to the destination router
///            with whatever is still queued behind the copy, and the
///            placement commits the new home, bumping the epoch. Messages
///            still in flight toward the old home arrive under the stale
///            epoch and are forwarded by the message layer.
///
/// Everything runs in simulator event context, so each step is atomic
/// with respect to execution slices. Live migration requires the elastic
/// scheduler (static worker-partition binding cannot change homes).
class MigrationCoordinator {
 public:
  MigrationCoordinator(sim::Simulator* simulator, hwsim::Machine* machine,
                       Database* db, PlacementMap* placement,
                       msg::MessageLayer* layer, Scheduler* scheduler,
                       const MigrationParams& params);

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// Starts migrating `p` to socket `to`. Must be called from simulator
  /// event context (or before the run). Returns false (no-op) when the
  /// partition is already migrating or `to` is its current home.
  bool StartMigration(PartitionId p, SocketId to);

  /// Migrations currently in flight.
  int active() const { return active_; }
  int64_t started() const { return started_; }
  int64_t completed() const { return completed_; }
  /// Total shard bytes copied by completed migrations.
  double bytes_moved() const { return bytes_moved_; }
  /// Queued messages that travelled with rehomed queues.
  int64_t messages_rehomed() const { return messages_rehomed_; }

 private:
  void CheckHandover(PartitionId p, QueryId copy_query, double bytes,
                     SimTime t_start);
  void Handover(PartitionId p, double bytes, SimTime t_start);

  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  Database* db_;
  PlacementMap* placement_;
  msg::MessageLayer* layer_;
  Scheduler* scheduler_;
  MigrationParams params_;

  int active_ = 0;
  int64_t started_ = 0;
  int64_t completed_ = 0;
  double bytes_moved_ = 0.0;
  int64_t messages_rehomed_ = 0;
  int trace_lane_ = 0;  // "engine/migration" lane when telemetry is attached
};

/// The internal query that copies one partition's shard, and the shard's
/// modelled size. It rides the partition's FIFO queue, so everything
/// queued ahead of it executes first, and it charges a streaming,
/// bandwidth-bound copy (one fluid op per `bytes_per_op`, at least one) to
/// the executing socket through the hwsim memory model.
struct ShardCopy {
  QuerySpec query;
  /// The partition's in-memory bytes, floored at `min_shard_bytes`.
  double bytes = 0.0;
};

/// Builds the shard copy of `p` from `db`, dispatched from `origin_socket`.
ShardCopy MakeShardCopy(const Database& db, PartitionId p,
                        SocketId origin_socket, const MigrationParams& params);

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_MIGRATION_H_
