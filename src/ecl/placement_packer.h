#ifndef ECLDB_ECL_PLACEMENT_PACKER_H_
#define ECLDB_ECL_PLACEMENT_PACKER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "engine/placement.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::ecl {

/// The placement algorithm of both consolidation tiers, on a PlacementMap
/// whose homes ("units") are the sockets of a box (ConsolidationPolicy)
/// or the nodes of a rack (ClusterEcl). Consolidate moves a staged batch
/// from the least-loaded eligible unit still homing partitions to the
/// most-loaded other one; spread moves up to half the gap from the fullest
/// eligible unit to the emptiest, partitions whose initial home is the
/// destination first. Ties go to the lower unit id. The tiers decide when
/// to do either.
class PlacementPacker {
 public:
  enum class Direction { kNone, kConsolidate, kSpread };

  /// `eligible`: whether a unit may donate, receive or be a spread
  /// endpoint (every socket of a box; only powered-on nodes of a rack).
  /// `load`: a unit's relative load in [0, 1]. `migrate`: starts moving a
  /// partition to a unit, false when refused. `completed_migrations`:
  /// migrations completed so far (the dwell clock).
  struct Callbacks {
    std::function<bool(SocketId)> eligible;
    std::function<double(SocketId)> load;
    std::function<bool(PartitionId, SocketId)> migrate;
    std::function<int64_t()> completed_migrations;
  };

  /// Reads the limits and telemetry of the tier's ConsolidationParams or
  /// ClusterEclParams. With telemetry, each batch that starts a migration
  /// leaves an instant on the tier's `trace_lane` under its `category`.
  template <typename TierParams>
  PlacementPacker(sim::Simulator* simulator, engine::PlacementMap* placement,
                  Callbacks callbacks, const TierParams& params,
                  int trace_lane, const char* category)
      : simulator_(simulator),
        placement_(placement),
        callbacks_(std::move(callbacks)),
        target_load_ceiling_(params.target_load_ceiling),
        migrations_per_tick_(params.migrations_per_tick),
        spread_migrations_per_tick_(params.spread_migrations_per_tick),
        post_migration_hold_(params.post_migration_hold),
        telemetry_(params.telemetry),
        trace_lane_(trace_lane),
        category_(category) {
    ECLDB_CHECK(simulator != nullptr && placement != nullptr);
    ECLDB_CHECK(callbacks_.eligible != nullptr && callbacks_.load != nullptr &&
                callbacks_.migrate != nullptr &&
                callbacks_.completed_migrations != nullptr);
  }

  /// Restarts the dwell clock if a migration completed since the last
  /// call. Call once per tick, before deciding.
  void ObserveMigrations();
  /// Whether the dwell holds a move in direction `d`: one that reverses
  /// the last batch within post_migration_hold of a completion.
  bool Holds(Direction d) const;

  void Consolidate();
  void Spread();

  int64_t consolidation_moves() const { return consolidation_moves_; }
  int64_t spread_moves() const { return spread_moves_; }

 private:
  /// Starts the first `count` migrations of `parts` from `from` to `to` and
  /// traces the batch.
  void MoveBatch(const std::vector<PartitionId>& parts, int count,
                 SocketId from, SocketId to, Direction d);

  sim::Simulator* simulator_;
  engine::PlacementMap* placement_;
  Callbacks callbacks_;
  double target_load_ceiling_;
  int migrations_per_tick_;
  int spread_migrations_per_tick_;
  SimDuration post_migration_hold_;
  telemetry::Telemetry* telemetry_;
  int trace_lane_;
  const char* category_;

  int64_t consolidation_moves_ = 0;
  int64_t spread_moves_ = 0;
  int64_t last_completed_seen_ = 0;
  SimTime last_migration_time_ = -1;
  Direction last_direction_ = Direction::kNone;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_PLACEMENT_PACKER_H_
