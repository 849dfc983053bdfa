#include "ecl/placement_packer.h"

#include <algorithm>
#include <string>

namespace ecldb::ecl {

/// Only units at or below this relative load donate their partitions (the
/// same bound for the sockets of a box and the nodes of a rack).
constexpr double kDonorLoadMax = 0.45;

void PlacementPacker::ObserveMigrations() {
  const int64_t done = callbacks_.completed_migrations();
  if (done != last_completed_seen_) {
    last_completed_seen_ = done;
    last_migration_time_ = simulator_->now();
  }
}

bool PlacementPacker::Holds(Direction d) const {
  // A placement change perturbs latency until the receiving ECL re-sizes,
  // so reversing direction on that transient flaps; the next batch of a
  // staged move is never held.
  const bool holding =
      last_migration_time_ >= 0 &&
      simulator_->now() - last_migration_time_ < post_migration_hold_;
  return holding && last_direction_ != Direction::kNone &&
         last_direction_ != d;
}

void PlacementPacker::Consolidate() {
  const engine::PlacementMap& placement = *placement_;

  // Donor: the least-loaded eligible unit still homing partitions;
  // receiver: the most-loaded other one (packing into the busiest empties
  // the donor with the fewest moves).
  SocketId donor = -1, receiver = -1;
  double donor_load = 0.0, receiver_load = 0.0;
  int populated = 0;
  for (SocketId u = 0; u < placement.num_sockets(); ++u) {
    if (!callbacks_.eligible(u) || placement.PartitionsOn(u) == 0) continue;
    ++populated;
    const double load = callbacks_.load(u);
    if (donor == -1 || load < donor_load) {
      donor = u;
      donor_load = load;
    }
  }
  if (populated < 2) return;
  for (SocketId u = 0; u < placement.num_sockets(); ++u) {
    if (u == donor || !callbacks_.eligible(u) ||
        placement.PartitionsOn(u) == 0) {
      continue;
    }
    const double load = callbacks_.load(u);
    if (receiver == -1 || load > receiver_load) {
      receiver = u;
      receiver_load = load;
    }
  }
  if (donor_load > kDonorLoadMax) return;
  if (receiver_load + donor_load > target_load_ceiling_) return;

  MoveBatch(placement.PartitionsOf(donor), migrations_per_tick_, donor,
            receiver, Direction::kConsolidate);
}

void PlacementPacker::Spread() {
  const engine::PlacementMap& placement = *placement_;

  // Restore capacity: push partitions from the fullest eligible unit onto
  // the emptiest one, preferring partitions whose initial home was the
  // destination (converging back to the constructed placement).
  SocketId src = -1, dst = -1;
  for (SocketId u = 0; u < placement.num_sockets(); ++u) {
    if (!callbacks_.eligible(u)) continue;
    if (src == -1 || placement.PartitionsOn(u) > placement.PartitionsOn(src)) {
      src = u;
    }
    if (dst == -1 || placement.PartitionsOn(u) < placement.PartitionsOn(dst)) {
      dst = u;
    }
  }
  if (src == -1 || src == dst ||
      placement.PartitionsOn(src) - placement.PartitionsOn(dst) < 2) {
    return;
  }

  std::vector<PartitionId> candidates = placement.PartitionsOf(src);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](PartitionId a, PartitionId b) {
                     return (placement.InitialHomeOf(a) == dst) >
                            (placement.InitialHomeOf(b) == dst);
                   });
  const int gap = placement.PartitionsOn(src) - placement.PartitionsOn(dst);
  MoveBatch(candidates, std::min(spread_migrations_per_tick_, gap / 2),
            src, dst, Direction::kSpread);
}

void PlacementPacker::MoveBatch(const std::vector<PartitionId>& parts,
                                int count, SocketId from, SocketId to,
                                Direction d) {
  const bool consolidate = d == Direction::kConsolidate;
  const int moves = std::min(count, static_cast<int>(parts.size()));
  int started = 0;
  for (int i = 0; i < moves; ++i) {
    if (callbacks_.migrate(parts[static_cast<size_t>(i)], to)) {
      ++(consolidate ? consolidation_moves_ : spread_moves_);
      last_direction_ = d;
      ++started;
    }
  }
  if (started > 0 && telemetry_ != nullptr) {
    telemetry_->trace().Instant(
        trace_lane_, category_,
        consolidate ? "consolidate_batch" : "spread_batch", simulator_->now(),
        std::string(consolidate ? "\"donor\":" : "\"src\":") +
            std::to_string(from) +
            (consolidate ? ",\"receiver\":" : ",\"dst\":") +
            std::to_string(to) + ",\"migrations\":" + std::to_string(started));
  }
}

}  // namespace ecldb::ecl
