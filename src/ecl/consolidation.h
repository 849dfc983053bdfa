#ifndef ECLDB_ECL_CONSOLIDATION_H_
#define ECLDB_ECL_CONSOLIDATION_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "ecl/placement_packer.h"
#include "ecl/system_ecl.h"
#include "engine/engine.h"
#include "sim/simulator.h"

namespace ecldb::ecl {

struct ConsolidationParams {
  /// Master switch; default off so every existing experiment is
  /// byte-identical.
  bool enabled = false;
  /// Policy tick interval (system-level cadence).
  SimDuration interval = Seconds(1);
  /// Projected relative load of the receiving socket (its load plus the
  /// donor's) must stay below this to consolidate. Varied by
  /// PlacementPackerTest.EachGateBlocksConsolidation.
  double target_load_ceiling = 0.6;
  /// Migrations started per consolidation tick. Staged small on purpose:
  /// the receiver's reactive ECL re-sizes between batches, so absorbing
  /// the donor a few partitions at a time never spikes latency the way
  /// rehoming a whole socket at once does. (The donor's tail partitions
  /// are protected from the shrinking duty cycle by the backlog wake.)
  int migrations_per_tick = 4;
  /// Migrations started per spread tick. Spreading runs under latency
  /// pressure — the consolidated socket is overloaded until capacity is
  /// restored — so the whole rebalance batch ships at once; the shard
  /// copies are bandwidth-limited and complete within a few hundred ms.
  int spread_migrations_per_tick = 24;
  /// Anti-flapping dwell: after a migration completes, the policy holds
  /// off placement changes in the *opposite* direction for this long.
  /// A rehome batch is itself a disturbance (the receiver's ECL needs a
  /// few intervals of demand discovery to re-size), and reacting to that
  /// transient consolidates and spreads in a cycle. Continuing in the
  /// same direction is never dwell-gated — staged consolidation ships
  /// its next batch as soon as the previous one has landed.
  SimDuration post_migration_hold = Seconds(15);
  /// Optional telemetry context: move/tick counters and instants for each
  /// consolidate/spread batch on an "ecl/consolidation" lane.
  telemetry::Telemetry* telemetry = nullptr;
};

/// System-level whole-socket consolidation (the placement policy of the
/// ECL hierarchy): when load is low — latency pressure far from the
/// limit and the least-loaded socket's work fits onto another socket —
/// it live-migrates partitions off that socket so the emptied socket can
/// be parked (idle configuration, package C-state, and with every socket
/// idle the uncore halt: the dominant per-socket fixed cost of paper
/// Figs. 3/5). When latency pressure approaches the limit it spreads
/// partitions back toward the initial placement before the limit is
/// violated.
///
/// Relative socket load is the socket ECL's processed performance level
/// over its profile's peak score — NOT worker utilization, which the
/// socket ECL intentionally keeps high by shrinking the active thread
/// set (utilization says "how busy are the awake workers", load says
/// "how much of the socket's capacity is spoken for").
class ConsolidationPolicy {
 public:
  /// `load` returns a socket's relative load in [0, 1].
  using LoadFn = std::function<double(SocketId)>;

  ConsolidationPolicy(sim::Simulator* simulator, engine::Engine* engine,
                      SystemEcl* system, LoadFn load,
                      const ConsolidationParams& params);

  void Start();
  void Stop() { running_ = false; }

  int64_t consolidation_moves() const { return packer_.consolidation_moves(); }
  int64_t spread_moves() const { return packer_.spread_moves(); }
  int64_t ticks() const { return ticks_; }

 private:
  void Tick();

  sim::Simulator* simulator_;
  engine::Engine* engine_;
  SystemEcl* system_;
  ConsolidationParams params_;
  PlacementPacker packer_;

  bool running_ = false;
  int64_t ticks_ = 0;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_CONSOLIDATION_H_
