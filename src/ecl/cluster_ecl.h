#ifndef ECLDB_ECL_CLUSTER_ECL_H_
#define ECLDB_ECL_CLUSTER_ECL_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "ecl/placement_packer.h"
#include "engine/cluster_engine.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::ecl {

struct ClusterEclParams {
  /// Master switch; default off so single-node runs are byte-identical.
  bool enabled = false;
  /// Policy tick interval. Slower than the in-box consolidation cadence:
  /// node transitions cost tens of seconds, so the policy reacts at a
  /// matching timescale.
  SimDuration interval = Seconds(2);
  /// Projected receiver load (its own plus the donor's) must stay below
  /// this to consolidate (the packer's gate that
  /// PlacementPackerTest.EachGateBlocksConsolidation varies).
  double target_load_ceiling = 0.6;
  /// Node-scope migrations started per tick (staged, like in-box
  /// consolidation, so receiving ECLs re-size between batches).
  int migrations_per_tick = 4;
  /// Spread migrations per tick once a woken node is serving-capable.
  int spread_migrations_per_tick = 8;
  /// Fluid backlog on any node that also triggers a wake (covers work
  /// shipped to a node that powered down before the pressure signal
  /// reflects it). Varied by
  /// ClusterEclTest.BacklogOnOffNodeTriggersWakeAndWorkCompletes.
  double wake_backlog_ops = 1e6;
  /// A node must have been ON at least this long before it may power
  /// down again — the other half of the hysteresis: a boot costs
  /// boot_power x boot_latency up front, so short on/off cycles burn
  /// more than they save (see CalibrateNodeTransition::break_even_off_s).
  SimDuration min_on_time = Seconds(60);
  /// After any node-scope migration completes, hold placement reversals
  /// this long (same dwell rationale as the in-box policy, scaled up).
  SimDuration post_migration_hold = Seconds(30);
  /// Optional telemetry: tick/move counters plus instants for each
  /// power-down/wake decision on a "cluster/ecl" lane.
  telemetry::Telemetry* telemetry = nullptr;
};

/// The cluster tier of the ECL hierarchy: does across boxes what
/// ConsolidationPolicy does within one. At low pressure it live-migrates
/// partitions off the least-loaded node; once that node is drained (no
/// partitions, no backlog, no migration touching it) it powers the node
/// down, eliminating the platform overhead that package sleep cannot
/// reach. Rising pressure or backlog wakes an off node — early, because
/// capacity arrives a boot latency late — and spreads partitions back
/// onto it once it is serving-capable.
///
/// The policy only reads node-scope signals (per-node pressure/load fed
/// in as callbacks, cluster placement, fluid backlog); the per-node
/// EnergyControlLoops keep running their own socket/system tiers
/// unchanged underneath.
class ClusterEcl {
 public:
  /// Relative load of a node in [0, 1] (0 for off nodes).
  using LoadFn = std::function<double(NodeId)>;
  /// Latency pressure of a node's system ECL in [0, 1].
  using PressureFn = std::function<double(NodeId)>;
  /// Node lifecycle hook (stop a node's ECL before power-down, restart
  /// it when the node has booted).
  using NodeHook = std::function<void(NodeId)>;

  ClusterEcl(sim::Simulator* simulator, engine::ClusterEngine* engine,
             LoadFn load, PressureFn pressure, const ClusterEclParams& params);

  ClusterEcl(const ClusterEcl&) = delete;
  ClusterEcl& operator=(const ClusterEcl&) = delete;

  /// Hooks run synchronously: `on_power_down` just before a node powers
  /// down, `on_booted` when a woken node reaches kOn.
  void SetNodeHooks(NodeHook on_power_down, NodeHook on_booted);

  void Start();
  void Stop() { running_ = false; }

  int64_t ticks() const { return ticks_; }
  int64_t consolidation_moves() const { return packer_.consolidation_moves(); }
  int64_t spread_moves() const { return packer_.spread_moves(); }
  int64_t power_downs() const { return power_downs_; }
  int64_t wakes() const { return wakes_; }

 private:
  void Tick();
  /// Max pressure over ON nodes (off/booting nodes serve nothing).
  double ClusterPressure() const;
  bool TryWake(double pressure);
  void MaybePowerDown();

  sim::Simulator* simulator_;
  engine::ClusterEngine* engine_;
  PressureFn pressure_;
  ClusterEclParams params_;
  int trace_lane_;  // "cluster/ecl" lane when telemetry is attached
  PlacementPacker packer_;
  NodeHook on_power_down_;
  NodeHook on_booted_;

  bool running_ = false;
  int64_t ticks_ = 0;
  int64_t power_downs_ = 0;
  int64_t wakes_ = 0;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_CLUSTER_ECL_H_
