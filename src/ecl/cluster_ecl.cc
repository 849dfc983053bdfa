#include "ecl/cluster_ecl.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ecldb::ecl {

/// After a node crash (hwsim::Cluster::Crash), hold all policy power-downs
/// this long: the survivors are absorbing the re-homed partitions and the
/// retrying crowd, and shrinking capacity into that transient turns a
/// fault into an overload. Failed nodes themselves are never wake
/// candidates until the fault schedule clears them.
constexpr SimDuration kCrashRecoveryHold = Seconds(30);

ClusterEcl::ClusterEcl(sim::Simulator* simulator,
                       engine::ClusterEngine* engine, LoadFn load,
                       PressureFn pressure, const ClusterEclParams& params)
    : simulator_(simulator),
      engine_(engine),
      load_(std::move(load)),
      pressure_(std::move(pressure)),
      params_(params) {
  ECLDB_CHECK(simulator != nullptr && engine != nullptr);
  ECLDB_CHECK(load_ != nullptr && pressure_ != nullptr);
  ECLDB_CHECK(params_.min_nodes_on >= 1);
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("cluster/ecl/ticks", [this] { return ticks_; });
    reg.AddCounterFn("cluster/ecl/consolidation_moves",
                     [this] { return consolidation_moves_; });
    reg.AddCounterFn("cluster/ecl/spread_moves",
                     [this] { return spread_moves_; });
    reg.AddCounterFn("cluster/ecl/power_downs",
                     [this] { return power_downs_; });
    reg.AddCounterFn("cluster/ecl/wakes", [this] { return wakes_; });
    reg.AddGauge("cluster/ecl/pressure", [this] { return ClusterPressure(); });
    trace_lane_ = tel->trace().RegisterLane("cluster/ecl");
  }
}

void ClusterEcl::SetNodeHooks(NodeHook on_power_down, NodeHook on_booted) {
  on_power_down_ = std::move(on_power_down);
  on_booted_ = std::move(on_booted);
}

void ClusterEcl::Start() {
  running_ = true;
  simulator_->ScheduleAfter(params_.interval, [this] { Tick(); });
}

double ClusterEcl::ClusterPressure() const {
  hwsim::Cluster& cluster = engine_->cluster();
  double p = 0.0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.IsOn(n)) p = std::max(p, pressure_(n));
  }
  return p;
}

void ClusterEcl::Tick() {
  if (!running_) return;
  ++ticks_;
  const int64_t done = engine_->migrations_completed();
  if (done != last_completed_seen_) {
    last_completed_seen_ = done;
    last_migration_time_ = simulator_->now();
  }
  const double pressure = ClusterPressure();

  // Wakes run before anything else, every tick: capacity arrives a boot
  // latency late, so deferring a needed wake behind migration settling
  // would double the reaction time.
  const bool woke = TryWake(pressure);

  if (!woke && engine_->active_migrations() == 0) {
    const bool holding =
        last_migration_time_ >= 0 &&
        simulator_->now() - last_migration_time_ < params_.post_migration_hold;
    const bool spread_gated =
        holding && last_direction_ == Direction::kConsolidate;
    const bool consolidate_gated =
        holding && last_direction_ == Direction::kSpread;
    if (!spread_gated && pressure >= params_.wake_pressure_min) {
      Spread();
    } else if (!consolidate_gated &&
               pressure <= params_.consolidate_pressure_max) {
      Consolidate();
    }
    // A drained node powers down whenever pressure sits below the spread
    // threshold — spread is the only thing that would repopulate it, so
    // gating on the tighter consolidation threshold would strand empty
    // nodes at full platform power once the receiver's pressure rises
    // past it.
    if (pressure < params_.wake_pressure_min) MaybePowerDown();
  }
  simulator_->ScheduleAfter(params_.interval, [this] { Tick(); });
}

bool ClusterEcl::TryWake(double pressure) {
  hwsim::Cluster& cluster = engine_->cluster();
  // Stranded backlog: work that shipped toward a node which powered down
  // before the pressure signal reflects it sits in that node's queues
  // with no engine serving them. Backlog on ON nodes is just queueing —
  // the pressure signal covers it — and must not count, or any standing
  // queue would instantly undo every power-down.
  double backlog = 0.0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.IsOn(n)) backlog += engine_->BacklogOps(n);
  }
  const bool hard = pressure >= params_.wake_pressure_hard;
  const bool wanted = hard || pressure >= params_.wake_pressure_min ||
                      backlog >= params_.wake_backlog_ops;
  if (!wanted) return false;
  // A boot already in flight is the wake in progress; only hard pressure
  // stacks another node on top of it.
  if (!hard) {
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      if (cluster.state(n) == hwsim::Cluster::NodeState::kBooting) {
        return false;
      }
    }
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.state(n) != hwsim::Cluster::NodeState::kOff) continue;
    // Crashed hardware is not spare capacity: waking it would burn a boot
    // and give nothing back. The wake hysteresis only sees healthy nodes.
    if (cluster.IsFailed(n)) continue;
    ++wakes_;
    if (params_.telemetry != nullptr) {
      params_.telemetry->trace().Instant(
          trace_lane_, "cluster", "wake", simulator_->now(),
          "\"node\":" + std::to_string(n) +
              ",\"pressure\":" + telemetry::JsonNumber(pressure) +
              ",\"backlog\":" + telemetry::JsonNumber(backlog));
    }
    cluster.PowerUp(n, [this, n] {
      if (on_booted_ != nullptr) on_booted_(n);
    });
    return true;
  }
  return false;
}

void ClusterEcl::Consolidate() {
  hwsim::Cluster& cluster = engine_->cluster();
  engine::PlacementMap& placement = engine_->placement();

  // Donor: least-loaded ON node still homing partitions; receiver: the
  // most-loaded other ON node. Ties resolve to the lower node id.
  NodeId donor = -1, receiver = -1;
  double donor_load = 0.0, receiver_load = 0.0;
  int populated_on = 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.IsOn(n) || placement.PartitionsOn(n) == 0) continue;
    ++populated_on;
    const double l = load_(n);
    if (donor == -1 || l < donor_load) {
      donor = n;
      donor_load = l;
    }
  }
  if (populated_on < 2) return;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (n == donor || !cluster.IsOn(n) || placement.PartitionsOn(n) == 0) {
      continue;
    }
    const double l = load_(n);
    if (receiver == -1 || l > receiver_load) {
      receiver = n;
      receiver_load = l;
    }
  }
  if (donor_load > params_.donor_load_max) return;
  if (receiver_load + donor_load > params_.target_load_ceiling) return;

  const std::vector<PartitionId> parts = placement.PartitionsOf(donor);
  const int moves = std::min<int>(params_.migrations_per_tick,
                                  static_cast<int>(parts.size()));
  int started = 0;
  for (int i = 0; i < moves; ++i) {
    if (engine_->StartMigration(parts[static_cast<size_t>(i)], receiver)) {
      ++consolidation_moves_;
      last_direction_ = Direction::kConsolidate;
      ++started;
    }
  }
  if (started > 0 && params_.telemetry != nullptr) {
    params_.telemetry->trace().Instant(
        trace_lane_, "cluster", "consolidate_batch", simulator_->now(),
        "\"donor\":" + std::to_string(donor) +
            ",\"receiver\":" + std::to_string(receiver) +
            ",\"migrations\":" + std::to_string(started));
  }
}

void ClusterEcl::Spread() {
  hwsim::Cluster& cluster = engine_->cluster();
  engine::PlacementMap& placement = engine_->placement();

  // Push partitions from the fullest ON node onto the emptiest ON node
  // (typically one just woken, holding nothing), preferring partitions
  // whose initial home was the destination.
  NodeId src = -1, dst = -1;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.IsOn(n)) continue;
    if (src == -1 || placement.PartitionsOn(n) > placement.PartitionsOn(src)) {
      src = n;
    }
    if (dst == -1 || placement.PartitionsOn(n) < placement.PartitionsOn(dst)) {
      dst = n;
    }
  }
  if (src == -1 || dst == -1 || src == dst ||
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
  const int moves =
      std::min<int>({params_.spread_migrations_per_tick, gap / 2,
                     static_cast<int>(candidates.size())});
  int started = 0;
  for (int i = 0; i < moves; ++i) {
    if (engine_->StartMigration(candidates[static_cast<size_t>(i)], dst)) {
      ++spread_moves_;
      last_direction_ = Direction::kSpread;
      ++started;
    }
  }
  if (started > 0 && params_.telemetry != nullptr) {
    params_.telemetry->trace().Instant(
        trace_lane_, "cluster", "spread_batch", simulator_->now(),
        "\"src\":" + std::to_string(src) + ",\"dst\":" + std::to_string(dst) +
            ",\"migrations\":" + std::to_string(started));
  }
}

void ClusterEcl::MaybePowerDown() {
  hwsim::Cluster& cluster = engine_->cluster();
  engine::PlacementMap& placement = engine_->placement();
  if (cluster.NodesOn() <= params_.min_nodes_on) return;
  // Crash recovery in progress: survivors are absorbing re-homed
  // partitions and retries; do not shrink capacity into that transient.
  if (cluster.last_crash_time() >= 0 &&
      simulator_->now() - cluster.last_crash_time() < kCrashRecoveryHold) {
    return;
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.IsFailed(n)) return;
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.IsOn(n)) continue;
    if (placement.PartitionsOn(n) != 0) continue;
    if (engine_->NodeInvolvedInMigration(n)) continue;
    // The fluid scheduler can leave a sub-operation float residue in a
    // drained queue; anything below one operation is numerical noise, not
    // pending work.
    if (engine_->BacklogOps(n) >= 1.0) continue;
    // Boot-amortisation half of the hysteresis: a node that just booted
    // must stay on long enough that the boot energy was not wasted.
    if (simulator_->now() - cluster.StateSince(n) < params_.min_on_time) {
      continue;
    }
    if (on_power_down_ != nullptr) on_power_down_(n);
    cluster.PowerDown(n);
    ++power_downs_;
    if (params_.telemetry != nullptr) {
      params_.telemetry->trace().Instant(trace_lane_, "cluster", "power_down",
                                         simulator_->now(),
                                         "\"node\":" + std::to_string(n));
    }
    return;  // at most one power-down per tick
  }
}

}  // namespace ecldb::ecl
