#include "ecl/cluster_ecl.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace ecldb::ecl {

/// After a node crash (hwsim::Cluster::Crash), hold all policy power-downs
/// this long: the survivors are absorbing the re-homed partitions and the
/// retrying crowd, and shrinking capacity into that transient turns a
/// fault into an overload. Failed nodes themselves are never wake
/// candidates until the fault schedule clears them.
constexpr SimDuration kCrashRecoveryHold = Seconds(30);
/// Consolidate across nodes only while every ON node's latency pressure is
/// at or below this.
constexpr double kConsolidatePressureMax = 0.15;
/// Wake an off node at this pressure. Deliberately BELOW the in-box spread
/// threshold (0.5): new capacity arrives a whole boot latency after the
/// decision, so the wake must lead the pressure ramp instead of reacting
/// to it — the boot-latency-aware half of the hysteresis.
constexpr double kWakePressureMin = 0.35;
/// At or above this pressure a wake fires regardless of dwell state.
constexpr double kWakePressureHard = 0.9;
/// Never power below this many nodes.
constexpr int kMinNodesOn = 1;
static_assert(kMinNodesOn >= 1);

ClusterEcl::ClusterEcl(sim::Simulator* simulator,
                       engine::ClusterEngine* engine, LoadFn load,
                       PressureFn pressure, const ClusterEclParams& params)
    : simulator_(simulator),
      engine_(engine),
      pressure_(std::move(pressure)),
      params_(params),
      trace_lane_(params.telemetry != nullptr
                      ? params.telemetry->trace().RegisterLane("cluster/ecl")
                      : 0),
      packer_(simulator, &engine->placement(),
              {.eligible =
                   [engine](NodeId n) { return engine->cluster().IsOn(n); },
               .load = std::move(load),
               .migrate =
                   [engine](PartitionId p, NodeId to) {
                     return engine->StartMigration(p, to);
                   },
               .completed_migrations =
                   [engine] { return engine->migrations_completed(); }},
              params, trace_lane_, "cluster") {
  ECLDB_CHECK(simulator != nullptr && engine != nullptr);
  ECLDB_CHECK(pressure_ != nullptr);
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("cluster/ecl/ticks", [this] { return ticks_; });
    reg.AddCounterFn("cluster/ecl/consolidation_moves",
                     [this] { return consolidation_moves(); });
    reg.AddCounterFn("cluster/ecl/spread_moves",
                     [this] { return spread_moves(); });
    reg.AddCounterFn("cluster/ecl/power_downs",
                     [this] { return power_downs_; });
    reg.AddCounterFn("cluster/ecl/wakes", [this] { return wakes_; });
    reg.AddGauge("cluster/ecl/pressure", [this] { return ClusterPressure(); });
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
  packer_.ObserveMigrations();
  const double pressure = ClusterPressure();

  // Wakes run before anything else, every tick: capacity arrives a boot
  // latency late, so deferring a needed wake behind migration settling
  // would double the reaction time.
  const bool woke = TryWake(pressure);

  if (!woke && engine_->active_migrations() == 0) {
    using Direction = PlacementPacker::Direction;
    if (!packer_.Holds(Direction::kSpread) && pressure >= kWakePressureMin) {
      packer_.Spread();
    } else if (!packer_.Holds(Direction::kConsolidate) &&
               pressure <= kConsolidatePressureMax) {
      packer_.Consolidate();
    }
    // A drained node powers down whenever pressure sits below the spread
    // threshold — spread is the only thing that would repopulate it, so
    // gating on the tighter consolidation threshold would strand empty
    // nodes at full platform power once the receiver's pressure rises
    // past it.
    if (pressure < kWakePressureMin) MaybePowerDown();
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
  const bool hard = pressure >= kWakePressureHard;
  const bool wanted = hard || pressure >= kWakePressureMin ||
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

void ClusterEcl::MaybePowerDown() {
  hwsim::Cluster& cluster = engine_->cluster();
  engine::PlacementMap& placement = engine_->placement();
  if (cluster.NodesOn() <= kMinNodesOn) return;
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
