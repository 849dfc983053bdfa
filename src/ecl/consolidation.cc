#include "ecl/consolidation.h"

#include <utility>

#include "common/check.h"

namespace ecldb::ecl {

/// Consolidate only while latency pressure is at or below this.
constexpr double kConsolidatePressureMax = 0.15;
/// Spread partitions back as soon as pressure reaches this. Must sit above
/// the pressure band of normal low-load operation (RTI batching alone
/// produces window means of ~0.3-0.45x the limit) or the policy
/// oscillates, yet far enough below 1.0 that capacity is restored before
/// the limit is actually violated.
constexpr double kSpreadPressureMin = 0.5;
/// The post-migration hold does not gamble with the latency limit: at or
/// above this pressure the policy spreads immediately regardless of dwell.
constexpr double kSpreadPressureHard = 0.9;

ConsolidationPolicy::ConsolidationPolicy(sim::Simulator* simulator,
                                         engine::Engine* engine,
                                         SystemEcl* system, LoadFn load,
                                         const ConsolidationParams& params)
    : simulator_(simulator),
      engine_(engine),
      system_(system),
      params_(params),
      packer_(simulator, &engine->placement(),
              {.eligible = [](SocketId) { return true; },
               .load = std::move(load),
               .migrate =
                   [engine](PartitionId p, SocketId to) {
                     return engine->migrator().StartMigration(p, to);
                   },
               .completed_migrations =
                   [engine] { return engine->migrator().completed(); }},
              params,
              params.telemetry != nullptr
                  ? params.telemetry->trace().RegisterLane("ecl/consolidation")
                  : 0,
              "ecl") {
  ECLDB_CHECK(simulator != nullptr && engine != nullptr && system != nullptr);
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("ecl/consolidation/ticks", [this] { return ticks_; });
    reg.AddCounterFn("ecl/consolidation/consolidation_moves",
                     [this] { return consolidation_moves(); });
    reg.AddCounterFn("ecl/consolidation/spread_moves",
                     [this] { return spread_moves(); });
  }
}

void ConsolidationPolicy::Start() {
  running_ = true;
  // Offset from the socket ECL ticks (which start at t+1ns) so a tick
  // observes the performance levels of a finished control interval.
  simulator_->ScheduleAfter(params_.interval, [this] { Tick(); });
}

void ConsolidationPolicy::Tick() {
  if (!running_) return;
  ++ticks_;
  // One batch of migrations at a time: placement decisions are made on
  // post-migration load observations, not on projections of projections.
  packer_.ObserveMigrations();
  if (engine_->migrator().active() == 0) {
    const double pressure = system_->pressure();
    // The post-migration dwell holds reversals only; hard pressure (the
    // limit is genuinely threatened) spreads regardless of it.
    using Direction = PlacementPacker::Direction;
    if (pressure >= kSpreadPressureHard ||
        (!packer_.Holds(Direction::kSpread) &&
         pressure >= kSpreadPressureMin)) {
      packer_.Spread();
    } else if (!packer_.Holds(Direction::kConsolidate) &&
               pressure <= kConsolidatePressureMax) {
      packer_.Consolidate();
    }
  }
  simulator_->ScheduleAfter(params_.interval, [this] { Tick(); });
}

}  // namespace ecldb::ecl
