#ifndef ECLDB_EXPERIMENT_RUN_SAMPLER_H_
#define ECLDB_EXPERIMENT_RUN_SAMPLER_H_

#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::experiment {

/// The one time-series sampler of an experiment run: the telemetry gauge
/// sampler. Runners register their `exp/*` gauges on registry(), Start at
/// measurement start and Stop at its end. The gauges land on the caller's
/// telemetry when the run options carry one; otherwise on a run-local
/// enabled telemetry that no layer ever sees, so a run without caller
/// telemetry keeps its instrumentation, event stream and results.
class RunSampler {
 public:
  /// Aborts when the caller's telemetry is disabled (it would sample an
  /// empty series) or samples at a period other than `period` (the power
  /// gauges divide each energy delta by `period`).
  RunSampler(telemetry::Telemetry* caller, sim::Simulator* simulator,
             SimDuration period);

  telemetry::MetricRegistry& registry() { return tel_->registry(); }

  /// Registers a gauge reporting the average power over the last sample
  /// period of the cumulative joule counter `energy_j`.
  void AddPowerGauge(const std::string& name,
                     const std::function<double()>& energy_j);

  void Start(SimTime origin) { tel_->StartSampler(origin); }
  /// Stops sampling and returns the series recorded since Start.
  telemetry::Series Stop();

 private:
  std::unique_ptr<telemetry::Telemetry> local_;
  telemetry::Telemetry* tel_;
  SimDuration period_;
};

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_RUN_SAMPLER_H_
