#include "experiment/run_sampler.h"

#include "common/check.h"

namespace ecldb::experiment {

RunSampler::RunSampler(telemetry::Telemetry* caller, sim::Simulator* simulator,
                       SimDuration period)
    : tel_(caller), period_(period) {
  if (tel_ != nullptr) {
    ECLDB_CHECK_MSG(tel_->enabled(),
                    "run telemetry is disabled: its series would be empty");
    ECLDB_CHECK_MSG(tel_->params().sample_period == period,
                    "run telemetry sample_period differs from the run's "
                    "sample_period");
    return;
  }
  telemetry::TelemetryParams params;
  params.enabled = true;
  params.sample_period = period;
  params.trace_gauges = false;
  params.trace_capacity = 1;  // nothing records into a run-local trace
  local_ = std::make_unique<telemetry::Telemetry>(params);
  local_->Bind(simulator);
  tel_ = local_.get();
}

void RunSampler::AddPowerGauge(const std::string& name,
                               const std::function<double()>& energy_j) {
  auto last = std::make_shared<double>(energy_j());
  const SimDuration period = period_;
  registry().AddGauge(name, [energy_j, last, period] {
    const double e = energy_j();
    const double w = (e - *last) / ToSeconds(period);
    *last = e;
    return w;
  });
}

telemetry::Series RunSampler::Stop() {
  tel_->StopSampler();
  return tel_->series();
}

}  // namespace ecldb::experiment
