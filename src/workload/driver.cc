#include "workload/driver.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ecldb::workload {

LoadDriver::LoadDriver(sim::Simulator* simulator, SubmitFn submit,
                       Workload* workload, const LoadProfile* profile,
                       const DriverParams& params)
    : simulator_(simulator),
      submit_(std::move(submit)),
      workload_(workload),
      profile_(profile),
      params_(params),
      rng_(params.seed) {
  ECLDB_CHECK(simulator != nullptr && submit_ != nullptr &&
              workload != nullptr && profile != nullptr);
  ECLDB_CHECK(params.capacity_qps > 0.0);
}

LoadDriver::LoadDriver(sim::Simulator* simulator, engine::Engine* engine,
                       Workload* workload, const LoadProfile* profile,
                       const DriverParams& params)
    : LoadDriver(simulator,
                 [engine](const engine::QuerySpec& spec) {
                   engine->Submit(spec);
                 },
                 workload, profile, params) {
  ECLDB_CHECK(engine != nullptr);
}

void LoadDriver::Start() {
  start_time_ = simulator_->now();
  ScheduleNext();
}

void LoadDriver::ScheduleNext() {
  const SimTime now = simulator_->now();
  const SimTime rel = now - start_time_;
  if (rel >= profile_->duration()) return;

  const double rate = profile_->LoadAt(rel) * params_.capacity_qps;
  if (rate <= 1e-9) {
    // No load right now: re-check in 50 ms.
    simulator_->ScheduleAfter(Millis(50), [this] { ScheduleNext(); });
    return;
  }
  const SimDuration gap = std::max<SimDuration>(
      Nanos(100), static_cast<SimDuration>(rng_.NextExponential(rate) * 1e9));
  simulator_->ScheduleAfter(gap, [this] {
    const SimTime t = simulator_->now() - start_time_;
    if (t < profile_->duration()) {
      submit_(workload_->MakeQuery(rng_));
      ++submitted_;
    }
    ScheduleNext();
  });
}

}  // namespace ecldb::workload
