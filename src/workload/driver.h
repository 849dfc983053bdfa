#ifndef ECLDB_WORKLOAD_DRIVER_H_
#define ECLDB_WORKLOAD_DRIVER_H_

#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "engine/engine.h"
#include "sim/simulator.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

namespace ecldb::workload {

struct DriverParams {
  /// Queries per second at relative load 1.0. Usually
  /// BaselineCapacityQps(machine_params, workload).
  double capacity_qps = 1000.0;
  uint64_t seed = 4242;
};

/// Open-loop load driver: submits workload queries as a Poisson process
/// following a load profile (arrival rate = LoadAt(t) * capacity_qps).
/// Queries are submitted regardless of completion — overload phases
/// therefore build up backlog exactly as an external client population
/// would.
class LoadDriver {
 public:
  /// Where each generated query goes: one engine, or a rig's entry routing
  /// (e.g. experiment::ClusterRig::Submit).
  using SubmitFn = std::function<void(const engine::QuerySpec&)>;

  LoadDriver(sim::Simulator* simulator, SubmitFn submit, Workload* workload,
             const LoadProfile* profile, const DriverParams& params);
  /// Submits to `engine`.
  LoadDriver(sim::Simulator* simulator, engine::Engine* engine,
             Workload* workload, const LoadProfile* profile,
             const DriverParams& params);

  /// Schedules the arrival process starting at the current virtual time.
  /// The driver stops once the profile's duration has elapsed.
  void Start();

  int64_t submitted() const { return submitted_; }
  /// Offered load (queries/s) at a given time (for bench reporting).
  double OfferedQps(SimTime t) const {
    return profile_->LoadAt(t - start_time_) * params_.capacity_qps;
  }

 private:
  void ScheduleNext();

  sim::Simulator* simulator_;
  SubmitFn submit_;
  Workload* workload_;
  const LoadProfile* profile_;
  DriverParams params_;
  Rng rng_;
  SimTime start_time_ = 0;
  int64_t submitted_ = 0;
};

}  // namespace ecldb::workload

#endif  // ECLDB_WORKLOAD_DRIVER_H_
