#include "experiment/cluster_trace.h"

#include <algorithm>

#include "experiment/cluster_rig.h"
#include "experiment/drain.h"
#include "experiment/run_sampler.h"

namespace ecldb::experiment {

ClusterRunResult RunClusterExperiment(const ClusterWorkloadFactory& factory,
                                      const workload::LoadProfile& profile,
                                      const ClusterRunOptions& options) {
  ClusterRig rig(factory, options);
  RunSampler sampler(options.telemetry, &rig.simulator(),
                     options.sample_period);
  sim::Simulator& simulator = rig.simulator();
  hwsim::Cluster& cluster = rig.cluster();
  engine::ClusterEngine& cengine = rig.cengine();
  const int num_nodes = rig.num_nodes();
  const double capacity = rig.capacity();

  rig.Prime();

  workload::DriverParams driver_params;
  driver_params.capacity_qps = capacity;
  driver_params.seed = options.driver_seed;
  // Queries enter through the rig's routing mode (ClusterRig::EntryNodeFor).
  workload::LoadDriver driver(
      &simulator, [&rig](const engine::QuerySpec& s) { rig.Submit(s); },
      &rig.workload(), &profile, driver_params);

  ClusterRunResult result;
  result.capacity_qps = capacity;
  const SimTime run_start = simulator.now();
  const double e0 = cluster.TotalEnergyJoules();
  driver.Start();

  telemetry::MetricRegistry& reg = sampler.registry();
  reg.AddGauge("exp/cluster/offered_qps", [&driver, &simulator] {
    return driver.OfferedQps(simulator.now());
  });
  sampler.AddPowerGauge("exp/cluster/power_w",
                        [&rig] { return rig.EnergyJ(); });
  reg.AddGauge("exp/cluster/nodes_on",
               [&rig] { return static_cast<double>(rig.Width()); });
  sampler.Start(run_start);

  simulator.RunUntil(run_start + profile.duration());
  result.series = sampler.Stop();
  const double e1 = cluster.TotalEnergyJoules();
  DrainToCompletion(
      simulator, [&cengine] { return cengine.CompletedQueries(); },
      driver.submitted());

  result.duration_s = ToSeconds(profile.duration());
  result.energy_j = e1 - e0;
  result.avg_power_w = result.energy_j / result.duration_s;
  result.submitted = driver.submitted();
  result.completed = cengine.CompletedQueries();
  const double limit_ms = options.node_ecl.system.latency_limit_ms;
  double mean_weighted = 0.0;
  double violation_weighted = 0.0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const engine::LatencyTracker& lt = cengine.node_engine(n).latency();
    const double w = static_cast<double>(lt.completed());
    mean_weighted += w * lt.all().Mean();
    violation_weighted += w * lt.all().FractionAbove(limit_ms);
    result.p99_ms = std::max(result.p99_ms, lt.all().Percentile(99));
    result.max_ms = std::max(result.max_ms, lt.all().Max());
  }
  if (result.completed > 0) {
    mean_weighted /= static_cast<double>(result.completed);
    violation_weighted /= static_cast<double>(result.completed);
  }
  result.mean_ms = mean_weighted;
  result.violation_frac = violation_weighted;
  result.power_downs = cluster.power_downs();
  result.wakes = cluster.power_ups();
  result.node_migrations = cengine.migrations_completed();
  result.cancelled_migrations = cengine.migrations_cancelled();
  result.remote_sends = cengine.remote_sends();
  result.stale_forwards = cengine.stale_forwards();

  rig.StopEcls();
  if (options.telemetry != nullptr) {
    result.telemetry_dump = options.telemetry->registry().Dump();
  }
  return result;
}

}  // namespace ecldb::experiment
