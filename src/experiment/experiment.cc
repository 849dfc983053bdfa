#include "experiment/experiment.h"

#include <sstream>

#include "experiment/node_rig.h"
#include "experiment/run_sampler.h"

namespace ecldb::experiment {
namespace {

/// Compact description of a configuration for result tables
/// ("12 thr @ 1.2 GHz, uncore 3.0").
std::string DescribeConfig(const hwsim::Topology& topo,
                           const profile::Configuration& c) {
  std::ostringstream out;
  out << c.hw.ActiveThreadCount() << " thr @ ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", c.hw.MeanActiveCoreFreq(topo));
  out << buf << " GHz, uncore ";
  std::snprintf(buf, sizeof(buf), "%.1f", c.hw.uncore_freq_ghz);
  out << buf;
  return out.str();
}

/// Package + DRAM energy of one socket in joules.
double SocketEnergyJ(const hwsim::Machine& machine, SocketId s) {
  return 1e-6 *
         static_cast<double>(machine.ReadRaplUj(s, hwsim::RaplDomain::kPackage) +
                             machine.ReadRaplUj(s, hwsim::RaplDomain::kDram));
}

}  // namespace

RunResult RunLoadExperiment(const WorkloadFactory& factory,
                            const workload::LoadProfile& profile,
                            const RunOptions& options) {
  NodeRig rig(factory, options);
  RunSampler sampler(options.telemetry, &rig.simulator(),
                     options.sample_period);
  sim::Simulator& simulator = rig.simulator();
  hwsim::Machine& machine = rig.machine();
  engine::Engine& engine = rig.engine();
  ecl::EnergyControlLoop* const loop = rig.loop();
  rig.Prime();

  workload::DriverParams driver_params;
  driver_params.capacity_qps = rig.capacity();
  driver_params.seed = options.driver_seed;
  workload::LoadDriver driver(
      &simulator, [&rig](const engine::QuerySpec& s) { rig.Submit(s); },
      &rig.workload(), &profile, driver_params);

  RunResult result;
  result.capacity_qps = rig.capacity();
  const SimTime run_start = simulator.now();
  const double e0 = machine.TotalEnergyJoules();
  driver.Start();

  // The time series (Figs. 11, 13-15). Power is averaged over the sample
  // period (an instantaneous read would alias with the RTI switching
  // phase); ECL columns read 0 in baseline mode.
  const hwsim::Topology& topo = options.machine.topology;
  telemetry::MetricRegistry& reg = sampler.registry();
  reg.AddGauge("exp/offered_qps", [&driver, &simulator] {
    return driver.OfferedQps(simulator.now());
  });
  sampler.AddPowerGauge("exp/rapl_power_w",
                        [&machine] { return machine.TotalEnergyJoules(); });
  reg.AddGauge("exp/latency_window_ms",
               [&rig] { return rig.LatencyWindowMs(); });
  reg.AddGauge("exp/active_threads",
               [&rig] { return static_cast<double>(rig.Width()); });
  reg.AddGauge("exp/perf_level_frac", [loop] {
    return loop != nullptr ? loop->MeanPerfLevelFrac() : 0.0;
  });
  reg.AddGauge("exp/utilization", [loop] {
    if (loop == nullptr) return 0.0;
    double util = 0.0;
    for (int sk = 0; sk < loop->num_sockets(); ++sk) {
      util += loop->socket(sk).last_utilization();
    }
    return util / loop->num_sockets();
  });
  for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
    const std::string base = "exp/socket" + std::to_string(sk) + "/";
    sampler.AddPowerGauge(base + "power_w", [&machine, sk] {
      return SocketEnergyJ(machine, sk);
    });
    reg.AddGauge(base + "partitions", [&engine, sk] {
      return static_cast<double>(engine.placement().PartitionsOn(sk));
    });
  }
  sampler.Start(run_start);

  // Run the profile plus drain time for in-flight queries.
  simulator.RunUntil(run_start + profile.duration());
  result.series = sampler.Stop();
  const double e1 = machine.TotalEnergyJoules();
  simulator.RunFor(Seconds(5));  // drain

  result.duration_s = ToSeconds(profile.duration());
  result.energy_j = e1 - e0;
  result.avg_power_w = result.energy_j / result.duration_s;
  result.submitted = driver.submitted();
  result.completed = engine.latency().completed();
  const PercentileTracker& lat = engine.latency().all();
  result.mean_ms = lat.Mean();
  result.p50_ms = lat.Percentile(50);
  result.p95_ms = lat.Percentile(95);
  result.p99_ms = lat.Percentile(99);
  result.max_ms = lat.Max();
  result.violation_frac =
      lat.FractionAbove(options.ecl.system.latency_limit_ms);
  result.migrations = engine.migrator().completed();
  result.migration_bytes = engine.migrator().bytes_moved();
  for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
    result.stale_forwards += engine.socket_msg_stats(sk).stale_forwards;
  }
  if (loop != nullptr) {
    const profile::EnergyProfile& p = loop->socket(0).profile();
    const int best = p.MostEfficientIndex();
    if (best >= 0) result.best_config = DescribeConfig(topo, p.config(best));
    if (loop->consolidation() != nullptr) {
      result.consolidation_moves = loop->consolidation()->consolidation_moves();
      result.spread_moves = loop->consolidation()->spread_moves();
    }
  }
  rig.StopEcls();
  // Snapshot the registry while the run's objects are still alive; gauges
  // and counter functions reference them and must not be read later.
  if (options.telemetry != nullptr) {
    result.telemetry_dump = options.telemetry->registry().Dump();
  }
  return result;
}

}  // namespace ecldb::experiment
