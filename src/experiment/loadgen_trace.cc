#include "experiment/loadgen_trace.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "experiment/cluster_rig.h"
#include "experiment/drain.h"
#include "experiment/node_rig.h"
#include "experiment/run_sampler.h"
#include "faultsim/fault_injector.h"

namespace ecldb::experiment {
namespace {

/// Folds the loadgen's per-class accounting into the result struct.
void FillLoadgenStats(const loadgen::LoadGen& lg, SloRunResult* result) {
  const loadgen::SloTracker& slo = lg.slo();
  const loadgen::AdmissionController& adm = lg.admission();
  result->arrivals = lg.arrivals();
  result->admitted = adm.total_admitted();
  result->shed = adm.total_shed();
  result->completed = slo.total_completed();
  result->failed = lg.failed();
  result->retries = lg.retries();
  result->abandoned = lg.abandoned();
  // Admission counts retry re-offers too, so per-class arrivals come from
  // the tenants' fresh-arrival counters.
  for (size_t t = 0; t < lg.num_tenants(); ++t) {
    const auto c = static_cast<size_t>(lg.tenant_spec(t).slo_class);
    result->classes[c].arrivals += lg.tenant_arrivals(t);
  }
  double mean_weighted = 0.0;
  for (int i = 0; i < loadgen::kNumSloClasses; ++i) {
    const auto c = static_cast<loadgen::SloClass>(i);
    SloClassStats& out = result->classes[static_cast<size_t>(i)];
    out.admitted = adm.admitted(c);
    out.shed = adm.shed(c);
    out.completed = slo.completed(c);
    out.violations = slo.violations(c);
    out.mean_ms = slo.latency(c).Mean();
    out.tail_ms = slo.TailLatencyMs(c);
    out.deadline_ms = slo.class_params(c).deadline_ms;
    out.target_percentile = slo.class_params(c).target_percentile;
    out.slo_met = slo.SloMet(c);
    mean_weighted += static_cast<double>(out.completed) * out.mean_ms;
    result->p99_ms =
        std::max(result->p99_ms, slo.latency(c).Percentile(99));
  }
  if (result->completed > 0) {
    result->mean_ms = mean_weighted / static_cast<double>(result->completed);
  }
}

/// The SLO runner body over either rig (NodeRig or ClusterRig, which
/// offer the same calls): loadgen wiring, the measured window with its
/// `exp/*` gauges, the drain and the result fill. `at_start`, when set,
/// runs at measurement start, just before the loadgen starts.
template <typename Rig>
SloRunResult RunSlo(Rig& rig, const loadgen::LoadGenParams& loadgen_params,
                    double total_load, bool admission_enabled,
                    const std::function<void(SimTime)>& at_start = nullptr) {
  telemetry::Telemetry* const tel = rig.telemetry();
  const SimDuration period = rig.options().sample_period;
  RunSampler sampler(tel, &rig.simulator(), period);
  sim::Simulator& simulator = rig.simulator();
  rig.Prime();

  loadgen::LoadGenParams lg_params = loadgen_params;
  if (lg_params.telemetry == nullptr) lg_params.telemetry = tel;
  loadgen::LoadGen lg(&simulator, &rig.workload(), lg_params);
  lg.NormalizeToCapacity(rig.capacity(), total_load);
  lg.SetSubmitFn([&rig](engine::QuerySpec&& spec) { rig.Submit(spec); });
  rig.SetCompletionCallback(
      [&lg](int8_t cls, SimTime arrival, SimTime completion) {
        lg.OnQueryComplete(cls, arrival, completion);
      });
  rig.SetFailureCallback([&lg](int8_t cls, int16_t tenant, int8_t attempt,
                               SimTime arrival, engine::FailReason reason) {
    lg.OnQueryFailed(cls, tenant, attempt, arrival, reason);
  });
  if (admission_enabled) {
    lg.admission().SetPressureSource([&rig] { return rig.Pressure(); });
    rig.SetShedSignal([&lg, &simulator] {
      return lg.admission().RecentShedFraction(simulator.now());
    });
  }

  SloRunResult result;
  result.capacity_qps = rig.capacity();
  const SimTime run_start = simulator.now();
  if (at_start) at_start(run_start);
  const double e0 = rig.EnergyJ();
  lg.Start();

  telemetry::MetricRegistry& reg = sampler.registry();
  reg.AddGauge("exp/offered_qps",
               [&lg, &simulator] { return lg.OfferedQps(simulator.now()); });
  sampler.AddPowerGauge("exp/power_w", [&rig] { return rig.EnergyJ(); });
  reg.AddGauge("exp/latency_window_ms",
               [&rig] { return rig.LatencyWindowMs(); });
  reg.AddGauge("exp/pressure", [&rig] { return rig.Pressure(); });
  reg.AddGauge("exp/shed_fraction", [&lg, &simulator] {
    return lg.admission().RecentShedFraction(simulator.now());
  });
  reg.AddGauge("exp/width",
               [&rig] { return static_cast<double>(rig.Width()); });
  sampler.Start(run_start);

  simulator.RunUntil(run_start + loadgen_params.duration);
  result.series = sampler.Stop();
  const double e1 = rig.EnergyJ();
  // A submission resolves as a completion or a typed failure — the drain
  // counts both, so a failed query never spins the watchdog, and names
  // the backlog when they fall short.
  result.drained = DrainToCompletion(
      simulator,
      [&lg] { return lg.slo().total_completed() + lg.failed(); },
      lg.submitted(), Seconds(120), Seconds(45),
      [&rig] { return rig.DescribeBacklog(); });

  result.duration_s = ToSeconds(loadgen_params.duration);
  result.energy_j = e1 - e0;
  result.avg_power_w = result.energy_j / result.duration_s;
  FillLoadgenStats(lg, &result);
  rig.StopEcls();
  if (tel != nullptr) result.telemetry_dump = tel->registry().Dump();
  return result;
}

}  // namespace

SloRunResult RunSloExperiment(const WorkloadFactory& factory,
                              const SloRunOptions& options) {
  NodeRig rig(factory, options.run);
  return RunSlo(rig, options.loadgen, options.total_load,
                options.admission_enabled);
}

SloRunResult RunClusterSloExperiment(const ClusterWorkloadFactory& factory,
                                     const ClusterSloRunOptions& options) {
  ClusterRig rig(factory, options.cluster);
  // Scripted faults: shift the schedule (authored relative to measurement
  // start) to absolute virtual time and arm. The injector's node hooks
  // mirror the cluster ECL's: a crash stops the dead node's ECL before the
  // engine recovery runs, a completed restart boots it again.
  std::unique_ptr<faultsim::FaultInjector> injector;
  auto arm_faults = [&](SimTime run_start) {
    if (options.faults.empty()) return;
    faultsim::FaultInjectorParams fi_params;
    fi_params.schedule = options.faults;
    for (faultsim::FaultEvent& e : fi_params.schedule.events) {
      e.at += run_start;
    }
    fi_params.telemetry = rig.telemetry();
    injector = std::make_unique<faultsim::FaultInjector>(
        &rig.simulator(), &rig.cluster(), &rig.cengine(), fi_params);
    injector->SetNodeHooks(
        [&rig](NodeId n) { rig.node_ecl(n).Stop(); },
        [&rig](NodeId n) { rig.node_ecl(n).Start(); });
    injector->Arm();
  };
  return RunSlo(rig, options.loadgen, options.total_load,
                options.admission_enabled, arm_faults);
}

}  // namespace ecldb::experiment
