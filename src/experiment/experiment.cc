#include "experiment/experiment.h"

#include <algorithm>

#include "experiment/drain.h"
#include "experiment/run_sampler.h"
#include "workload/driver.h"

namespace ecldb::experiment {
namespace {

/// A LoadProfile's traffic: a LoadDriver entering queries through the
/// rig at the rig's capacity. The rig accounts for the queries.
template <typename Rig>
class ProfileSource {
 public:
  ProfileSource(Rig& rig, const workload::LoadProfile& profile)
      : rig_(rig),
        profile_(profile),
        driver_(&rig.simulator(),
                [&rig](const engine::QuerySpec& s) { rig.Submit(s); },
                &rig.workload(), &profile, DriverParams(rig)) {}

  void Start() { driver_.Start(); }
  SimDuration duration() const { return profile_.duration(); }
  double OfferedQps(SimTime t) const { return driver_.OfferedQps(t); }
  void AddGauges(telemetry::MetricRegistry&) {}
  int64_t submitted() const { return driver_.submitted(); }
  int64_t resolved() const { return rig_.Resolved(); }
  void ReadQueries(RunResult* result) const {
    result->submitted = driver_.submitted();
    rig_.ReadQueries(result);
  }

 private:
  static workload::DriverParams DriverParams(const Rig& rig) {
    workload::DriverParams params;
    params.capacity_qps = rig.capacity();
    params.seed = rig.options().driver_seed;
    return params;
  }

  Rig& rig_;
  const workload::LoadProfile& profile_;
  workload::LoadDriver driver_;
};

/// SloTraffic: the loadgen's tenants, wired to the rig's completions,
/// failures and (with admission on) pressure. The loadgen accounts for the
/// queries, per SLO class.
template <typename Rig>
class LoadGenSource {
 public:
  LoadGenSource(Rig& rig, const SloTraffic& traffic)
      : simulator_(rig.simulator()),
        duration_(traffic.loadgen.duration),
        lg_(&simulator_, &rig.workload(), Params(rig, traffic.loadgen)) {
    lg_.NormalizeToCapacity(rig.capacity(), traffic.total_load);
    lg_.SetSubmitFn([&rig](engine::QuerySpec&& spec) { rig.Submit(spec); });
    rig.SetCompletionCallback(
        [this](int8_t cls, SimTime arrival, SimTime completion) {
          lg_.OnQueryComplete(cls, arrival, completion);
        });
    rig.SetFailureCallback([this](int8_t cls, int16_t tenant, int8_t attempt,
                                  SimTime arrival, engine::FailReason reason) {
      lg_.OnQueryFailed(cls, tenant, attempt, arrival, reason);
    });
    if (traffic.admission_enabled) {
      lg_.admission().SetPressureSource([&rig] { return rig.Pressure(); });
      rig.SetShedSignal([this] { return ShedFraction(); });
    }
  }
  LoadGenSource(const LoadGenSource&) = delete;
  LoadGenSource& operator=(const LoadGenSource&) = delete;

  void Start() { lg_.Start(); }
  SimDuration duration() const { return duration_; }
  double OfferedQps(SimTime t) const { return lg_.OfferedQps(t); }
  void AddGauges(telemetry::MetricRegistry& reg) {
    reg.AddGauge("exp/shed_fraction", [this] { return ShedFraction(); });
  }
  int64_t submitted() const { return lg_.submitted(); }
  int64_t resolved() const {
    return lg_.slo().total_completed() + lg_.failed();
  }
  void ReadQueries(RunResult* result) const;

 private:
  static loadgen::LoadGenParams Params(Rig& rig,
                                       loadgen::LoadGenParams params) {
    if (params.telemetry == nullptr) params.telemetry = rig.telemetry();
    return params;
  }
  double ShedFraction() const {
    return lg_.admission().RecentShedFraction(simulator_.now());
  }

  sim::Simulator& simulator_;
  SimDuration duration_;
  loadgen::LoadGen lg_;
};

template <typename Rig>
void LoadGenSource<Rig>::ReadQueries(RunResult* result) const {
  const loadgen::SloTracker& slo = lg_.slo();
  const loadgen::AdmissionController& adm = lg_.admission();
  result->submitted = lg_.submitted();
  result->completed = slo.total_completed();
  result->failed = lg_.failed();
  result->arrivals = lg_.arrivals();
  result->admitted = adm.total_admitted();
  result->shed = adm.total_shed();
  result->retries = lg_.retries();
  result->abandoned = lg_.abandoned();
  // Admission counts retry re-offers too, so per-class arrivals come from
  // the tenants' fresh-arrival counters.
  for (size_t t = 0; t < lg_.num_tenants(); ++t) {
    const auto c = static_cast<size_t>(lg_.tenant_spec(t).slo_class);
    result->classes[c].arrivals += lg_.tenant_arrivals(t);
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
    result->p99_ms = std::max(result->p99_ms, slo.latency(c).Percentile(99));
  }
  if (result->completed > 0) {
    result->mean_ms = mean_weighted / static_cast<double>(result->completed);
  }
}

/// The one runner body, over either rig and either traffic source.
template <typename Source, typename Rig, typename Traffic>
RunResult RunOn(Rig& rig, const Traffic& traffic) {
  telemetry::Telemetry* const tel = rig.telemetry();
  RunSampler sampler(tel, &rig.simulator(), rig.options().sample_period);
  sim::Simulator& simulator = rig.simulator();
  rig.Prime();
  Source source(rig, traffic);

  RunResult result;
  result.capacity_qps = rig.capacity();
  const SimTime run_start = simulator.now();
  const double e0 = rig.EnergyJ();
  source.Start();

  // The time series (Figs. 11, 13-15). Power is averaged over the sample
  // period (an instantaneous read would alias with the RTI switching
  // phase).
  telemetry::MetricRegistry& reg = sampler.registry();
  reg.AddGauge("exp/offered_qps", [&source, &simulator] {
    return source.OfferedQps(simulator.now());
  });
  sampler.AddPowerGauge("exp/power_w", [&rig] { return rig.EnergyJ(); });
  reg.AddGauge("exp/latency_window_ms",
               [&rig] { return rig.LatencyWindowMs(); });
  reg.AddGauge("exp/pressure", [&rig] { return rig.Pressure(); });
  source.AddGauges(reg);
  reg.AddGauge("exp/width",
               [&rig] { return static_cast<double>(rig.Width()); });
  rig.AddGauges(sampler);
  sampler.Start(run_start);

  simulator.RunUntil(run_start + source.duration());
  result.series = sampler.Stop();
  result.duration_s = ToSeconds(source.duration());
  result.energy_j = rig.EnergyJ() - e0;
  result.avg_power_w = result.energy_j / result.duration_s;
  rig.ReadCounters(&result);
  // A submission resolves as a completion or a typed failure: the drain
  // counts both, so a failed query never spins the watchdog, and names
  // the backlog when they fall short.
  result.drained = DrainToCompletion(
      simulator, [&source] { return source.resolved(); }, source.submitted(),
      Seconds(120), Seconds(45), [&rig] { return rig.DescribeBacklog(); });
  source.ReadQueries(&result);

  rig.StopEcls();
  // Snapshot the registry while the run's objects are still alive; gauges
  // and counter functions reference them and must not be read later.
  if (tel != nullptr) result.telemetry_dump = tel->registry().Dump();
  return result;
}

}  // namespace

RunResult Run(NodeRig& rig, const workload::LoadProfile& traffic) {
  return RunOn<ProfileSource<NodeRig>>(rig, traffic);
}

RunResult Run(NodeRig& rig, const SloTraffic& traffic) {
  return RunOn<LoadGenSource<NodeRig>>(rig, traffic);
}

RunResult Run(ClusterRig& rig, const workload::LoadProfile& traffic) {
  return RunOn<ProfileSource<ClusterRig>>(rig, traffic);
}

RunResult Run(ClusterRig& rig, const SloTraffic& traffic) {
  return RunOn<LoadGenSource<ClusterRig>>(rig, traffic);
}

}  // namespace ecldb::experiment
