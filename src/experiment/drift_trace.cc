#include "experiment/drift_trace.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "ecl/ecl.h"
#include "engine/engine.h"
#include "experiment/node_rig.h"
#include "hwsim/machine.h"
#include "profile/serialization.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

namespace ecldb::experiment {

DriftTraceResult RunDriftTrace(const DriftTraceParams& params) {
  ECLDB_CHECK(!params.phases.empty());
  for (const DriftPhase& spec : params.phases) {
    ECLDB_CHECK(spec.tail <= spec.length);
  }

  RunOptions options;
  options.ecl.socket.predictor = params.predictor;
  options.prime_duration = params.prime;
  options.telemetry = params.telemetry;
  // The rig primes (profiles and, with the predictor on, its learn cache)
  // on the indexed workload it is given; the scan workload is built right
  // after it and parked here.
  std::unique_ptr<workload::KvWorkload> scan;
  NodeRig rig(
      [&scan](engine::Engine* engine) {
        workload::KvParams pi;
        pi.indexed = true;
        auto indexed = std::make_unique<workload::KvWorkload>(engine, pi);
        workload::KvParams ps;
        ps.indexed = false;
        scan = std::make_unique<workload::KvWorkload>(engine, ps);
        return indexed;
      },
      options);
  sim::Simulator& sim = rig.simulator();
  hwsim::Machine& machine = rig.machine();
  engine::Engine& engine = rig.engine();
  workload::Workload& indexed = rig.workload();
  ecl::EnergyControlLoop& loop = *rig.loop();
  const hwsim::MachineParams& machine_params = machine.params();
  rig.Prime();
  loop.SetAdaptation(params.online, params.multiplexed);

  if (!params.prime_learn_cache.empty()) {
    for (SocketId s = 0; s < loop.num_sockets(); ++s) {
      ecl::ProfilePredictor* pred = loop.socket(s).predictor();
      ECLDB_CHECK(pred != nullptr);
      ECLDB_CHECK(ecl::DeserializeLearnCache(
          params.prime_learn_cache,
          profile::LearnCacheFingerprint(loop.socket(s).profile(),
                                         machine_params),
          pred));
    }
  }

  ecl::SocketEcl& socket0 = loop.socket(0);
  const SimDuration stale_age = socket0.maintenance().params().stale_age;
  const double latency_limit_ms = rig.options().ecl.system.latency_limit_ms;

  const double cap_indexed = rig.capacity();
  const double cap_scan = workload::BaselineCapacityQps(machine_params, *scan);

  DriftTraceResult result;
  const double e0 = machine.TotalEnergyJoules();
  double e_prev = e0;

  // Drivers and their profiles must outlive the events they scheduled, so
  // they are parked here until the simulator is done.
  std::vector<std::unique_ptr<workload::ConstantProfile>> profiles;
  std::vector<std::unique_ptr<workload::LoadDriver>> drivers;

  for (const DriftPhase& spec : params.phases) {
    const bool is_scan = spec.workload == DriftWorkload::kScan;
    workload::Workload& wl = is_scan ? *scan : indexed;
    const int phase_secs = static_cast<int>(ToSeconds(spec.length));
    const int tail_secs = static_cast<int>(ToSeconds(spec.tail));

    DriftTracePhase ph;
    ph.workload = is_scan ? "kv-scan" : "kv-indexed";
    const double phase_e0 = machine.TotalEnergyJoules();
    const int64_t evals0 = socket0.maintenance().multiplexed_evals();
    const int64_t seeded0 = socket0.maintenance().predictor_seeded_configs();
    const int64_t drifts0 = socket0.maintenance().drift_flags();

    profiles.push_back(std::make_unique<workload::ConstantProfile>(
        spec.load, spec.length));
    workload::DriverParams dp;
    dp.capacity_qps = is_scan ? cap_scan : cap_indexed;
    drivers.push_back(std::make_unique<workload::LoadDriver>(
        &sim, &engine, &wl, profiles.back().get(), dp));
    drivers.back()->Start();

    bool drift_seen = false;
    double tail_e0 = phase_e0;
    for (int t = 1; t <= phase_secs; ++t) {
      if (t == phase_secs - tail_secs + 1) {
        tail_e0 = machine.TotalEnergyJoules();
        engine.latency().ResetRunStats();
      }
      sim.RunFor(Seconds(1));
      const double e = machine.TotalEnergyJoules();
      result.power_w.push_back(e - e_prev);
      e_prev = e;
      // Adaptation progress: a flagged drift floods the stale set
      // (InvalidateAll; predictor seeding may re-fill most of it within
      // the same interval, so the flag counter — not the stale count —
      // detects the switch); adaptation is over once multiplexed
      // reevaluation drained what stayed stale.
      const int stale = static_cast<int>(
          socket0.profile().StaleConfigs(sim.now(), stale_age).size());
      if (socket0.maintenance().drift_flags() > drifts0) drift_seen = true;
      if (drift_seen && ph.adapt_s < 0.0 && stale == 0) {
        ph.adapt_s = static_cast<double>(t);
      }
    }

    ph.evals = socket0.maintenance().multiplexed_evals() - evals0;
    ph.seeded = socket0.maintenance().predictor_seeded_configs() - seeded0;
    ph.energy_j = machine.TotalEnergyJoules() - phase_e0;
    ph.tail_energy_j = machine.TotalEnergyJoules() - tail_e0;
    ph.tail_mean_ms = engine.latency().all().Mean();
    ph.tail_p99_ms = engine.latency().all().Percentile(99);
    ph.tail_violation_frac =
        engine.latency().all().FractionAbove(latency_limit_ms);
    const int best = socket0.profile().MostEfficientIndex();
    if (best >= 0) ph.best_config = socket0.profile().config(best);
    result.phases.push_back(std::move(ph));
  }

  result.total_energy_j = machine.TotalEnergyJoules() - e0;
  if (ecl::ProfilePredictor* pred = socket0.predictor(); pred != nullptr) {
    result.learn_cache = ecl::SerializeLearnCache(
        *pred,
        profile::LearnCacheFingerprint(socket0.profile(), machine_params));
  }
  if (params.telemetry != nullptr) {
    result.telemetry_dump = params.telemetry->registry().Dump();
  }
  rig.StopEcls();
  return result;
}

}  // namespace ecldb::experiment
