#include "experiment/node_rig.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "ecl/baseline.h"
#include "experiment/experiment.h"
#include "experiment/run_sampler.h"

namespace ecldb::experiment {
namespace {

/// Compact description of a configuration for result tables
/// ("12 thr @ 1.2 GHz, uncore 3.0").
std::string DescribeConfig(const hwsim::Topology& topo,
                           const profile::Configuration& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d thr @ %.1f GHz, uncore %.1f",
                c.hw.ActiveThreadCount(), c.hw.MeanActiveCoreFreq(topo),
                c.hw.uncore_freq_ghz);
  return buf;
}

/// Package + DRAM energy of one socket in joules.
double SocketEnergyJ(const hwsim::Machine& machine, SocketId s) {
  return 1e-6 *
         static_cast<double>(machine.ReadRaplUj(s, hwsim::RaplDomain::kPackage) +
                             machine.ReadRaplUj(s, hwsim::RaplDomain::kDram));
}

}  // namespace

NodeRig::NodeRig(const WorkloadFactory& factory, const RunOptions& options)
    : options_(options) {
  simulator_.set_fast_forward(options_.fast_forward);
  telemetry::Telemetry* const tel = options_.telemetry;
  if (tel != nullptr) tel->Bind(&simulator_);
  machine_ = std::make_unique<hwsim::Machine>(&simulator_, options_.machine);
  if (tel != nullptr) machine_->AttachTelemetry(tel);
  engine::EngineParams engine_params = options_.engine;
  if (tel != nullptr) engine_params.telemetry = tel;
  engine_ = std::make_unique<engine::Engine>(&simulator_, machine_.get(),
                                             engine_params);
  workload_ = factory(engine_.get());
  ECLDB_CHECK(workload_ != nullptr);

  capacity_ = workload::BaselineCapacityQps(options_.machine, *workload_);

  switch (options_.mode) {
    case ControlMode::kEcl: {
      ecl::EclParams ecl_params = options_.ecl;
      if (tel != nullptr) ecl_params.telemetry = tel;
      loop_ = std::make_unique<ecl::EnergyControlLoop>(
          &simulator_, engine_.get(), ecl_params);
      loop_->Start();
      break;
    }
    case ControlMode::kBaseline:
      ecl::BaselineController(machine_.get()).Start();
      break;
    case ControlMode::kOsGovernor:
      governor_ = std::make_unique<ecl::OsGovernor>(
          &simulator_, engine_.get(), options_.os_governor);
      governor_->Start();
      break;
  }
}

void NodeRig::Prime() {
  if (options_.prime_duration > 0) {
    engine_->scheduler().SetSyntheticLoad(&workload_->profile());
    simulator_.RunFor(options_.prime_duration);
    engine_->scheduler().SetSyntheticLoad(nullptr);
  }
  engine_->latency().ResetRunStats();
}

double NodeRig::Pressure() const {
  return loop_ != nullptr ? loop_->system().pressure() : 0.0;
}

void NodeRig::SetShedSignal(std::function<double()> signal) {
  if (loop_ != nullptr) loop_->system().SetShedSignal(std::move(signal));
}

int NodeRig::Width() const {
  int threads = 0;
  for (SocketId sk = 0; sk < machine_->topology().num_sockets; ++sk) {
    threads += machine_->requested_config(sk).ActiveThreadCount();
  }
  return threads;
}

void NodeRig::AddGauges(RunSampler& sampler) {
  telemetry::MetricRegistry& reg = sampler.registry();
  ecl::EnergyControlLoop* const loop = loop_.get();
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
  const hwsim::Machine& machine = *machine_;
  const engine::Engine& engine = *engine_;
  for (SocketId sk = 0; sk < machine.topology().num_sockets; ++sk) {
    const std::string base = "exp/socket" + std::to_string(sk) + "/";
    sampler.AddPowerGauge(base + "power_w", [&machine, sk] {
      return SocketEnergyJ(machine, sk);
    });
    reg.AddGauge(base + "partitions", [&engine, sk] {
      return static_cast<double>(engine.placement().PartitionsOn(sk));
    });
  }
}

int64_t NodeRig::Resolved() const {
  return engine_->latency().completed() + engine_->scheduler().queries_failed();
}

void NodeRig::ReadQueries(RunResult* result) const {
  const PercentileTracker& lat = engine_->latency().all();
  result->completed = engine_->latency().completed();
  result->failed = engine_->scheduler().queries_failed();
  result->mean_ms = lat.Mean();
  result->p50_ms = lat.Percentile(50);
  result->p95_ms = lat.Percentile(95);
  result->p99_ms = lat.Percentile(99);
  result->max_ms = lat.Max();
  result->violation_frac =
      lat.FractionAbove(options_.ecl.system.latency_limit_ms);
}

void NodeRig::ReadCounters(RunResult* result) const {
  result->migrations = engine_->migrator().completed();
  result->migration_bytes = engine_->migrator().bytes_moved();
  for (SocketId sk = 0; sk < machine_->topology().num_sockets; ++sk) {
    result->stale_forwards += engine_->socket_msg_stats(sk).stale_forwards;
  }
  if (loop_ == nullptr) return;
  const profile::EnergyProfile& p = loop_->socket(0).profile();
  const int best = p.MostEfficientIndex();
  if (best >= 0) {
    result->best_config = DescribeConfig(machine_->topology(), p.config(best));
  }
  if (const ecl::ConsolidationPolicy* c = loop_->consolidation()) {
    result->consolidation_moves = c->consolidation_moves();
    result->spread_moves = c->spread_moves();
  }
}

std::string NodeRig::DescribeBacklog() const {
  std::string d = "backlog:";
  for (SocketId sk = 0; sk < machine_->topology().num_sockets; ++sk) {
    d += " socket" + std::to_string(sk) + "=" +
         std::to_string(static_cast<int64_t>(
             engine_->scheduler().BacklogOps(sk)));
  }
  return d;
}

void NodeRig::StopEcls() {
  if (loop_ != nullptr) loop_->Stop();
}

}  // namespace ecldb::experiment
