#ifndef ECLDB_EXPERIMENT_LOADGEN_TRACE_H_
#define ECLDB_EXPERIMENT_LOADGEN_TRACE_H_

#include <array>
#include <string>

#include "common/types.h"
#include "experiment/cluster_trace.h"
#include "experiment/experiment.h"
#include "faultsim/fault_schedule.h"
#include "loadgen/loadgen.h"

namespace ecldb::experiment {

/// One SLO class's outcome over a run.
struct SloClassStats {
  /// Fresh arrivals of the class's tenants (retry re-offers excluded, so
  /// the classes sum to SloRunResult::arrivals).
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  int64_t violations = 0;
  double mean_ms = 0.0;
  /// Latency at the class's target percentile (e.g. premium p99.9), ms.
  double tail_ms = 0.0;
  double deadline_ms = 0.0;
  double target_percentile = 0.0;
  bool slo_met = true;
};

struct SloRunResult {
  double duration_s = 0.0;
  /// Energy over the measured window [start, start + duration], joules.
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double capacity_qps = 0.0;
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  /// Typed engine failures delivered back to the client (node crashes,
  /// forward-cap drops). Conservation: submitted == completed + failed
  /// once drained.
  int64_t failed = 0;
  /// Client retry attempts re-offered through admission.
  int64_t retries = 0;
  /// Arrivals given up on (attempts exhausted or past the trace horizon).
  int64_t abandoned = 0;
  std::array<SloClassStats, loadgen::kNumSloClasses> classes;
  /// The `exp/*` gauge series: t_s, offered_qps, power_w (averaged over
  /// the sample period), latency_window_ms, pressure (the admission
  /// signal), shed_fraction, and width — the machine's active hardware
  /// threads (single-node) or powered-on nodes (cluster), the knob the
  /// ECL narrows when shedding reduces visible demand.
  telemetry::Series series;
  std::string telemetry_dump;
  /// False when the post-trace drain hit its cap with queries missing.
  bool drained = true;
};

struct SloRunOptions {
  /// Machine/engine/ECL construction knobs; the mode, priming, sampling
  /// and fast-forward semantics of RunLoadExperiment apply unchanged. The
  /// classic load profile is replaced by the loadgen tenants below.
  RunOptions run;
  loadgen::LoadGenParams loadgen;
  /// Summed nominal offered load (at traffic-shape multiplier 1.0) as a
  /// fraction of the all-on baseline capacity.
  double total_load = 0.5;
  /// Wires pressure-driven shedding and the shed-aware ECL feedback. Off:
  /// every arrival is admitted (the "no admission control" arm) and the
  /// system ECL runs exactly as in non-loadgen experiments.
  bool admission_enabled = true;
};

/// Runs one single-node SLO-tier experiment: the RunLoadExperiment system
/// stack (NodeRig), driven by the open-loop multi-tenant traffic
/// subsystem instead of a LoadProfile. Deterministic for fixed options.
SloRunResult RunSloExperiment(const WorkloadFactory& factory,
                              const SloRunOptions& options);

struct ClusterSloRunOptions {
  /// Cluster construction knobs, including entry-node routing
  /// (any_node_entry) — shared with RunClusterExperiment via ClusterRig.
  ClusterRunOptions cluster;
  loadgen::LoadGenParams loadgen;
  double total_load = 0.5;
  bool admission_enabled = true;
  /// Scripted faults, injected through a FaultInjector armed after
  /// priming. Event times are relative to measurement start (t=0 is the
  /// instant the loadgen starts), so schedules compose with any
  /// prime_duration. Empty (the default) constructs no injector: the run
  /// is byte-identical to a pre-faultsim build.
  faultsim::FaultSchedule faults;
};

/// Cluster analogue: the ClusterRig system stack under loadgen traffic,
/// run by the same body as RunSloExperiment. Admission pressure is the
/// max over the per-node system-ECL pressures, and the shed signal feeds
/// back into every node's system ECL.
SloRunResult RunClusterSloExperiment(const ClusterWorkloadFactory& factory,
                                     const ClusterSloRunOptions& options);

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_LOADGEN_TRACE_H_
