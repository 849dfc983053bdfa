#ifndef ECLDB_EXPERIMENT_EXPERIMENT_H_
#define ECLDB_EXPERIMENT_EXPERIMENT_H_

#include <array>
#include <string>

#include "experiment/cluster_rig.h"
#include "experiment/node_rig.h"
#include "loadgen/loadgen.h"
#include "telemetry/telemetry.h"
#include "workload/load_profile.h"

namespace ecldb::experiment {

/// Open-loop multi-tenant traffic: the loadgen's tenants in place of a
/// LoadProfile.
struct SloTraffic {
  loadgen::LoadGenParams loadgen;
  /// Summed nominal offered load (at traffic-shape multiplier 1.0) as a
  /// fraction of the rig's all-on baseline capacity.
  double total_load = 0.5;
  /// Wires pressure-driven shedding and the shed-aware ECL feedback. Off:
  /// every arrival is admitted (the "no admission control" arm) and the
  /// system ECL runs exactly as under a LoadProfile.
  bool admission_enabled = true;
};

/// One SLO class's outcome over an SloTraffic run.
struct SloClassStats {
  /// Fresh arrivals of the class's tenants (retry re-offers excluded, so
  /// the classes sum to RunResult::arrivals).
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

/// The outcome of one Run. Energy and the rig activity counters cover the
/// measured window [start, start + duration]; query accounting covers
/// every query submitted in it, however long past the window it resolved.
struct RunResult {
  double duration_s = 0.0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  /// The rig's all-on baseline capacity in queries/s.
  double capacity_qps = 0.0;
  /// Queries submitted to the rig. Once drained,
  /// submitted == completed + failed.
  int64_t submitted = 0;
  int64_t completed = 0;
  /// Typed engine failures (node crashes, forward-cap drops).
  int64_t failed = 0;
  /// False when the post-trace drain stopped with queries unresolved.
  bool drained = true;

  // Latency summary. Under a LoadProfile it comes from the rig (see
  // ReadQueries); under SloTraffic mean_ms and p99_ms come from the
  // loadgen's per-class trackers and the rest stay 0.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Fraction of queries above the latency limit.
  double violation_frac = 0.0;

  // Rig activity at the window end.
  /// Completed live partition migrations: between sockets on a NodeRig,
  /// between nodes on a ClusterRig.
  int64_t migrations = 0;
  /// Shard bytes moved by completed migrations.
  double migration_bytes = 0.0;
  /// In-flight messages forwarded after their partition moved away.
  int64_t stale_forwards = 0;
  /// NodeRig: in-box consolidation policy counters (0 when disabled).
  int64_t consolidation_moves = 0;
  int64_t spread_moves = 0;
  /// NodeRig: most energy-efficient configuration found by socket 0's ECL
  /// (empty for baseline runs).
  std::string best_config;
  /// ClusterRig: node power-downs and wakes, cancelled node migrations
  /// and sub-queries shipped over the network.
  int64_t power_downs = 0;
  int64_t wakes = 0;
  int64_t cancelled_migrations = 0;
  int64_t remote_sends = 0;

  // Loadgen accounting (SloTraffic only).
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  /// Client retry attempts re-offered through admission.
  int64_t retries = 0;
  /// Arrivals given up on (attempts exhausted or past the trace horizon).
  int64_t abandoned = 0;
  std::array<SloClassStats, loadgen::kNumSloClasses> classes;

  /// The `exp/*` gauge series, one row per sample period: t_s,
  /// offered_qps, power_w (the rig's energy averaged over the period),
  /// latency_window_ms, pressure (the admission signal; 0 in baseline
  /// mode), shed_fraction (SloTraffic only), width (active hardware
  /// threads of a NodeRig, powered-on nodes of a ClusterRig), then the
  /// rig's own gauges (NodeRig::AddGauges). With caller telemetry, the
  /// other layers' gauges are columns too.
  telemetry::Series series;
  /// Deterministic metric-registry dump captured at the end of the run
  /// (empty without caller telemetry). Safe to compare after the run's
  /// objects are gone.
  std::string telemetry_dump;
};

/// Runs one end-to-end experiment on a freshly built rig: primes it,
/// drives the traffic over the measured window while sampling the `exp/*`
/// gauges, then drains until every submitted query has completed or
/// failed. A LoadProfile is driven by a LoadDriver at the rig's capacity;
/// SloTraffic by the loadgen, with admission control when enabled.
/// Deterministic for fixed rig options and traffic. A rig runs once: its
/// simulator still holds events of the finished traffic source, so it
/// must not be advanced afterwards; its counters stay readable.
RunResult Run(NodeRig& rig, const workload::LoadProfile& traffic);
RunResult Run(NodeRig& rig, const SloTraffic& traffic);
RunResult Run(ClusterRig& rig, const workload::LoadProfile& traffic);
RunResult Run(ClusterRig& rig, const SloTraffic& traffic);

/// Convenience: relative energy saving of `ecl` vs `baseline` in percent.
inline double SavingsPercent(const RunResult& baseline, const RunResult& ecl) {
  return 100.0 * (1.0 - ecl.energy_j / baseline.energy_j);
}

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_EXPERIMENT_H_
