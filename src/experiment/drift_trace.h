#ifndef ECLDB_EXPERIMENT_DRIFT_TRACE_H_
#define ECLDB_EXPERIMENT_DRIFT_TRACE_H_

// The workload-switch runner: prime the energy profiles on the indexed
// key-value benchmark, then drive a list of phases, each running the
// indexed or the non-indexed (scan) workload at a fixed load, reading
// energy and socket 0's profile maintenance once per second.
//
// - Figs. 15/16 (bench/fig15_*, bench/fig16_*) switch once, indexed to
//   scan at t = 40 s, and compare static, online and multiplexed profile
//   maintenance; phase 1 is the after-switch window.
// - The recurring-drift trace (the default phases; the learned-profile
//   ablation and its epsilon-regression test) alternates scan, indexed,
//   scan. A single switch makes any predictor pay in full, since the first
//   sight of a work profile is all misses; on every revisit a learned
//   predictor can seed the invalidated profile from its cache and only
//   measure the configurations it is still ignorant about, while plain
//   multiplexed adaptation re-measures the whole profile every time.

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "ecl/profile_predictor.h"
#include "profile/configuration.h"
#include "telemetry/telemetry.h"

namespace ecldb::experiment {

/// The key-value workload a phase drives.
enum class DriftWorkload { kIndexed, kScan };

struct DriftPhase {
  DriftWorkload workload = DriftWorkload::kScan;
  /// Offered load as a fraction of the workload's all-on baseline
  /// capacity. The default keeps both workloads inside the band where
  /// online measurements are reproducible interval-to-interval: much
  /// higher and the scan workload saturates (measured throughput then
  /// tracks the swinging sweep configurations, re-flagging drift forever),
  /// much lower and race-to-idle duty cycles starve the measurements.
  double load = 0.4;
  SimDuration length = Seconds(40);
  /// Window at the end of the phase that the tail energy and latency
  /// cover (at most `length`). For the drift trace adaptation should long
  /// be over by then, so the tail measures the *quality* of the converged
  /// configuration (the epsilon-regression bound).
  SimDuration tail = Seconds(10);
};

struct DriftTraceParams {
  /// Profile maintenance of the arm (Fig. 15 naming): online measurement
  /// and multiplexed reevaluation. Both off is the static arm.
  bool online = true;
  bool multiplexed = true;
  /// Learned predictor config; `predictor.enabled = false` reproduces the
  /// plain multiplexed arm.
  ecl::ProfilePredictorParams predictor;
  /// Synthetic-saturation priming on the indexed workload (profiles start
  /// accurate for the OLD workload, as in Fig. 15).
  SimDuration prime = Seconds(30);
  /// The phases after the prime, in order. The default is the recurring
  /// drift trace: scan, indexed, scan at 40 % load, 40 s each.
  std::vector<DriftPhase> phases = {{DriftWorkload::kScan},
                                    {DriftWorkload::kIndexed},
                                    {DriftWorkload::kScan}};
  /// Learn-cache text (SerializeLearnCache) loaded into every socket's
  /// predictor after priming — the "warm predictor" arm, modeling a
  /// restart that kept its cache alongside the serialized profile.
  std::string prime_learn_cache;
  /// Optional telemetry context; bound to the run's simulator and
  /// propagated through machine, engine, and ECL. Must outlive the call;
  /// the deterministic dump is captured in the result.
  telemetry::Telemetry* telemetry = nullptr;
};

struct DriftTracePhase {
  std::string workload;
  /// Seconds (1 s resolution) from the switch until socket 0's stale set
  /// drained — the multiplexed adaptation time. -1 if it never drained
  /// (or drift was never flagged, e.g. the static arm).
  double adapt_s = -1.0;
  /// Multiplexed evaluations socket 0 spent during the phase.
  int64_t evals = 0;
  /// Configurations seeded from predictions on socket 0 (0 without the
  /// predictor).
  int64_t seeded = 0;
  double energy_j = 0.0;
  /// Energy of the tail window, and latencies of the queries completed in
  /// it.
  double tail_energy_j = 0.0;
  double tail_mean_ms = 0.0;
  double tail_p99_ms = 0.0;
  /// Fraction above the system ECL's latency limit.
  double tail_violation_frac = 0.0;
  /// Socket 0's most efficient configuration at the end of the phase.
  std::optional<profile::Configuration> best_config;
};

struct DriftTraceResult {
  std::vector<DriftTracePhase> phases;
  double total_energy_j = 0.0;
  /// Per-second average power over all phases (prime excluded).
  std::vector<double> power_w;
  /// Socket 0's serialized learn cache at the end of the run (empty
  /// without the predictor) — feed it to another run's
  /// `prime_learn_cache` for the warm-predictor arm.
  std::string learn_cache;
  /// Deterministic registry dump (empty unless telemetry was set).
  std::string telemetry_dump;
};

/// Runs the trace on a fresh NodeRig. Deterministic for fixed params.
DriftTraceResult RunDriftTrace(const DriftTraceParams& params);

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_DRIFT_TRACE_H_
