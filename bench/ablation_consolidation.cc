// Ablation: dynamic partition placement (whole-socket consolidation) on
// top of the adaptive ECL, vs the adaptive ECL with the static blockwise
// placement.
//
// The socket-level ECL can only scale a socket down to its most efficient
// low configuration; as long as a socket homes partitions, its uncore,
// DRAM and package base power stay up. In a sustained low-load phase the
// consolidation policy live-migrates every partition off the least-loaded
// socket, which then parks in the deep package-sleep state — savings the
// per-socket control loop cannot reach. When the load returns, latency
// pressure spreads the partitions back before the limit is violated.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "experiment/experiment.h"
#include "experiment/run_matrix.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "workload/kv.h"
#include "workload/load_profile.h"

using namespace ecldb;
using experiment::RunOptions;
using experiment::RunResult;

namespace {

// High -> low -> high: 40 s at 60 % load, 120 s at 10 % (long enough to
// amortize the migration traffic and park the donor socket), then back.
constexpr double kHighLoad = 0.6;
constexpr double kLowLoad = 0.1;
constexpr SimTime kLowStart = Seconds(40);
constexpr SimTime kLowEnd = Seconds(160);
constexpr SimDuration kDuration = Seconds(200);

RunResult Run(bool consolidation, telemetry::Telemetry* tel) {
  RunOptions options;
  options.mode = experiment::ControlMode::kEcl;
  options.ecl.consolidation.enabled = consolidation;
  // Exclude idle-poll instructions from the measured performance level:
  // a consolidated receiver socket runs many mostly-idle threads whose
  // poll loops retire instructions at full rate, which overstated demand
  // and kept the receiver's configuration wider than the real work needs.
  // Applied to both arms so the comparison stays apples-to-apples.
  options.ecl.socket.exclude_poll_instructions = true;
  options.engine.migration.min_shard_bytes = 128.0 * (1 << 20);
  options.telemetry = tel;
  workload::StepProfile profile({{0, kHighLoad},
                                 {kLowStart, kLowLoad},
                                 {kLowEnd, kHighLoad}},
                                kDuration);
  experiment::NodeRig rig(
      [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
        workload::KvParams params;
        params.indexed = false;
        return std::make_unique<workload::KvWorkload>(e, params);
      },
      options);
  return experiment::Run(rig, profile);
}

/// Energy over the low-load phase, integrated from the power samples
/// (each sample's power is averaged over the preceding sample period).
double LowPhaseEnergyJ(const RunResult& r, double period_s) {
  const std::vector<double> t = r.series.Column("t_s");
  const std::vector<double> w = r.series.Column("exp/power_w");
  double j = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] > ToSeconds(kLowStart) && t[i] <= ToSeconds(kLowEnd)) {
      j += w[i] * period_s;
    }
  }
  return j;
}

/// Per-socket `exp/socket{S}/<metric>` columns of a series, socket order.
std::vector<std::vector<double>> SocketColumns(const RunResult& r,
                                               const std::string& metric) {
  std::vector<std::vector<double>> cols;
  for (int sk = 0;; ++sk) {
    const std::string name = "exp/socket" + std::to_string(sk) + "/" + metric;
    if (r.series.Find(name) < 0) return cols;
    cols.push_back(r.series.Column(name));
  }
}

/// Minimum per-socket power of any sample in the low phase: with
/// consolidation the donor socket reaches the deep package-sleep floor.
double MinSocketPowerW(const RunResult& r) {
  const std::vector<double> t = r.series.Column("t_s");
  double w = 1e18;
  for (const std::vector<double>& socket : SocketColumns(r, "power_w")) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i] <= ToSeconds(kLowStart) || t[i] > ToSeconds(kLowEnd)) continue;
      w = std::min(w, socket[i]);
    }
  }
  return w;
}

/// Most lopsided placement reached during the low phase (partitions on
/// the fullest socket; 48 == everything on one socket).
int MaxPartitionsOnOneSocket(const RunResult& r) {
  double parts = 0.0;
  for (const std::vector<double>& socket : SocketColumns(r, "partitions")) {
    for (double p : socket) parts = std::max(parts, p);
  }
  return static_cast<int>(parts);
}

/// Worst windowed latency while consolidated (the latency limit must hold
/// *during* the low phase; the step edges are transition transients).
double LowPhaseMaxLatencyMs(const RunResult& r) {
  const std::vector<double> t = r.series.Column("t_s");
  const std::vector<double> lat = r.series.Column("exp/latency_window_ms");
  double ms = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] > ToSeconds(kLowStart) + 30.0 && t[i] <= ToSeconds(kLowEnd)) {
      ms = std::max(ms, lat[i]);
    }
  }
  return ms;
}

/// Seconds after the step back to high load until the windowed latency
/// re-enters the limit (spread-back / discovery recovery time).
double RecoverySeconds(const RunResult& r, double limit_ms) {
  const std::vector<double> t = r.series.Column("t_s");
  const std::vector<double> lat = r.series.Column("exp/latency_window_ms");
  double recovered_at = ToSeconds(kDuration);
  for (size_t i = t.size(); i-- > 0;) {
    if (t[i] <= ToSeconds(kLowEnd)) break;
    if (lat[i] > limit_ms) {
      recovered_at = t[i];
      break;
    }
  }
  return std::max(0.0, recovered_at - ToSeconds(kLowEnd));
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = experiment::ParseJobs(argc, argv);
  bench::PrintHeader(
      "ablation_consolidation", "beyond the paper (design ablation)",
      "Whole-socket consolidation via live partition migration vs the "
      "adaptive ECL with static placement, on a high->low->high step "
      "profile (non-indexed key-value store).");

  // One telemetry context per arm (the arms run concurrently under
  // RunMatrix and gauges bind to run-local objects).
  std::vector<std::unique_ptr<telemetry::Telemetry>> tels;
  for (int i = 0; i < 2; ++i) {
    telemetry::TelemetryParams tp;
    tp.enabled = true;
    tp.sample_period = Millis(500);  // must match RunOptions::sample_period
    tels.push_back(std::make_unique<telemetry::Telemetry>(tp));
  }
  std::vector<RunResult> results(2);
  experiment::RunMatrix(2, jobs, [&](int i) {
    results[static_cast<size_t>(i)] =
        Run(i == 1, tels[static_cast<size_t>(i)].get());
  });
  const RunResult& ecl = results[0];
  const RunResult& cons = results[1];

  const double period_s = 0.5;
  const double limit_ms = 100.0;
  TablePrinter table({"mode", "total J", "low-phase J", "min socket W",
                      "max parts/socket", "migrations", "low-phase max ms",
                      "recovery s", "completed"});
  table.AddRow({"adaptive ECL", Fmt(ecl.energy_j, 0),
                Fmt(LowPhaseEnergyJ(ecl, period_s), 0),
                Fmt(MinSocketPowerW(ecl), 1),
                FmtInt(MaxPartitionsOnOneSocket(ecl)), FmtInt(ecl.migrations),
                Fmt(LowPhaseMaxLatencyMs(ecl), 1),
                Fmt(RecoverySeconds(ecl, limit_ms), 1), FmtInt(ecl.completed)});
  table.AddRow({"ECL + consolidation", Fmt(cons.energy_j, 0),
                Fmt(LowPhaseEnergyJ(cons, period_s), 0),
                Fmt(MinSocketPowerW(cons), 1),
                FmtInt(MaxPartitionsOnOneSocket(cons)), FmtInt(cons.migrations),
                Fmt(LowPhaseMaxLatencyMs(cons), 1),
                Fmt(RecoverySeconds(cons, limit_ms), 1),
                FmtInt(cons.completed)});
  table.Print();

  const double low_ecl = LowPhaseEnergyJ(ecl, period_s);
  const double low_cons = LowPhaseEnergyJ(cons, period_s);
  std::printf(
      "\nlow-phase saving: %.1f %% (%.0f J -> %.0f J); consolidation moves "
      "%lld, spread moves %lld, shard bytes %.0f MB, stale-epoch forwards "
      "%lld\n",
      low_ecl > 0.0 ? 100.0 * (low_ecl - low_cons) / low_ecl : 0.0, low_ecl,
      low_cons, static_cast<long long>(cons.consolidation_moves),
      static_cast<long long>(cons.spread_moves),
      cons.migration_bytes / (1 << 20),
      static_cast<long long>(cons.stale_forwards));
  std::printf(
      "\nThe per-socket ECL alone keeps both sockets' uncore, DRAM and "
      "package base powered through the low phase. Consolidation empties "
      "the least-loaded socket (live migration: drain -> bandwidth-limited "
      "shard copy -> epoch-bumped rehome) and parks it in the deep "
      "package-sleep state; the return to high load raises latency "
      "pressure, which spreads partitions back before the limit is "
      "violated.\n");

  bench::WriteRunCsv("ablation_consolidation", cons.series);
  telemetry::WriteChromeTrace(*tels[1],
                              "bench_results/ablation_consolidation.trace.json");
  return 0;
}
