// Ablation: cluster-scale energy control — whole-node power-down on top
// of the per-node ECL stacks, vs the same cluster with node placement
// frozen, plus a wimpy-cluster energy-proportionality comparison.
//
// Inside one box the ECL bottoms out at the package-sleep floor; the
// platform overhead (board, fans, NIC, PSU static) stays up as long as
// the node is powered. The cluster tier consolidates partitions off the
// least-loaded node and powers it down — the only lever that removes the
// platform overhead — and wakes it boot-latency-early when pressure
// returns. The energy-vs-load curve shows how much closer that moves an
// N-node rack to energy proportionality, and where a cluster of wimpy
// microserver nodes sits on the same curve.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "experiment/experiment.h"
#include "experiment/run_matrix.h"
#include "workload/kv.h"
#include "workload/load_profile.h"

using namespace ecldb;
using experiment::ClusterRunOptions;
using experiment::RunResult;

namespace {

constexpr int kNodes = 4;
constexpr SimDuration kTraceDuration = Seconds(180);
constexpr SimDuration kCurveDuration = Seconds(90);
const double kCurveLoads[] = {0.1, 0.6};

enum class Fleet { kBrawny, kWimpy };

ClusterRunOptions MakeOptions(Fleet fleet, bool cluster_ecl) {
  ClusterRunOptions options;
  hwsim::ClusterNodeParams node;
  if (fleet == Fleet::kWimpy) {
    node.machine = hwsim::MachineParams::Wimpy();
    node.power = hwsim::NodePowerParams::Wimpy();
  }
  options.cluster = hwsim::ClusterParams::Homogeneous(kNodes, node);
  options.cluster_ecl.enabled = cluster_ecl;
  // The trace compresses a diurnal cycle into three minutes, so every
  // policy timescale scales down with it: a real rack would tick every
  // tens of seconds and dwell for tens of minutes against hour-long
  // troughs. What must NOT scale is the boot latency — the 20 s boot
  // stays a large fraction of the compressed night, which is exactly
  // the regime that makes the wake hysteresis earn its keep.
  options.cluster_ecl.interval = Seconds(1);
  options.cluster_ecl.migrations_per_tick = 12;
  options.cluster_ecl.spread_migrations_per_tick = 24;
  options.cluster_ecl.post_migration_hold = Seconds(10);
  options.cluster_ecl.min_on_time = Seconds(30);
  options.engine.migration.min_shard_bytes = 64.0 * (1 << 20);
  options.node_ecl.socket.exclude_poll_instructions = true;
  return options;
}

RunResult Run(Fleet fleet, bool cluster_ecl,
              const workload::LoadProfile& profile) {
  experiment::ClusterRig rig(
      [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
        workload::KvParams params;
        params.indexed = false;
        // Key space scales with the node count so a shard (and therefore
        // one whole-shard scan) costs the same as on a single machine —
        // the cluster serves N boxes worth of data, not one box's data
        // sliced N ways.
        params.num_keys = 16'777'216 * kNodes;
        // Fatter queries keep the modeled work identical per unit load
        // while cutting the event count (4 machines multiply the event
        // rate; the capacity baseline scales with the per-query cost).
        params.batch_gets = 16'000;
        return std::make_unique<workload::KvWorkload>(e, params);
      },
      MakeOptions(fleet, cluster_ecl));
  return experiment::Run(rig, profile);
}

int MinNodesOn(const RunResult& r) {
  int nodes = kNodes;
  for (double on : r.series.Column("exp/width")) {
    nodes = std::min(nodes, static_cast<int>(on));
  }
  return nodes;
}

double JoulesPerKquery(const RunResult& r) {
  return r.completed > 0 ? r.energy_j / (static_cast<double>(r.completed) / 1e3)
                         : 0.0;
}

std::string RowLabel(Fleet fleet, bool on) {
  std::string label = fleet == Fleet::kWimpy ? "wimpy" : "brawny";
  label += on ? " + cluster ECL" : " (node ECLs only)";
  return label;
}

void AddRow(TablePrinter& table, const std::string& label,
            const std::string& load, const RunResult& r) {
  table.AddRow({label, load, Fmt(r.energy_j, 0), Fmt(r.avg_power_w, 1),
                FmtInt(MinNodesOn(r)), FmtInt(r.migrations),
                FmtInt(r.power_downs), FmtInt(r.wakes), FmtInt(r.completed),
                Fmt(JoulesPerKquery(r), 2), Fmt(r.p99_ms, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = experiment::ParseJobs(argc, argv);
  bench::PrintHeader(
      "ablation_cluster", "beyond the paper (cluster tier)",
      "Whole-node power-down via the cluster ECL on a 4-node rack: diurnal "
      "trace (net saving at equal completions) plus the energy-vs-load "
      "curve for brawny Haswell-EP nodes and wimpy microserver nodes.");

  // A day/night cycle compressed into three minutes: busy day, gradual
  // evening ramp-down, a long night trough (long relative to the 20 s
  // boot — as a real night is), then a morning ramp the reactive wake
  // can lead before full day load returns.
  const workload::StepProfile trace(
      {{Seconds(0), 0.5},
       {Seconds(50), 0.25},
       {Seconds(60), 0.06},
       {Seconds(130), 0.3},
       {Seconds(145), 0.5}},
      kTraceDuration);
  std::vector<std::unique_ptr<workload::ConstantProfile>> curve;
  for (double load : kCurveLoads) {
    curve.push_back(
        std::make_unique<workload::ConstantProfile>(load, kCurveDuration));
  }

  // Arms 0-1: diurnal trace, brawny, cluster ECL off/on. Remaining arms:
  // the load curve — brawny-off, brawny-on, wimpy-on at each load point.
  const int kArms = 2 + 3 * static_cast<int>(curve.size());
  std::vector<RunResult> results(static_cast<size_t>(kArms));
  experiment::RunMatrix(kArms, jobs, [&](int i) {
    RunResult& out = results[static_cast<size_t>(i)];
    if (i < 2) {
      out = Run(Fleet::kBrawny, i == 1, trace);
      return;
    }
    const int point = (i - 2) % static_cast<int>(curve.size());
    const int config = (i - 2) / static_cast<int>(curve.size());
    const Fleet fleet = config == 2 ? Fleet::kWimpy : Fleet::kBrawny;
    out = Run(fleet, config >= 1, *curve[static_cast<size_t>(point)]);
  });

  TablePrinter table({"configuration", "load", "total J", "avg W",
                      "min nodes on", "node migs", "power downs", "wakes",
                      "completed", "J/kquery", "p99 ms"});
  AddRow(table, RowLabel(Fleet::kBrawny, false), "diurnal", results[0]);
  AddRow(table, RowLabel(Fleet::kBrawny, true), "diurnal", results[1]);
  for (int config = 0; config < 3; ++config) {
    for (size_t point = 0; point < curve.size(); ++point) {
      const Fleet fleet = config == 2 ? Fleet::kWimpy : Fleet::kBrawny;
      AddRow(table, RowLabel(fleet, config >= 1), Fmt(kCurveLoads[point], 1),
             results[2 + static_cast<size_t>(config) * curve.size() + point]);
    }
  }
  table.Print();

  const RunResult& off = results[0];
  const RunResult& on = results[1];
  std::printf(
      "\ndiurnal trace: %.1f %% energy saving (%.0f J -> %.0f J) at "
      "completions %lld vs %lld; node migrations %lld (%lld cancelled), "
      "power downs %lld, wakes %lld, remote sends %lld, stale node "
      "forwards %lld\n",
      off.energy_j > 0.0 ? 100.0 * (off.energy_j - on.energy_j) / off.energy_j
                         : 0.0,
      off.energy_j, on.energy_j, static_cast<long long>(off.completed),
      static_cast<long long>(on.completed),
      static_cast<long long>(on.migrations),
      static_cast<long long>(on.cancelled_migrations),
      static_cast<long long>(on.power_downs), static_cast<long long>(on.wakes),
      static_cast<long long>(on.remote_sends),
      static_cast<long long>(on.stale_forwards));
  const RunResult& brawny_pt = results[2 + curve.size() + 1];
  const RunResult& wimpy_pt = results[2 + 2 * curve.size() + 1];
  std::printf(
      "wimpy vs brawny at 0.6 load: %.2f vs %.2f J/kquery (each relative "
      "to its own capacity; the wimpy rack trades peak capacity for a "
      "near-proportional idle).\n",
      JoulesPerKquery(wimpy_pt), JoulesPerKquery(brawny_pt));
  std::printf(
      "\nThe per-node ECLs bottom out at package sleep plus the platform "
      "overhead; only whole-node power-down removes the latter. The "
      "cluster tier drains the least-loaded node through node-scope live "
      "migration (drain -> copy over the NIC -> epoch-bumped rehome), "
      "powers it down, and wakes it boot-latency-early on rising "
      "pressure.\n");

  // Energy-vs-load curve for the plots.
  CsvWriter csv("bench_results/ablation_cluster.csv",
                {"config", "load", "energy_j", "avg_power_w", "completed",
                 "j_per_kquery", "min_nodes_on"});
  for (int config = 0; config < 3; ++config) {
    for (size_t point = 0; point < curve.size(); ++point) {
      const RunResult& r =
          results[2 + static_cast<size_t>(config) * curve.size() + point];
      const Fleet fleet = config == 2 ? Fleet::kWimpy : Fleet::kBrawny;
      csv.AddRow({RowLabel(fleet, config >= 1), Fmt(kCurveLoads[point], 1),
                  Fmt(r.energy_j, 0), Fmt(r.avg_power_w, 1),
                  FmtInt(r.completed), Fmt(JoulesPerKquery(r), 2),
                  FmtInt(MinNodesOn(r))});
    }
  }
  if (csv.ok()) {
    std::printf("[curve exported to bench_results/ablation_cluster.csv]\n");
  }
  return 0;
}
