#ifndef ECLDB_BENCH_BENCH_COMMON_H_
#define ECLDB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/csv_writer.h"
#include "common/table_printer.h"
#include "experiment/experiment.h"
#include "hwsim/machine.h"
#include "profile/config_generator.h"
#include "profile/energy_profile.h"
#include "profile/evaluator.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "workload/work_profiles.h"

namespace ecldb::bench {

/// Writes the plotted columns of a single-node Run series to
/// bench_results/<name>.csv under the plot scripts' names (see plots/).
inline void WriteRunCsv(const char* name, const telemetry::Series& series) {
  const std::string path = "bench_results/" + std::string(name) + ".csv";
  if (telemetry::WriteSeriesCsv(
          series, path,
          {"t_s", "exp/offered_qps", "exp/power_w",
           "exp/latency_window_ms", "exp/width",
           "exp/perf_level_frac", "exp/utilization"},
          {"t_s", "offered_qps", "rapl_power_w", "latency_window_ms",
           "active_threads", "perf_level_frac", "utilization"})) {
    std::printf("[series exported to %s]\n", path.c_str());
  }
}

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s  (%s)\n", experiment, paper_ref);
  std::printf("%s\n", description);
  std::printf("==============================================================\n");
}

/// Fresh simulator + Haswell-EP machine pair for machine-only experiments.
struct MachineRig {
  MachineRig() : machine(&simulator, hwsim::MachineParams::HaswellEp()) {}
  sim::Simulator simulator;
  hwsim::Machine machine;
};

/// Conducts a fully-evaluated energy profile for a synthetic workload.
inline profile::EnergyProfile ConductProfile(
    MachineRig& rig, const hwsim::WorkProfile& work,
    const profile::GeneratorParams& gen_params = profile::GeneratorParams{}) {
  profile::ConfigGenerator gen(rig.machine.topology(), rig.machine.freqs());
  profile::EnergyProfile profile(gen.Generate(gen_params));
  profile::ProfileEvaluator eval(&rig.simulator, &rig.machine, 0);
  eval.EvaluateAll(&profile, work, profile::EvaluatorParams{});
  return profile;
}

/// The race-to-idle baseline's energy efficiency at a relative performance
/// level (the "Baseline" line of Figs. 9/10): all threads stay on at the
/// maximum frequency; unused capacity polls.
inline double BaselineEfficiencyAt(MachineRig& rig,
                                   const profile::EnergyProfile& profile,
                                   double perf_fraction) {
  const int peak_idx = profile.PeakPerfIndex();
  if (peak_idx < 0) return 0.0;
  const hwsim::MachineParams& mp = rig.machine.params();
  const hwsim::PowerModel power(mp.topology, mp.power);
  hwsim::SocketConfig all_on = hwsim::SocketConfig::AllOn(
      mp.topology, mp.freqs.max_core_nominal(), mp.freqs.max_uncore());
  hwsim::SocketActivity act;
  act.busy_fraction = perf_fraction;
  // Bandwidth share scales with delivered performance.
  act.bandwidth_gbps = 0.0;
  const double watts = power.SocketPower(0, all_on, act).total();
  const double perf = profile.PeakPerfScore() * perf_fraction;
  return watts > 0.0 ? perf / watts : 0.0;
}

/// Short description of a configuration ("12thr @ 1.9GHz unc 1.2").
inline std::string Describe(const hwsim::Topology& topo,
                            const profile::Configuration& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%2dthr @ %.1fGHz unc %.1f",
                c.hw.ActiveThreadCount(), c.hw.MeanActiveCoreFreq(topo),
                c.hw.uncore_freq_ghz);
  return buf;
}

/// Exports the full profile scatter (every configuration, normalized like
/// the paper's bubble charts) to bench_results/<name>.csv.
inline void ExportProfileScatter(const char* name, MachineRig& rig,
                                 const profile::EnergyProfile& profile) {
  const double peak_perf = profile.PeakPerfScore();
  const int opt = profile.MostEfficientIndex();
  if (opt < 0 || peak_perf <= 0.0) return;
  const double opt_eff = profile.config(opt).efficiency();
  CsvWriter csv("bench_results/" + std::string(name) + ".csv",
                {"threads", "mean_core_ghz", "uncore_ghz", "perf_level",
                 "efficiency", "power_w", "zone"});
  for (int i = 1; i < profile.size(); ++i) {
    const profile::Configuration& c = profile.config(i);
    if (!c.measured()) continue;
    csv.AddRow({std::to_string(c.hw.ActiveThreadCount()),
                Fmt(c.hw.MeanActiveCoreFreq(rig.machine.topology()), 2),
                Fmt(c.hw.uncore_freq_ghz, 2), Fmt(c.perf_score / peak_perf, 4),
                Fmt(c.efficiency() / opt_eff, 4), Fmt(c.power_w, 2),
                profile::ZoneName(profile.ZoneForDemand(c.perf_score))});
  }
  if (csv.ok()) {
    std::printf("[profile scatter exported to bench_results/%s.csv]\n", name);
  }
}

/// Prints the skyline of an energy profile normalized like the paper's
/// figures (performance level and efficiency relative to the peak).
inline void PrintProfileSkyline(MachineRig& rig,
                                const profile::EnergyProfile& profile,
                                const char* title) {
  std::printf("\n-- energy profile: %s --\n", title);
  const double peak_perf = profile.PeakPerfScore();
  const int opt = profile.MostEfficientIndex();
  const double opt_eff = profile.config(opt).efficiency();
  TablePrinter table({"configuration", "perf level", "efficiency",
                      "power W", "zone"});
  for (int idx : profile.Skyline()) {
    const profile::Configuration& c = profile.config(idx);
    table.AddRow({Describe(rig.machine.topology(), c),
                  Fmt(c.perf_score / peak_perf, 3),
                  Fmt(c.efficiency() / opt_eff, 3), Fmt(c.power_w, 1),
                  profile::ZoneName(profile.ZoneForDemand(c.perf_score))});
  }
  table.Print();
  // ECL-RTI line vs baseline line (the shaded gap in Figs. 9/10): at
  // demand d (relative to the optimum's performance) the ECL runs the
  // optimal configuration a d-fraction of the time and idles the rest.
  const hwsim::PowerModelParams& pw = rig.machine.params().power;
  const double p_idle = pw.pkg_base_halted_w[0] + pw.dram_static_w;
  const double p_opt = profile.config(opt).power_w;
  const double opt_perf = profile.config(opt).perf_score;
  double max_saving = 0.0;
  std::printf("demand | RTI power | baseline power | saving\n");
  for (double d : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const double p_rti = d * p_opt + (1.0 - d) * p_idle;
    const double base_eff =
        BaselineEfficiencyAt(rig, profile, d * opt_perf / peak_perf);
    const double p_base = base_eff > 0.0 ? d * opt_perf / base_eff : 0.0;
    const double saving = p_base > 0.0 ? 100.0 * (1.0 - p_rti / p_base) : 0.0;
    max_saving = std::max(max_saving, saving);
    std::printf("  %4.2f | %7.1f W | %10.1f W | %5.1f %%\n", d, p_rti, p_base,
                saving);
  }
  std::printf("max ECL-RTI saving vs baseline: %.0f %%\n", max_saving);
}

}  // namespace ecldb::bench

#endif  // ECLDB_BENCH_BENCH_COMMON_H_
