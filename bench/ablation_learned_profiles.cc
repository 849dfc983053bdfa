// Ablation for learned profile maintenance (ROADMAP item 3): on the
// recurring-drift trace (prime on the indexed KV workload, then switch
// between non-indexed and indexed every 40 s at 40 % load), compare how
// long each maintenance strategy needs to re-converge its energy profile
// after a workload change, and what the converged configuration costs.
//
//   multiplexed      the paper's exhaustive rediscovery: every drift
//                    invalidates all ~145 configurations and the
//                    multiplexed evaluator re-measures them 6 per second.
//   learned          + the kNN predictor: recurring profiles are seeded
//                    from the learn cache; only high-ignorance
//                    configurations are measured. The first sight of a
//                    workload is still a full sweep.
//   learned warm     the predictor additionally starts from a serialized
//                    learn cache of a previous run (DBMS restart).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "experiment/drift_trace.h"
#include "experiment/run_matrix.h"

using namespace ecldb;

namespace {

experiment::DriftTraceParams ArmParams(bool learned) {
  experiment::DriftTraceParams p;
  p.predictor.enabled = learned;
  return p;
}

std::string DescribeBest(const experiment::DriftTracePhase& p) {
  if (!p.best_config) return "";
  const hwsim::SocketConfig& hw = p.best_config->hw;
  const hwsim::Topology topo = hwsim::MachineParams::HaswellEp().topology;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%2d thr @ %.1f GHz, uncore %.1f",
                hw.ActiveThreadCount(), hw.MeanActiveCoreFreq(topo),
                hw.uncore_freq_ghz);
  return buf;
}

double MeanRecurringAdapt(const experiment::DriftTraceResult& r) {
  // Phase 0 is the first sight of the scan workload — a full sweep for
  // every arm. Phases >= 1 revisit profiles seen before; that is where a
  // learned predictor can win.
  double sum = 0.0;
  int n = 0;
  for (size_t i = 1; i < r.phases.size(); ++i) {
    if (r.phases[i].adapt_s > 0.0) {
      sum += r.phases[i].adapt_s;
      ++n;
    }
  }
  return n > 0 ? sum / n : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = experiment::ParseJobs(argc, argv);
  bench::PrintHeader(
      "ablation_learned_profiles", "ROADMAP item 3; method of Fig. 15",
      "Recurring workload drift (indexed <-> non-indexed KV, 40 s phases, "
      "40 % load): profile re-convergence time and converged quality with "
      "exhaustive vs learned profile maintenance.");

  // The warm arm needs a trained learn cache, produced by a plain learned
  // run of the same trace (sequential prologue; the matrix arms are
  // independent simulations).
  const experiment::DriftTraceResult trainer = RunDriftTrace(ArmParams(true));

  const char* names[] = {"multiplexed", "learned", "learned warm"};
  std::vector<experiment::DriftTraceResult> results(3);
  experiment::RunMatrix(3, jobs, [&](int i) {
    experiment::DriftTraceParams p = ArmParams(i >= 1);
    if (i == 2) p.prime_learn_cache = trainer.learn_cache;
    results[static_cast<size_t>(i)] = RunDriftTrace(p);
  });

  TablePrinter table({"arm", "phase", "workload", "adapt s", "evals",
                      "seeded", "energy J", "tail J", "tail p99 ms",
                      "best config"});
  for (int i = 0; i < 3; ++i) {
    const experiment::DriftTraceResult& r = results[static_cast<size_t>(i)];
    for (size_t ph = 0; ph < r.phases.size(); ++ph) {
      const experiment::DriftTracePhase& p = r.phases[ph];
      table.AddRow({names[i], FmtInt(static_cast<int64_t>(ph)), p.workload,
                    Fmt(p.adapt_s, 0), FmtInt(p.evals), FmtInt(p.seeded),
                    Fmt(p.energy_j, 0), Fmt(p.tail_energy_j, 0),
                    Fmt(p.tail_p99_ms, 2), DescribeBest(p)});
    }
  }
  table.Print();

  {
    CsvWriter csv("bench_results/ablation_learned_profiles.csv",
                  {"arm", "phase", "workload", "adapt_s", "evals", "seeded",
                   "energy_j", "tail_energy_j", "tail_p99_ms"});
    for (int i = 0; i < 3; ++i) {
      const experiment::DriftTraceResult& r = results[static_cast<size_t>(i)];
      for (size_t ph = 0; ph < r.phases.size(); ++ph) {
        const experiment::DriftTracePhase& p = r.phases[ph];
        csv.AddRow({names[i], std::to_string(ph), p.workload,
                    Fmt(p.adapt_s, 0), std::to_string(p.evals),
                    std::to_string(p.seeded), Fmt(p.energy_j, 1),
                    Fmt(p.tail_energy_j, 1), Fmt(p.tail_p99_ms, 3)});
      }
    }
    if (csv.ok()) {
      std::printf(
          "[series exported to bench_results/ablation_learned_profiles.csv]\n");
    }
  }

  const double mux_adapt = MeanRecurringAdapt(results[0]);
  const double learned_adapt = MeanRecurringAdapt(results[1]);
  const double warm_adapt = MeanRecurringAdapt(results[2]);
  std::printf("\n-- recurring-drift adaptation time (phases 1+) --\n");
  std::printf("multiplexed : %5.1f s\n", mux_adapt);
  std::printf("learned     : %5.1f s  (%.1fx faster)\n", learned_adapt,
              learned_adapt > 0.0 ? mux_adapt / learned_adapt : 0.0);
  std::printf("learned warm: %5.1f s  (%.1fx faster)\n", warm_adapt,
              warm_adapt > 0.0 ? mux_adapt / warm_adapt : 0.0);
  std::printf("total energy: multiplexed %.0f J, learned %.0f J, "
              "learned warm %.0f J\n",
              results[0].total_energy_j, results[1].total_energy_j,
              results[2].total_energy_j);

  std::printf(
      "\nShape check: the exhaustive sweep needs ~|profile| / "
      "evals_per_interval ~ 24 intervals per drift no matter how often it "
      "has seen the workload; the learned arm pays the sweep once per "
      "distinct work profile and afterwards re-converges in the few "
      "intervals its remaining high-ignorance configurations need. The "
      "converged configuration (tail energy, tail p99) must match the "
      "exhaustive result - the predictor only short-circuits rediscovery, "
      "the skyline/zone logic is unchanged.\n");
  return 0;
}
