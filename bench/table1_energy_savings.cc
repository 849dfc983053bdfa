// Reproduces Table 1: relative energy savings of the ECL vs the baseline
// for every workload x load-profile combination, plus the most
// energy-efficient configuration per workload.
#include <functional>
#include <memory>

#include "bench_common.h"
#include "experiment/experiment.h"
#include "experiment/run_matrix.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/ssb.h"
#include "workload/tatp.h"

using namespace ecldb;
using experiment::ControlMode;
using experiment::RunOptions;
using experiment::RunResult;

namespace {

// Compressed to 60 s per run to keep the battery fast; relative savings
// are duration-invariant (see DESIGN.md).
constexpr SimDuration kRunDuration = Seconds(60);

struct WorkloadEntry {
  const char* name;
  experiment::WorkloadFactory factory;
};

std::vector<WorkloadEntry> Workloads() {
  std::vector<WorkloadEntry> entries;
  for (const bool indexed : {true, false}) {
    entries.push_back(
        {indexed ? "TATP (indexed)" : "TATP (non-indexed)",
         [indexed](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
           workload::TatpParams p;
           p.indexed = indexed;
           return std::make_unique<workload::TatpWorkload>(e, p);
         }});
    entries.push_back(
        {indexed ? "SSB (indexed)" : "SSB (non-indexed)",
         [indexed](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
           workload::SsbParams p;
           p.indexed = indexed;
           p.sim_lineorder_rows = 6'000'000;
           return std::make_unique<workload::SsbWorkload>(e, p);
         }});
    entries.push_back(
        {indexed ? "KV store (indexed)" : "KV store (non-indexed)",
         [indexed](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
           workload::KvParams p;
           p.indexed = indexed;
           return std::make_unique<workload::KvWorkload>(e, p);
         }});
  }
  return entries;
}

std::unique_ptr<workload::LoadProfile> MakeProfile(const char* name) {
  if (std::string(name) == "spike") {
    return std::make_unique<workload::SpikeProfile>(kRunDuration);
  }
  return std::make_unique<workload::TwitterProfile>(7, kRunDuration);
}

struct Arm {
  const WorkloadEntry* workload;
  const char* profile_name;
  ControlMode mode;
};

}  // namespace

int main(int argc, char** argv) {
  const int jobs = experiment::ParseJobs(argc, argv);
  bench::PrintHeader(
      "table1_energy_savings", "paper Table 1",
      "Relative energy savings (RAPL) of the ECL vs the race-to-idle "
      "baseline for all workload x load-profile combinations, and the most "
      "energy-efficient configuration found per workload.");

  // All (workload x profile x mode) arms are independent simulations; run
  // them on a thread pool and print in deterministic order afterwards.
  const std::vector<WorkloadEntry> workloads = Workloads();
  std::vector<Arm> arms;
  for (const WorkloadEntry& w : workloads) {
    for (const char* profile_name : {"spike", "twitter"}) {
      for (const ControlMode mode : {ControlMode::kBaseline, ControlMode::kEcl}) {
        arms.push_back(Arm{&w, profile_name, mode});
      }
    }
  }
  std::vector<RunResult> results(arms.size());
  experiment::RunMatrix(
      static_cast<int>(arms.size()), jobs, [&](int i) {
        const Arm& arm = arms[static_cast<size_t>(i)];
        const std::unique_ptr<workload::LoadProfile> profile =
            MakeProfile(arm.profile_name);
        RunOptions opt;
        opt.mode = arm.mode;
        experiment::NodeRig rig(arm.workload->factory, opt);
        results[static_cast<size_t>(i)] = experiment::Run(rig, *profile);
      });

  TablePrinter table({"workload", "profile", "baseline J", "ECL J",
                      "saving %", "most energy-efficient config"});
  for (size_t i = 0; i + 1 < arms.size(); i += 2) {
    const RunResult& base = results[i];
    const RunResult& ecl = results[i + 1];
    table.AddRow({arms[i].workload->name, arms[i].profile_name,
                  Fmt(base.energy_j, 0), Fmt(ecl.energy_j, 0),
                  Fmt(experiment::SavingsPercent(base, ecl), 1),
                  ecl.best_config});
  }
  table.Print();

  std::printf(
      "\nShape check (paper Table 1): non-indexed workloads save the most "
      "(memory controllers bottleneck; the KV store's pure column scans "
      "save the most of all, wanting few threads at the lowest frequency); "
      "TATP and SSB favor more threads at medium frequencies "
      "(communication + tuple reconstruction); indexed workloads save "
      "15.8-23.4 %% with a generally lower uncore clock; SSB needs a "
      "higher uncore clock than TATP (more data shipped between "
      "partitions).\n");
  return 0;
}
