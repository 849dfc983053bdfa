#include "experiment/cluster_rig.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "experiment/experiment.h"

namespace ecldb::experiment {
namespace {

/// Seed of the entry-node picks (only drawn when any_node_entry is on,
/// so the default keeps the arrival/query streams bit-identical).
constexpr uint64_t kEntrySeed = 171717;

}  // namespace

ClusterRig::ClusterRig(const ClusterWorkloadFactory& factory,
                       const ClusterRunOptions& options)
    : options_(options), entry_rng_(kEntrySeed) {
  simulator_.set_fast_forward(options_.fast_forward);
  tel_ = options_.telemetry;
  if (tel_ != nullptr) tel_->Bind(&simulator_);

  cluster_params_ = options_.cluster;
  cluster_params_.telemetry = tel_;
  cluster_ = std::make_unique<hwsim::Cluster>(&simulator_, cluster_params_);
  const int num_nodes = cluster_->num_nodes();

  engine::ClusterEngineParams engine_params = options_.engine;
  engine_params.telemetry = tel_;
  cengine_ = std::make_unique<engine::ClusterEngine>(&simulator_,
                                                     cluster_.get(),
                                                     engine_params);

  workload_ = factory(&cengine_->node_engine(0));
  ECLDB_CHECK(workload_ != nullptr);

  for (NodeId n = 0; n < num_nodes; ++n) {
    capacity_ += workload::BaselineCapacityQps(
        cluster_params_.nodes[static_cast<size_t>(n)].machine, *workload_);
  }

  // One full ECL stack per node: its socket tier sizes the node's
  // hardware, its system tier turns the node's latency into pressure.
  // In-box consolidation stays off — placement is the cluster tier's job
  // — but the park/backlog hooks are wired so parked sockets wake on
  // local backlog.
  for (NodeId n = 0; n < num_nodes; ++n) {
    ecl::EclParams ecl_params = options_.node_ecl;
    ecl_params.consolidation.enabled = false;
    ecl_params.placement_hooks = true;
    ecl_params.telemetry = tel_;
    if (tel_ != nullptr) {
      tel_->SetPathPrefix("node" + std::to_string(n) + "/");
    }
    node_ecls_.push_back(std::make_unique<ecl::EnergyControlLoop>(
        &simulator_, &cengine_->node_engine(n), ecl_params));
  }
  if (tel_ != nullptr) tel_->SetPathPrefix("");
  for (auto& ecl : node_ecls_) ecl->Start();

  if (options_.cluster_ecl.enabled) {
    ecl::ClusterEclParams ce_params = options_.cluster_ecl;
    ce_params.telemetry = tel_;
    auto& node_ecls = node_ecls_;
    cluster_ecl_ = std::make_unique<ecl::ClusterEcl>(
        &simulator_, cengine_.get(),
        [&node_ecls](NodeId n) {
          return node_ecls[static_cast<size_t>(n)]->MeanPerfLevelFrac();
        },
        [&node_ecls](NodeId n) {
          return node_ecls[static_cast<size_t>(n)]->system().pressure();
        },
        ce_params);
    cluster_ecl_->SetNodeHooks(
        [&node_ecls](NodeId n) { node_ecls[static_cast<size_t>(n)]->Stop(); },
        [&node_ecls](NodeId n) { node_ecls[static_cast<size_t>(n)]->Start(); });
    cluster_ecl_->Start();
  }
}

void ClusterRig::Prime() {
  // Prime every node's profiles under synthetic saturation, as the
  // single-node experiment does.
  if (options_.prime_duration > 0) {
    for (NodeId n = 0; n < num_nodes(); ++n) {
      cengine_->node_engine(n).scheduler().SetSyntheticLoad(
          &workload_->profile());
    }
    simulator_.RunFor(options_.prime_duration);
    for (NodeId n = 0; n < num_nodes(); ++n) {
      cengine_->node_engine(n).scheduler().SetSyntheticLoad(nullptr);
    }
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    cengine_->node_engine(n).latency().ResetRunStats();
  }
  if (options_.faults.empty()) return;
  // Shift the schedule (authored relative to measurement start) to
  // absolute virtual time and arm. The injector's node hooks mirror the
  // cluster ECL's: a crash stops the dead node's ECL before the engine
  // recovery runs, a completed restart boots it again.
  faultsim::FaultInjectorParams fi_params;
  fi_params.schedule = options_.faults;
  for (faultsim::FaultEvent& e : fi_params.schedule.events) {
    e.at += simulator_.now();
  }
  fi_params.telemetry = tel_;
  injector_ = std::make_unique<faultsim::FaultInjector>(
      &simulator_, cluster_.get(), cengine_.get(), fi_params);
  injector_->SetNodeHooks([this](NodeId n) { node_ecl(n).Stop(); },
                          [this](NodeId n) { node_ecl(n).Start(); });
  injector_->Arm();
}

void ClusterRig::StopEcls() {
  if (cluster_ecl_ != nullptr) cluster_ecl_->Stop();
  for (auto& ecl : node_ecls_) ecl->Stop();
}

NodeId ClusterRig::EntryNodeFor(const engine::QuerySpec& spec) {
  const NodeId home =
      cengine_->placement().HomeOf(spec.work.front().partition);
  if (!options_.any_node_entry) return home;
  // Placement-oblivious client: uniform over the powered-on nodes (a
  // front-end balancer only knows liveness, not placement).
  const int on = cluster_->NodesOn();
  if (on <= 0) return home;
  int pick = static_cast<int>(entry_rng_.NextBounded(
      static_cast<uint64_t>(on)));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (!cluster_->IsOn(n)) continue;
    if (pick == 0) return n;
    --pick;
  }
  return home;
}

void ClusterRig::Submit(const engine::QuerySpec& spec) {
  if (spec.work.empty()) return;
  cengine_->Submit(EntryNodeFor(spec), spec);
}

void ClusterRig::SetCompletionCallback(
    const engine::Scheduler::CompletionCallback& cb) {
  for (NodeId n = 0; n < num_nodes(); ++n) {
    cengine_->node_engine(n).scheduler().SetCompletionCallback(cb);
  }
}

double ClusterRig::Pressure() const {
  double p = 0.0;
  for (const auto& ecl : node_ecls_) {
    p = std::max(p, ecl->system().pressure());
  }
  return p;
}

void ClusterRig::SetShedSignal(const std::function<double()>& signal) {
  for (auto& ecl : node_ecls_) ecl->system().SetShedSignal(signal);
}

double ClusterRig::LatencyWindowMs() const {
  double ms = 0.0;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    ms = std::max(ms, cengine_->node_engine(n).latency().WindowMeanMs());
  }
  return ms;
}

int64_t ClusterRig::Resolved() const {
  return cengine_->CompletedQueries() + cengine_->QueriesFailed();
}

void ClusterRig::ReadQueries(RunResult* result) const {
  result->completed = cengine_->CompletedQueries();
  result->failed = cengine_->QueriesFailed();
  const double limit_ms = options_.node_ecl.system.latency_limit_ms;
  double mean_weighted = 0.0;
  double violation_weighted = 0.0;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    const engine::LatencyTracker& lt = cengine_->node_engine(n).latency();
    const PercentileTracker& all = lt.all();
    const double w = static_cast<double>(lt.completed());
    mean_weighted += w * all.Mean();
    violation_weighted += w * all.FractionAbove(limit_ms);
    result->p50_ms = std::max(result->p50_ms, all.Percentile(50));
    result->p95_ms = std::max(result->p95_ms, all.Percentile(95));
    result->p99_ms = std::max(result->p99_ms, all.Percentile(99));
    result->max_ms = std::max(result->max_ms, all.Max());
  }
  if (result->completed > 0) {
    const double completed = static_cast<double>(result->completed);
    result->mean_ms = mean_weighted / completed;
    result->violation_frac = violation_weighted / completed;
  }
}

void ClusterRig::ReadCounters(RunResult* result) const {
  result->power_downs = cluster_->power_downs();
  result->wakes = cluster_->power_ups();
  result->migrations = cengine_->migrations_completed();
  result->cancelled_migrations = cengine_->migrations_cancelled();
  result->migration_bytes = cengine_->bytes_moved();
  result->remote_sends = cengine_->remote_sends();
  result->stale_forwards = cengine_->stale_forwards();
}

std::string ClusterRig::DescribeBacklog() const {
  std::string d = "backlog:";
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    d += " node" + std::to_string(n) + "=" +
         std::to_string(static_cast<int64_t>(cengine_->BacklogOps(n))) +
         (cluster_->IsFailed(n) ? "(failed)" : "");
  }
  d += " engine_failed=" + std::to_string(cengine_->QueriesFailed());
  return d;
}

}  // namespace ecldb::experiment
