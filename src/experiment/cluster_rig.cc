#include "experiment/cluster_rig.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace ecldb::experiment {

ClusterRig::ClusterRig(const ClusterWorkloadFactory& factory,
                       const ClusterRunOptions& options)
    : options_(options), entry_rng_(options.entry_seed) {
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

  capacity_ = options_.capacity_qps;
  if (capacity_ <= 0.0) {
    for (NodeId n = 0; n < num_nodes; ++n) {
      capacity_ += workload::BaselineCapacityQps(
          cluster_params_.nodes[static_cast<size_t>(n)].machine, *workload_);
    }
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
