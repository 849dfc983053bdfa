#include "hwsim/cluster.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace ecldb::hwsim {

ClusterParams ClusterParams::Homogeneous(int num_nodes,
                                         const ClusterNodeParams& node,
                                         const NetworkModelParams& network) {
  ECLDB_CHECK(num_nodes > 0);
  ClusterParams p;
  p.nodes.assign(static_cast<size_t>(num_nodes), node);
  p.network = network;
  return p;
}

Cluster::Cluster(sim::Simulator* simulator, const ClusterParams& params)
    : simulator_(simulator),
      params_(params),
      network_(static_cast<int>(params.nodes.size()), params.network) {
  ECLDB_CHECK(simulator != nullptr);
  ECLDB_CHECK(!params_.nodes.empty());
  telemetry::Telemetry* const tel = params_.telemetry;
  nodes_.resize(params_.nodes.size());
  for (size_t n = 0; n < params_.nodes.size(); ++n) {
    if (tel != nullptr) {
      tel->SetPathPrefix("node" + std::to_string(n) + "/");
    }
    machines_.push_back(
        std::make_unique<Machine>(simulator_, params_.nodes[n].machine));
    if (tel != nullptr) machines_.back()->AttachTelemetry(tel);
    nodes_[n].since = simulator_->now();
    nodes_[n].machine_e_at_on = machines_.back()->TotalEnergyJoules();
  }
  if (tel != nullptr) {
    tel->SetPathPrefix("");
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddGauge("cluster/nodes_on",
                 [this] { return static_cast<double>(NodesOn()); });
    reg.AddCounterFn("cluster/power_downs", [this] { return power_downs_; });
    reg.AddCounterFn("cluster/power_ups", [this] { return power_ups_; });
    reg.AddCounterFn("cluster/network_transfers",
                     [this] { return network_.transfers(); });
    reg.AddGauge("cluster/network_bytes",
                 [this] { return network_.bytes_sent(); });
    for (size_t n = 0; n < nodes_.size(); ++n) {
      reg.AddGauge("cluster/node" + std::to_string(n) + "/state", [this, n] {
        return static_cast<double>(nodes_[n].state);
      });
    }
  }
}

int Cluster::NodesOn() const {
  int on = 0;
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kOn) ++on;
  }
  return on;
}

void Cluster::FoldPhase(NodeId n, SimTime now) {
  Node& node = nodes_[static_cast<size_t>(n)];
  const double phase_s = ToSeconds(now - node.since);
  const NodePowerParams& power = params_.nodes[static_cast<size_t>(n)].power;
  switch (node.state) {
    case NodeState::kOn:
      node.accumulated_j +=
          (machine(n).TotalEnergyJoules() - node.machine_e_at_on) +
          power.platform_overhead_w * phase_s;
      break;
    case NodeState::kBooting:
      node.accumulated_j += power.boot_power_w * phase_s;
      break;
    case NodeState::kOff:
      node.accumulated_j += power.off_power_w * phase_s;
      break;
  }
  node.since = now;
}

void Cluster::PowerDown(NodeId n) {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  Node& node = nodes_[static_cast<size_t>(n)];
  ECLDB_CHECK_MSG(node.state == NodeState::kOn, "power-down of a node not on");
  const SimTime now = simulator_->now();
  FoldPhase(n, now);
  node.state = NodeState::kOff;
  // Invalidate any boot completion still in flight (down-up-down races).
  ++node.boot_generation;
  // The machine object idles while "off": zero offered work, all threads
  // parked. Its RAPL accrual from here on is excluded by the phase fold.
  machine(n).ClearThreadLoads();
  machine(n).ApplyMachineConfig(
      MachineConfig::Idle(machine(n).topology()));
  ++power_downs_;
}

void Cluster::PowerUp(NodeId n, std::function<void()> on_booted) {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  Node& node = nodes_[static_cast<size_t>(n)];
  ECLDB_CHECK_MSG(node.state == NodeState::kOff, "power-up of a node not off");
  const SimTime now = simulator_->now();
  FoldPhase(n, now);
  node.state = NodeState::kBooting;
  ++power_ups_;
  const int64_t generation = ++node.boot_generation;
  const NodePowerParams& power = params_.nodes[static_cast<size_t>(n)].power;
  simulator_->ScheduleAfter(
      power.boot_latency,
      [this, n, generation, cb = std::move(on_booted)] {
        Node& booted = nodes_[static_cast<size_t>(n)];
        if (booted.boot_generation != generation) return;  // superseded
        FoldPhase(n, simulator_->now());
        if (booted.boot_failures_pending > 0) {
          // Injected transient boot failure: the boot energy was spent
          // (the phase fold above charged it), but the node lands back in
          // kOff instead of serving. The caller's wake policy retries on
          // a later tick.
          --booted.boot_failures_pending;
          ++boot_failures_;
          booted.state = NodeState::kOff;
          return;
        }
        booted.state = NodeState::kOn;
        booted.machine_e_at_on = machine(n).TotalEnergyJoules();
        if (cb != nullptr) cb();
      });
}

void Cluster::Crash(NodeId n) {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  Node& node = nodes_[static_cast<size_t>(n)];
  ECLDB_CHECK_MSG(node.state != NodeState::kOff, "crash of a node already off");
  const SimTime now = simulator_->now();
  FoldPhase(n, now);
  node.state = NodeState::kOff;
  node.failed = true;
  // Invalidate any boot completion in flight (a crash mid-boot).
  ++node.boot_generation;
  machine(n).ClearThreadLoads();
  machine(n).ApplyMachineConfig(MachineConfig::Idle(machine(n).topology()));
  ++crashes_;
  last_crash_time_ = now;
}

void Cluster::ClearFailed(NodeId n) {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  nodes_[static_cast<size_t>(n)].failed = false;
}

void Cluster::InjectBootFailures(NodeId n, int count) {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  ECLDB_CHECK(count >= 0);
  nodes_[static_cast<size_t>(n)].boot_failures_pending = count;
}

double Cluster::NodeEnergyJoules(NodeId n) const {
  ECLDB_CHECK(n >= 0 && n < num_nodes());
  const Node& node = nodes_[static_cast<size_t>(n)];
  const double phase_s = ToSeconds(simulator_->now() - node.since);
  const NodePowerParams& power = params_.nodes[static_cast<size_t>(n)].power;
  double open = 0.0;
  switch (node.state) {
    case NodeState::kOn:
      open = (machine(n).TotalEnergyJoules() - node.machine_e_at_on) +
             power.platform_overhead_w * phase_s;
      break;
    case NodeState::kBooting:
      open = power.boot_power_w * phase_s;
      break;
    case NodeState::kOff:
      open = power.off_power_w * phase_s;
      break;
  }
  return node.accumulated_j + open;
}

double Cluster::TotalEnergyJoules() const {
  double total = 0.0;
  for (NodeId n = 0; n < num_nodes(); ++n) total += NodeEnergyJoules(n);
  return total;
}

}  // namespace ecldb::hwsim
