#ifndef ECLDB_HWSIM_CLUSTER_H_
#define ECLDB_HWSIM_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "hwsim/machine.h"
#include "hwsim/network_model.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::hwsim {

/// Whole-node power behaviour: everything the RAPL domains of the node's
/// Machine do NOT see. Where a package C-state costs microseconds, a node
/// transition costs tens of seconds and a boot-power premium — a new
/// transition-cost regime (see ecl::CalibrateNodeTransition).
struct NodePowerParams {
  /// Platform power while the node is on, outside the RAPL domains:
  /// board, fans, NIC, storage. Drawn whenever the node is on, no matter
  /// how deeply the packages sleep — the cost whole-node power-down
  /// exists to eliminate.
  double platform_overhead_w = 55.0;
  /// Wall power while off (BMC/IPMI standby).
  double off_power_w = 4.5;
  /// Wall power during boot (firmware + OS + DBMS restart at near-full
  /// activity — above the idle wall power of machine plus platform, so
  /// a boot always carries an energy premium over staying idle).
  double boot_power_w = 180.0;
  /// Power-up to serving-capable latency.
  SimDuration boot_latency = Seconds(20);

  /// Microserver-class node power (pairs with MachineParams::Wimpy()).
  static NodePowerParams Wimpy() {
    NodePowerParams p;
    p.platform_overhead_w = 4.0;
    p.off_power_w = 0.6;
    p.boot_power_w = 8.0;
    p.boot_latency = Seconds(8);
    return p;
  }
};

/// One node of the cluster: a full machine plus its node-scope power
/// behaviour.
struct ClusterNodeParams {
  MachineParams machine = MachineParams::HaswellEp();
  NodePowerParams power;
};

struct ClusterParams {
  std::vector<ClusterNodeParams> nodes;
  NetworkModelParams network;
  /// Optional telemetry context. Each node's machine instruments under a
  /// "node{N}/" path prefix; cluster-level node-state gauges and network
  /// counters register unprefixed.
  telemetry::Telemetry* telemetry = nullptr;

  /// N identical nodes.
  static ClusterParams Homogeneous(int num_nodes, const ClusterNodeParams& node,
                                   const NetworkModelParams& network = {});
};

/// An N-node rack: one simulated Machine per node on a shared simulator,
/// an inter-node network, and a whole-node power-state machine
/// (on / booting / off) layered over the machines.
///
/// Energy accounting composes three terms per node: the machine's RAPL
/// energy while the node is on, the platform overhead while on, and the
/// off/boot wall power while down — RAPL energy the machine model accrues
/// while the node is off or booting is excluded (the packages are
/// physically unpowered; the Machine object merely idles so advancer
/// bookkeeping stays uniform and single-node behaviour is untouched).
class Cluster {
 public:
  enum class NodeState { kOn, kBooting, kOff };

  Cluster(sim::Simulator* simulator, const ClusterParams& params);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const { return static_cast<int>(machines_.size()); }
  Machine& machine(NodeId n) { return *machines_[static_cast<size_t>(n)]; }
  const Machine& machine(NodeId n) const {
    return *machines_[static_cast<size_t>(n)];
  }
  NetworkModel& network() { return network_; }
  const ClusterParams& params() const { return params_; }

  NodeState state(NodeId n) const { return nodes_[static_cast<size_t>(n)].state; }
  bool IsOn(NodeId n) const { return state(n) == NodeState::kOn; }
  int NodesOn() const;
  /// Time of the node's last power-state change.
  SimTime StateSince(NodeId n) const {
    return nodes_[static_cast<size_t>(n)].since;
  }

  /// A failed node is crashed hardware (not a policy power-down): it is
  /// off, refuses policy wakes (the wake hysteresis must ignore it), and
  /// only a fault-schedule restart clears the flag.
  bool IsFailed(NodeId n) const {
    return nodes_[static_cast<size_t>(n)].failed;
  }
  /// On and not failed: the only nodes placement may target.
  bool IsAvailable(NodeId n) const { return IsOn(n) && !IsFailed(n); }

  /// Powers a node down (must be on). The machine is forced to the idle
  /// configuration; its RAPL accrual stops counting toward the node's
  /// energy. Callers are responsible for draining the node first — the
  /// cluster layer models hardware, not policy.
  void PowerDown(NodeId n);

  /// Starts booting an off node; `on_booted` (may be null) runs when the
  /// node reaches kOn after NodePowerParams::boot_latency. A pending boot
  /// failure (see InjectBootFailures) sends the node back to kOff at the
  /// end of the boot instead — the boot energy is spent either way — and
  /// `on_booted` is not called.
  void PowerUp(NodeId n, std::function<void()> on_booted = nullptr);

  /// Fault hook: ungraceful whole-node loss, legal from kOn or kBooting.
  /// The node drops to kOff instantly (no drain, no phase grace), the
  /// machine object idles, and the failed flag is set so policy wakes
  /// skip the node until ClearFailed. Callers (the fault injector) are
  /// responsible for telling the engine layer what died.
  void Crash(NodeId n);

  /// Fault hook: clears the failed flag (the operator replaced the node /
  /// the transient cleared); the node stays kOff until powered up.
  void ClearFailed(NodeId n);

  /// Fault hook: the next `count` PowerUp attempts of `n` fail at boot
  /// completion (transient firmware/POST failure). Each failed attempt
  /// still burns a full boot-latency of boot power.
  void InjectBootFailures(NodeId n, int count);

  /// Node energy in joules: machine RAPL while on + platform overhead
  /// while on + off/boot wall power while down/booting.
  double NodeEnergyJoules(NodeId n) const;
  double TotalEnergyJoules() const;

  int64_t power_downs() const { return power_downs_; }
  int64_t power_ups() const { return power_ups_; }
  int64_t crashes() const { return crashes_; }
  int64_t boot_failures() const { return boot_failures_; }
  /// Time of the last Crash() on any node (-1: never). The cluster ECL
  /// holds power-downs for a recovery window after this.
  SimTime last_crash_time() const { return last_crash_time_; }

 private:
  struct Node {
    NodeState state = NodeState::kOn;
    SimTime since = 0;
    /// Machine energy reading at the last transition to kOn (RAPL accrued
    /// before that instant in off/boot phases is excluded).
    double machine_e_at_on = 0.0;
    /// Accumulated node energy of all finished phases.
    double accumulated_j = 0.0;
    int64_t boot_generation = 0;
    /// Crashed hardware, not a policy power-down (see IsFailed).
    bool failed = false;
    /// Remaining injected boot failures (see InjectBootFailures).
    int boot_failures_pending = 0;
  };

  /// Closes the current phase's energy into accumulated_j at `now`.
  void FoldPhase(NodeId n, SimTime now);

  sim::Simulator* simulator_;
  ClusterParams params_;
  std::vector<std::unique_ptr<Machine>> machines_;
  NetworkModel network_;
  std::vector<Node> nodes_;
  int64_t power_downs_ = 0;
  int64_t power_ups_ = 0;
  int64_t crashes_ = 0;
  int64_t boot_failures_ = 0;
  SimTime last_crash_time_ = -1;
};

}  // namespace ecldb::hwsim

#endif  // ECLDB_HWSIM_CLUSTER_H_
