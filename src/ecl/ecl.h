#ifndef ECLDB_ECL_ECL_H_
#define ECLDB_ECL_ECL_H_

#include <memory>
#include <vector>

#include "common/types.h"
#include "ecl/consolidation.h"
#include "ecl/socket_ecl.h"
#include "ecl/system_ecl.h"
#include "engine/engine.h"
#include "profile/config_generator.h"
#include "sim/simulator.h"

namespace ecldb::ecl {

struct EclParams {
  SocketEclParams socket;
  SystemEclParams system;
  /// Whole-socket consolidation through live partition migration
  /// (disabled by default; see ConsolidationPolicy).
  ConsolidationParams consolidation;
  /// Wire the socket park/backlog hooks without enabling in-box
  /// consolidation. The cluster tier sets this: it moves partitions
  /// across nodes itself, but still wants each node's sockets to wake on
  /// local backlog.
  bool placement_hooks = false;
  /// Optional telemetry context, propagated into the socket ECLs and the
  /// consolidation policy (overrides their individual params fields when
  /// set); also registers the system-level latency-pressure gauge.
  telemetry::Telemetry* telemetry = nullptr;
};

/// The hierarchical Energy-Control Loop (paper Section 5): one socket-level
/// ECL per processor, each with its own adaptively-maintained energy
/// profile, plus a single system-level ECL monitoring query latency against
/// the user-defined limit.
class EnergyControlLoop {
 public:
  EnergyControlLoop(sim::Simulator* simulator, engine::Engine* engine,
                    const EclParams& params);

  /// Starts the system-level ECL and all socket-level ECLs.
  void Start();
  void Stop();

  SystemEcl& system() { return *system_; }
  SocketEcl& socket(SocketId s) { return *sockets_[static_cast<size_t>(s)]; }
  int num_sockets() const { return static_cast<int>(sockets_.size()); }
  /// Mean over sockets of SocketEcl::PerfLevelFrac: the node's relative
  /// load.
  double MeanPerfLevelFrac() const;
  /// Non-null iff consolidation was enabled in the params.
  ConsolidationPolicy* consolidation() { return consolidation_.get(); }

  /// Flags a workload change on every socket (normally drift detection
  /// does this automatically; exposed for experiments).
  void FlagWorkloadChange();

  /// Toggles profile maintenance on every socket (Fig. 15/16 experiment
  /// arms: static / online / multiplexed).
  void SetAdaptation(bool online, bool multiplexed);

 private:
  sim::Simulator* simulator_;
  engine::Engine* engine_;
  EclParams params_;
  std::unique_ptr<SystemEcl> system_;
  std::vector<std::unique_ptr<SocketEcl>> sockets_;
  std::unique_ptr<ConsolidationPolicy> consolidation_;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_ECL_H_
