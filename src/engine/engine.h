#ifndef ECLDB_ENGINE_ENGINE_H_
#define ECLDB_ENGINE_ENGINE_H_

#include <memory>

#include "common/types.h"
#include "engine/database.h"
#include "engine/migration.h"
#include "engine/placement.h"
#include "engine/query.h"
#include "engine/scheduler.h"
#include "hwsim/machine.h"
#include "msg/message_layer.h"
#include "sim/simulator.h"

namespace ecldb::engine {

struct EngineParams {
  /// Number of data partitions; 0 means one per hardware thread (the
  /// paper's 1:1 worker-partition ratio).
  int num_partitions = 0;
  msg::MessageLayerParams message_layer;
  SchedulerParams scheduler;
  MigrationParams migration;
  /// Optional telemetry context, propagated to the message layer, the
  /// scheduler, and the migration coordinator (overrides their individual
  /// params fields when set).
  telemetry::Telemetry* telemetry = nullptr;
};

/// The data-oriented in-memory DBMS: partitioned storage, the hierarchical
/// message passing layer, the elastic worker pool driven by the fluid
/// scheduler, and the epoch-versioned placement with its live-migration
/// coordinator. Construct after the Machine (advancer ordering).
class Engine {
 public:
  Engine(sim::Simulator* simulator, hwsim::Machine* machine,
         const EngineParams& params);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  PlacementMap& placement() { return *placement_; }
  const PlacementMap& placement() const { return *placement_; }
  MigrationCoordinator& migrator() { return *migrator_; }
  const MigrationCoordinator& migrator() const { return *migrator_; }
  msg::MessageLayer& message_layer() { return *layer_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  hwsim::Machine& machine() { return *machine_; }

  /// Submits a query for execution; latency is tracked automatically.
  QueryId Submit(const QuerySpec& spec) { return scheduler_->Submit(spec); }

  /// Utilization of a socket since the last call (ECL input).
  double TakeSocketUtilization(SocketId socket) {
    return scheduler_->TakeUtilization(socket);
  }

  /// Message-layer backpressure and forwarding counters of a socket.
  msg::MessageLayer::SocketStats socket_msg_stats(SocketId socket) const {
    return layer_->socket_stats(socket);
  }

  LatencyTracker& latency() { return scheduler_->latency(); }
  const LatencyTracker& latency() const { return scheduler_->latency(); }

 private:
  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  std::unique_ptr<PlacementMap> placement_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<msg::MessageLayer> layer_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<MigrationCoordinator> migrator_;
};

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_ENGINE_H_
