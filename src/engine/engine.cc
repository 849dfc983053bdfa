#include "engine/engine.h"

#include <string>

#include "common/check.h"
#include "engine/simd.h"

namespace ecldb::engine {

Engine::Engine(sim::Simulator* simulator, hwsim::Machine* machine,
               const EngineParams& params)
    : simulator_(simulator), machine_(machine) {
  ECLDB_CHECK(simulator != nullptr && machine != nullptr);
  const int partitions = params.num_partitions > 0
                             ? params.num_partitions
                             : machine->topology().total_threads();
  const int num_sockets = machine->topology().num_sockets;
  msg::MessageLayerParams ml_params = params.message_layer;
  SchedulerParams sched_params = params.scheduler;
  MigrationParams mig_params = params.migration;
  if (params.telemetry != nullptr) {
    ml_params.telemetry = params.telemetry;
    sched_params.telemetry = params.telemetry;
    mig_params.telemetry = params.telemetry;
  }
  placement_ = std::make_unique<PlacementMap>(partitions, num_sockets);
  db_ = std::make_unique<Database>(partitions);
  layer_ = std::make_unique<msg::MessageLayer>(num_sockets, placement_.get(),
                                               ml_params);
  scheduler_ = std::make_unique<Scheduler>(simulator, machine, db_.get(),
                                           layer_.get(), placement_.get(),
                                           sched_params);
  migrator_ = std::make_unique<MigrationCoordinator>(
      simulator, machine, db_.get(), placement_.get(), layer_.get(),
      scheduler_.get(), mig_params);
  if (params.telemetry != nullptr) {
    // Per-kernel dispatch counters. The raw counters are process-global
    // atomics (morsel workers bump them concurrently); exporting the delta
    // since engine construction keeps each engine's export deterministic
    // for a fixed workload, regardless of what earlier engines in the same
    // process executed.
    telemetry::MetricRegistry& reg = params.telemetry->registry();
    for (int k = 0; k < simd::kNumKernels; ++k) {
      const auto id = static_cast<simd::KernelId>(k);
      const std::string prefix =
          std::string("engine/kernels/") + simd::KernelName(id);
      const int64_t simd_base = simd::SimdDispatches(id);
      const int64_t scalar_base = simd::ScalarDispatches(id);
      reg.AddCounterFn(prefix + "/simd", [id, simd_base] {
        return simd::SimdDispatches(id) - simd_base;
      });
      reg.AddCounterFn(prefix + "/scalar", [id, scalar_base] {
        return simd::ScalarDispatches(id) - scalar_base;
      });
    }
  }
}

}  // namespace ecldb::engine
