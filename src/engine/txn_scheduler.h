#ifndef ECLDB_ENGINE_TXN_SCHEDULER_H_
#define ECLDB_ENGINE_TXN_SCHEDULER_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "engine/database.h"
#include "engine/query.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"

namespace ecldb::engine {

struct TxnSchedulerParams {
  /// Lock-convoy model: with x = busy_workers - 1 concurrent lock
  /// requesters, the fraction of worker time lost to spinning is
  ///   spin = 1 - 1 / (1 + spin_linear * x + spin_quad * x^2),
  /// capped at max_spin. The quadratic term makes useful throughput peak
  /// at a moderate thread count and then collapse (convoy effect).
  double spin_linear = 0.02;
  double spin_quad = 0.004;
  double max_spin = 0.95;
  /// Extra memory-latency factor from non-local data access (transactions
  /// run on any worker; partitions have no home affinity).
  double remote_access_factor = 1.4;
};

/// A classic TRANSACTION-ORIENTED executor, for comparison with the
/// data-oriented architecture (paper Section 5.3): worker threads execute
/// whole transactions against shared data structures guarded by
/// (spin)locks instead of owning partitions.
///
/// Two properties matter for energy control and are modeled here:
///  (1) spinning threads retire instructions at full rate without doing
///      useful work, which tampers with the ECL's performance metric
///      (instructions retired), and
///  (2) data access loses locality (any worker touches any partition),
///      raising memory latency.
///
/// The fluid model folds both into an adjusted work profile per slice:
/// spinning inflates instructions-per-operation and cycles-per-operation
/// by 1/(1 - spin); remote access inflates the memory-latency component.
class TxnScheduler {
 public:
  TxnScheduler(sim::Simulator* simulator, hwsim::Machine* machine,
               Database* db, const TxnSchedulerParams& params);

  TxnScheduler(const TxnScheduler&) = delete;
  TxnScheduler& operator=(const TxnScheduler&) = delete;

  /// Submits a transaction; the partition work items execute serially on
  /// whichever worker picks the transaction up.
  QueryId Submit(const QuerySpec& spec);

  double TakeUtilization(SocketId socket);
  LatencyTracker& latency() { return latency_; }
  const LatencyTracker& latency() const { return latency_; }

  int64_t completed() const { return latency_.completed(); }
  int64_t submitted() const { return submitted_; }
  /// Spin fraction applied in the last slice (diagnostics).
  double last_spin_fraction() const { return last_spin_; }

 private:
  struct Txn {
    QueryId id = 0;
    SimTime arrival = 0;
    const hwsim::WorkProfile* profile = nullptr;
    double remaining_ops = 0.0;
  };
  struct WorkerState {
    Txn current;
    bool busy = false;
    double busy_seconds = 0.0;
    double active_seconds = 0.0;
  };

  void Advance(SimTime t0, SimTime t1);
  /// Adjusted (spin- and locality-degraded) profile for a base profile.
  const hwsim::WorkProfile* AdjustedProfile(const hwsim::WorkProfile* base,
                                            double spin);

  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  Database* db_;
  TxnSchedulerParams params_;

  std::deque<Txn> queue_;
  std::vector<WorkerState> workers_;
  LatencyTracker latency_;
  /// One mutable adjusted profile per distinct base profile.
  std::unordered_map<const hwsim::WorkProfile*, hwsim::WorkProfile> adjusted_;
  QueryId next_id_ = 1;
  int64_t submitted_ = 0;
  double last_spin_ = 0.0;
};

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_TXN_SCHEDULER_H_
