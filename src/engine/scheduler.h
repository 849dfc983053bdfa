#ifndef ECLDB_ENGINE_SCHEDULER_H_
#define ECLDB_ENGINE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "engine/database.h"
#include "engine/placement.h"
#include "engine/query.h"
#include "engine/worker.h"
#include "hwsim/machine.h"
#include "msg/message_layer.h"
#include "sim/simulator.h"

namespace ecldb::engine {

struct SchedulerParams {
  /// Static worker-partition binding: the ORIGINAL data-oriented
  /// architecture the paper improves upon (Section 3). Each worker serves
  /// only its own partition; when the ECL puts a hardware thread to sleep,
  /// that partition becomes unavailable, and skewed load cannot be
  /// balanced. Requires a 1:1 worker-partition ratio. Default off (the
  /// paper's elasticity extensions).
  bool static_binding = false;
  /// Auto-morselization threshold in operations: a kWorkUnits partition
  /// task larger than this is split into ceil(ops / morsel_ops) morsel
  /// messages (capped at the partition queue capacity the layer offers)
  /// even when the submitter left PartitionWork::morsels at 1. 0 disables
  /// auto-splitting; explicit per-task morsel counts always apply.
  double morsel_ops = 0.0;
  /// Optional telemetry context: query/per-partition latency histograms,
  /// backlog and inflight gauges, submit/complete counters, morsel
  /// dispatch/completion counters and queue-depth gauges.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Fluid executor of the data-oriented engine.
///
/// Each simulation slice, every worker whose hardware thread is active:
///  1. receives its completed-operation credit from the machine,
///  2. spends it on queued partition work (dequeue-own-process-release),
///  3. reports whether it has more work, which becomes the machine's
///     thread load for the next slice.
///
/// Query completion times (and thus latencies) fall out of when the fluid
/// work of all of a query's partition tasks has been consumed.
class Scheduler {
 public:
  Scheduler(sim::Simulator* simulator, hwsim::Machine* machine, Database* db,
            msg::MessageLayer* layer, const PlacementMap* placement,
            const SchedulerParams& params);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a work profile; messages reference profiles by this id.
  int RegisterProfile(const hwsim::WorkProfile* profile);

  /// Submits a query; returns its id. Latency is measured from now until
  /// the last partition task completes.
  QueryId Submit(const QuerySpec& spec);

  /// Utilization of a socket's active workers since the last call
  /// (busy seconds / active seconds), the signal the paper's utilization
  /// controller consumes.
  double TakeUtilization(SocketId socket);

  LatencyTracker& latency() { return latency_; }
  const LatencyTracker& latency() const { return latency_; }

  int64_t queries_submitted() const { return queries_submitted_; }
  int64_t queries_completed() const { return latency_.completed(); }
  int64_t inflight() const { return static_cast<int64_t>(inflight_.size()); }
  /// True while the query has incomplete partition tasks (includes
  /// internal queries; the migration coordinator polls this).
  bool IsInflight(QueryId id) const { return inflight_.count(id) > 0; }
  bool static_binding() const { return params_.static_binding; }

  /// Remaining queued operations homed on a socket: spilled messages,
  /// queued-but-unowned messages (exact per-queue running totals), and
  /// partially-consumed worker batches. Messages in flight between
  /// sockets count once they land in the home queue.
  double BacklogOps(SocketId socket) const;

  /// Migration handover (coordinator only, event context): releases any
  /// worker ownership of `p`'s queue, requeueing unprocessed batches, so
  /// the queue can move to another router.
  void PrepareRehome(PartitionId p);

  /// Synthetic saturation mode: while set, every active worker offers
  /// `profile` at intensity 1 regardless of queued queries (completed
  /// operations are discarded). Used to prime ECL energy profiles with
  /// full-load measurements before an experiment; pass nullptr to disable.
  void SetSyntheticLoad(const hwsim::WorkProfile* profile) {
    if (synthetic_load_ != profile) steady_ = false;
    synthetic_load_ = profile;
  }

  /// Executor for functional messages (kGet/kPut/kScan): invoked by the
  /// owning worker when the message's fluid work completes, i.e. at the
  /// virtual time the operation finishes — while the worker holds the
  /// partition's ownership, so the real data access is race-free.
  using FunctionalExecutor =
      std::function<void(PartitionId, const msg::Message&)>;
  void SetFunctionalExecutor(FunctionalExecutor executor) {
    functional_executor_ = std::move(executor);
  }

  /// Invoked when a non-internal query's last partition task completes,
  /// with the query's QuerySpec::slo_class (-1 for untagged traffic), its
  /// arrival time, and the completion time. The loadgen SLO tracker hangs
  /// off this; unset costs nothing.
  using CompletionCallback =
      std::function<void(int8_t slo_class, SimTime arrival, SimTime completion)>;
  void SetCompletionCallback(CompletionCallback callback) {
    completion_callback_ = std::move(callback);
  }

  /// Invoked when a non-internal query is failed instead of completed
  /// (crash recovery). Echoes the query's identity fields so the client
  /// (loadgen retry model) can route the typed error to the originating
  /// tenant. Unset costs nothing.
  using FailureCallback = std::function<void(
      int8_t slo_class, int16_t tenant, int8_t attempt, SimTime arrival,
      FailReason reason)>;
  void SetFailureCallback(FailureCallback callback) {
    failure_callback_ = std::move(callback);
  }

  /// Crash recovery (event context): fails every inflight query with
  /// `reason` and discards all queued work — worker batches, partition
  /// queues, comm channels, spill buffers. Non-internal queries fire the
  /// failure callback in submission order; internal queries (migration
  /// shard copies) vanish silently — the cluster layer cancels their
  /// migrations separately. Returns the number of non-internal failures.
  int64_t FailAllInflight(FailReason reason);
  int64_t queries_failed() const { return queries_failed_; }

 private:
  struct QueryState {
    SimTime arrival = 0;
    int pending_tasks = 0;
    bool internal = false;
    int8_t slo_class = -1;
    int16_t tenant = -1;
    int8_t attempt = 0;
  };

  void Advance(SimTime t0, SimTime t1);

  // --- Steady-state fast-forward --------------------------------------
  //
  // A slice in which nothing moved (no messages pumped, no spill retried
  // successfully, no credit spent, no worker state touched) leaves the
  // scheduler in a state where every following slice repeats the same
  // cheap accumulations (per-worker active/busy seconds) until an external
  // input arrives: a Submit, a synthetic-load change, or a machine config
  // write changing the active-thread set.

  /// Stationarity horizon for the Simulator's fast-forward.
  SimTime StationaryUntil(SimTime now) const;
  /// Replays the per-slice accumulations of settled slices over (t0, t1].
  void FastForward(SimTime t0, SimTime t1, SimDuration slice);

  /// Morsel count a partition task splits into (explicit request, or
  /// morsel_ops auto-split for large kWorkUnits tasks), capped at 64.
  int MorselsOf(const PartitionWork& pw) const;
  /// Returns the number of spilled messages moved into partition queues.
  size_t RetrySpill();
  /// Makes `w` point at its next task; returns false when out of work.
  bool AcquireWork(Worker* w);
  void ReleaseOwnership(Worker* w, bool requeue_batch);
  /// Morsel batches are claimed, not owned: if the freshly-dequeued batch
  /// consists entirely of morselized messages, the partition queue is
  /// released immediately so other active workers can claim the remaining
  /// morsels within the same slice — the fluid analogue of morsel
  /// stealing. Safe because only kScan/kWorkUnits may split (disjoint
  /// row ranges; no exclusive functional mutation).
  void MaybeReleaseMorselBatch(Worker* w);
  void CompleteTask(const msg::Message& m, SimTime now);
  const hwsim::WorkProfile* ProfileOfMessage(const msg::Message& m) const;
  /// Work profile the worker would execute next (head of its work).
  const hwsim::WorkProfile* PeekProfile(Worker* w);

  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  Database* db_;
  msg::MessageLayer* layer_;
  const PlacementMap* placement_;
  SchedulerParams params_;

  std::vector<Worker> workers_;
  std::vector<const hwsim::WorkProfile*> profiles_;
  std::unordered_map<QueryId, QueryState> inflight_;
  /// Backpressure spill buffers per partition (unbounded; models an
  /// admission queue in front of the bounded partition rings).
  std::vector<std::deque<msg::Message>> spill_;
  LatencyTracker latency_;
  QueryId next_query_id_ = 1;
  int64_t queries_submitted_ = 0;
  /// Morselized-task accounting (telemetry): messages produced by
  /// splitting and completed; per-partition outstanding morsel messages,
  /// summed into a per-socket queue-depth gauge by current home.
  int64_t morsels_dispatched_ = 0;
  int64_t morsels_completed_ = 0;
  std::vector<int64_t> outstanding_morsels_;
  const hwsim::WorkProfile* synthetic_load_ = nullptr;
  FunctionalExecutor functional_executor_;
  CompletionCallback completion_callback_;
  FailureCallback failure_callback_;
  int64_t queries_failed_ = 0;
  /// Telemetry latency histograms (unbound handles = inlined no-ops).
  telemetry::HistogramHandle query_latency_ms_;
  std::vector<telemetry::HistogramHandle> partition_latency_ms_;
  /// True when the last slice was settled (see fast-forward notes above).
  bool steady_ = false;
  /// Machine config-write generation at the time `steady_` was computed;
  /// a later write may have changed the active-thread set.
  int64_t steady_config_writes_ = -1;
};

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_SCHEDULER_H_
