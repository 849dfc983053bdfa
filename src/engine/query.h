#ifndef ECLDB_ENGINE_QUERY_H_
#define ECLDB_ENGINE_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "hwsim/work_profile.h"
#include "msg/message.h"

namespace ecldb::engine {

/// Work a query places on one partition, in operations of the query's
/// work profile. Plain work units are pure fluid accounting; functional
/// types (kGet/kPut/kScan) additionally execute a real data operation via
/// the engine's functional executor when the fluid work completes.
struct PartitionWork {
  PartitionId partition = -1;
  double ops = 0.0;
  msg::MessageType type = msg::MessageType::kWorkUnits;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  /// Intra-query parallelism: split this task into `morsels` messages of
  /// ops/morsels each, so every active worker of the owning socket can
  /// consume a share of the partition's scan concurrently (the partition
  /// queue hands morsels to whichever worker grabs ownership next — the
  /// fluid analogue of morsel stealing, naturally restricted to active
  /// workers because sleeping threads never acquire queues). Only kScan
  /// and kWorkUnits tasks may split (> 1): those are the types whose arg1
  /// is free to carry the morsel coordinates.
  int morsels = 1;
};

/// Why a query was failed instead of completed. Typed so clients (the
/// loadgen's retry model) and tests can distinguish infrastructure loss
/// from routing pathology.
enum class FailReason : int8_t {
  kNone = 0,
  /// The node executing the query crashed with the query in flight or
  /// queued (cluster crash recovery fails it back to the client).
  kNodeCrash = 1,
  /// A stale-epoch forward chain exceeded the configured hop cap (routing
  /// livelock guard; see ClusterEngineParams::max_forward_hops).
  kForwardCap = 2,
};

/// A query as submitted to the engine: a work profile plus per-partition
/// work items. Queries spanning partitions on multiple sockets exercise
/// the inter-socket communication path.
struct QuerySpec {
  const hwsim::WorkProfile* profile = nullptr;
  std::vector<PartitionWork> work;
  /// Socket of the dispatching thread (messages to remote partitions go
  /// through the communication endpoints).
  SocketId origin_socket = 0;
  /// Internal bookkeeping query (e.g. a migration shard copy): executes
  /// through the normal partition-queue path but is excluded from the
  /// latency statistics and the submitted/completed query counts.
  bool internal = false;
  /// Service class of the submitting tenant (loadgen::SloClass value), or
  /// -1 for untagged traffic. Carried through scheduling (and across
  /// cluster entry-node splits) so completions can be accounted against
  /// per-class deadlines; the engine itself never branches on it.
  int8_t slo_class = -1;
  /// Submitting tenant index (loadgen), or -1 for untagged traffic.
  /// Carried so failure callbacks can route a typed error back to the
  /// originating tenant's retry state; the engine never branches on it.
  int16_t tenant = -1;
  /// Client-side attempt number (0 = first submission, >0 = retry).
  /// Opaque to the engine; echoed in failure callbacks.
  int8_t attempt = 0;
  /// Stale-epoch forward hops this query has taken so far (cluster
  /// routing). Incremented by ClusterEngine on each forward; queries
  /// exceeding ClusterEngineParams::max_forward_hops fail typed.
  int8_t forward_hops = 0;
};

/// Horizon of the schedulers' latency sliding window, the one the
/// system-level ECL reads.
inline constexpr SimDuration kLatencyWindow = Seconds(5);

/// Collects completed-query latencies: a sliding window for the
/// system-level ECL (current average + trend) and full-run statistics for
/// the benches.
class LatencyTracker {
 public:
  explicit LatencyTracker(SimDuration window_horizon)
      : window_(window_horizon) {}

  void RecordCompletion(SimTime arrival, SimTime completion) {
    const double ms = ToMillis(completion - arrival);
    window_.Add(completion, ms);
    all_.Add(ms);
    ++completed_;
  }

  /// Mean latency (ms) over the recent window.
  double WindowMeanMs() const { return window_.Mean(); }
  /// Latency trend in ms per second over the recent window.
  double TrendMsPerSec() const { return window_.SlopePerSecond(); }
  bool WindowEmpty() const { return window_.empty(); }

  const PercentileTracker& all() const { return all_; }
  int64_t completed() const { return completed_; }

  void ResetRunStats() {
    all_.Clear();
    completed_ = 0;
  }

 private:
  SlidingWindow window_;
  PercentileTracker all_;
  int64_t completed_ = 0;
};

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_QUERY_H_
