#ifndef ECLDB_WORKLOAD_KV_H_
#define ECLDB_WORKLOAD_KV_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <string>

#include "common/rng.h"
#include "engine/engine.h"
#include "workload/workload.h"

namespace ecldb::workload {

/// Parameters of the paper's custom key-value store benchmark
/// (Section 6): 4-byte uniformly-distributed keys and values, either fully
/// indexed (memory latency-bound point lookups) or not indexed at all
/// (memory bandwidth-bound partition-shard scans).
struct KvParams {
  /// Logical key-space size used by the simulation cost model.
  int64_t num_keys = 16'777'216;
  bool indexed = true;
  /// Indexed mode: point lookups batched per query, spread over this many
  /// partitions.
  int batch_gets = 4000;
  int partitions_per_query = 4;
  /// Functional mode: keys actually materialized by Load() (0 = num_keys).
  int64_t functional_keys = 0;
  /// Skew of the partition access distribution (0 = uniform). Skewed
  /// access concentrates load on few partitions, which the elastic
  /// architecture balances implicitly (paper Section 3, "Load Balancing").
  double zipf_theta = 0.0;
};

/// Custom key-value store benchmark (simulation + functional modes).
class KvWorkload : public Workload {
 public:
  KvWorkload(engine::Engine* engine, const KvParams& params);

  std::string_view name() const override {
    return params_.indexed ? "kv-indexed" : "kv-non-indexed";
  }
  const hwsim::WorkProfile& profile() const override;
  engine::QuerySpec MakeQuery(Rng& rng) override;
  double MeanOpsPerQuery() const override;

  // --- Functional mode ---------------------------------------------------

  /// Creates the kv table (and the hash index when indexed) in every
  /// partition and populates `functional_keys` rows.
  void Load();

  /// Point read. Uses the hash index when indexed, otherwise scans the
  /// key's partition shard (the access pattern the profile models).
  std::optional<int64_t> Get(int64_t key);

  /// Point write (insert or update).
  void Put(int64_t key, int64_t value);

  /// Counts rows with value >= threshold across all partitions (full
  /// parallel column scan).
  int64_t ScanCountAtLeast(int64_t threshold);

  int64_t loaded_keys() const { return loaded_keys_; }

  // --- Asynchronous functional mode ---------------------------------------
  // Operations travel through the hierarchical message layer like any
  // query and execute against the real partition data on whichever worker
  // owns the partition when their fluid work completes — the full
  // data-oriented execution path with correct virtual-time latencies.

  /// Registers this workload's functional executor with the engine.
  /// Call once after Load(); only one workload may own the executor.
  void InstallExecutor();

  struct AsyncResult {
    bool found = false;
    int64_t value = 0;
  };

  /// Submits a point read; the result becomes available via TakeResult
  /// after the query completes (run the simulator forward).
  QueryId SubmitGet(int64_t key);
  /// Submits a point write.
  QueryId SubmitPut(int64_t key, int64_t value);

  /// Retrieves (and removes) the result of a completed SubmitGet; empty
  /// while the query is still in flight.
  std::optional<AsyncResult> TakeResult(QueryId id);

 private:
  int64_t RowsPerPartition() const;
  /// Partition pick for the next query (uniform or Zipf-skewed).
  PartitionId PickPartition(Rng& rng);

  engine::Engine* engine_;
  KvParams params_;
  int64_t loaded_keys_ = 0;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::unordered_map<QueryId, AsyncResult> async_results_;
};

}  // namespace ecldb::workload

#endif  // ECLDB_WORKLOAD_KV_H_
