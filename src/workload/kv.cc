#include "workload/kv.h"

#include "common/check.h"
#include "workload/work_profiles.h"

namespace ecldb::workload {
namespace {

constexpr char kTable[] = "kv";
constexpr char kIndex[] = "kv_pk";
/// Seed of the Zipf partition-rank generator (zipf_theta > 0).
constexpr uint64_t kZipfSeed = 71;

}  // namespace

KvWorkload::KvWorkload(engine::Engine* engine, const KvParams& params)
    : engine_(engine), params_(params) {
  ECLDB_CHECK(engine != nullptr);
  ECLDB_CHECK(params.num_keys > 0);
  if (params.zipf_theta > 0.0) {
    zipf_ = std::make_unique<ZipfGenerator>(
        static_cast<uint64_t>(engine->db().num_partitions()),
        params.zipf_theta, kZipfSeed);
  }
}

PartitionId KvWorkload::PickPartition(Rng& rng) {
  const int nparts = engine_->db().num_partitions();
  if (zipf_ != nullptr) {
    // Shuffle the Zipf ranks over partitions deterministically so the hot
    // partitions are spread across both sockets.
    const auto rank = static_cast<int64_t>(zipf_->Next());
    return static_cast<PartitionId>((rank * 17 + 5) % nparts);
  }
  return static_cast<PartitionId>(rng.NextBounded(static_cast<uint64_t>(nparts)));
}

const hwsim::WorkProfile& KvWorkload::profile() const {
  return params_.indexed ? KvIndexed() : KvNonIndexed();
}

int64_t KvWorkload::RowsPerPartition() const {
  return params_.num_keys / engine_->db().num_partitions();
}

engine::QuerySpec KvWorkload::MakeQuery(Rng& rng) {
  engine::QuerySpec spec;
  spec.profile = &profile();
  const int nparts = engine_->db().num_partitions();
  if (params_.indexed) {
    // Multi-get batch: keys hash into a few partitions; each lookup is one
    // operation of the latency-bound profile.
    const int k = std::min(params_.partitions_per_query, nparts);
    const double ops_each = static_cast<double>(params_.batch_gets) / k;
    const int start = PickPartition(rng);
    for (int i = 0; i < k; ++i) {
      spec.work.push_back({(start + i) % nparts, ops_each});
    }
  } else {
    // Point lookup without an index: scan the key's whole partition shard
    // (one operation per row).
    spec.work.push_back({PickPartition(rng), static_cast<double>(RowsPerPartition())});
  }
  spec.origin_socket = engine_->placement().HomeOf(spec.work.front().partition);
  return spec;
}

double KvWorkload::MeanOpsPerQuery() const {
  return params_.indexed ? static_cast<double>(params_.batch_gets)
                         : static_cast<double>(RowsPerPartition());
}

void KvWorkload::Load() {
  engine::Database& db = engine_->db();
  db.CreateTable(kTable, engine::Schema({{"key", engine::ColumnType::kInt64},
                                         {"value", engine::ColumnType::kInt64}}));
  const int64_t n =
      params_.functional_keys > 0 ? params_.functional_keys : params_.num_keys;
  if (params_.indexed) {
    db.CreateIndex(kIndex);
    // Pre-size the per-partition indexes so the load loop does not rehash.
    const size_t per_part =
        static_cast<size_t>(n / db.num_partitions() + 1);
    for (int p = 0; p < db.num_partitions(); ++p) {
      db.partition(p)->index(kIndex)->Reserve(per_part);
    }
  }
  for (int64_t key = 0; key < n; ++key) {
    Put(key, key * 2 + 1);
  }
  loaded_keys_ = n;
}

void KvWorkload::Put(int64_t key, int64_t value) {
  engine::Database& db = engine_->db();
  engine::Partition* part = db.partition(db.PartitionForKey(key));
  engine::Table* table = part->table(kTable);
  if (params_.indexed) {
    engine::HashIndex* index = part->index(kIndex);
    if (std::optional<uint32_t> row = index->Find(key)) {
      table->column(1)->SetInt(*row, value);
      return;
    }
    const size_t row = table->AppendRow({key, value});
    index->Insert(key, static_cast<uint32_t>(row));
    return;
  }
  // Non-indexed: scan for the key, update in place or append.
  const auto& keys = table->column(0)->ints();
  for (size_t row = 0; row < keys.size(); ++row) {
    if (keys[row] == key && !table->IsDeleted(row)) {
      table->column(1)->SetInt(row, value);
      return;
    }
  }
  table->AppendRow({key, value});
}

std::optional<int64_t> KvWorkload::Get(int64_t key) {
  engine::Database& db = engine_->db();
  engine::Partition* part = db.partition(db.PartitionForKey(key));
  engine::Table* table = part->table(kTable);
  if (params_.indexed) {
    if (std::optional<uint32_t> row = part->index(kIndex)->Find(key)) {
      return table->column(1)->GetInt(*row);
    }
    return std::nullopt;
  }
  const auto& keys = table->column(0)->ints();
  for (size_t row = 0; row < keys.size(); ++row) {
    if (keys[row] == key && !table->IsDeleted(row)) {
      return table->column(1)->GetInt(row);
    }
  }
  return std::nullopt;
}

void KvWorkload::InstallExecutor() {
  engine_->scheduler().SetFunctionalExecutor(
      [this](PartitionId partition, const msg::Message& m) {
        (void)partition;
        switch (m.type) {
          case msg::MessageType::kGet: {
            AsyncResult r;
            const std::optional<int64_t> v = Get(m.payload[2]);
            r.found = v.has_value();
            r.value = v.value_or(0);
            async_results_[m.query_id] = r;
            break;
          }
          case msg::MessageType::kPut:
            Put(m.payload[2], m.payload[3]);
            break;
          default:
            break;
        }
      });
}

QueryId KvWorkload::SubmitGet(int64_t key) {
  engine::QuerySpec spec;
  spec.profile = &profile();
  engine::PartitionWork work;
  work.partition = engine_->db().PartitionForKey(key);
  // Fluid cost: one index probe when indexed, a shard scan otherwise —
  // the same access pattern the sim-mode profile models.
  work.ops = params_.indexed ? 1.0 : static_cast<double>(RowsPerPartition());
  work.type = msg::MessageType::kGet;
  work.arg0 = key;
  spec.work.push_back(work);
  spec.origin_socket = engine_->placement().HomeOf(work.partition);
  return engine_->Submit(spec);
}

QueryId KvWorkload::SubmitPut(int64_t key, int64_t value) {
  engine::QuerySpec spec;
  spec.profile = &profile();
  engine::PartitionWork work;
  work.partition = engine_->db().PartitionForKey(key);
  work.ops = params_.indexed ? 1.0 : static_cast<double>(RowsPerPartition());
  work.type = msg::MessageType::kPut;
  work.arg0 = key;
  work.arg1 = value;
  spec.work.push_back(work);
  spec.origin_socket = engine_->placement().HomeOf(work.partition);
  return engine_->Submit(spec);
}

std::optional<KvWorkload::AsyncResult> KvWorkload::TakeResult(QueryId id) {
  auto it = async_results_.find(id);
  if (it == async_results_.end()) return std::nullopt;
  AsyncResult r = it->second;
  async_results_.erase(it);
  return r;
}

int64_t KvWorkload::ScanCountAtLeast(int64_t threshold) {
  engine::Database& db = engine_->db();
  int64_t count = 0;
  for (int p = 0; p < db.num_partitions(); ++p) {
    engine::Table* table = db.partition(p)->table(kTable);
    const auto& values = table->column(1)->ints();
    for (size_t row = 0; row < values.size(); ++row) {
      if (!table->IsDeleted(row) && values[row] >= threshold) ++count;
    }
  }
  return count;
}

}  // namespace ecldb::workload
