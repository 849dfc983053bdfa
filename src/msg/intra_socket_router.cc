#include "msg/intra_socket_router.h"

#include "common/check.h"

namespace ecldb::msg {

IntraSocketRouter::IntraSocketRouter(SocketId socket,
                                     size_t num_global_partitions)
    : socket_(socket) {
  local_index_.assign(num_global_partitions, -1);
}

void IntraSocketRouter::Register(PartitionId p, PartitionQueue* queue) {
  ECLDB_CHECK(queue != nullptr && queue->partition() == p);
  ECLDB_CHECK(p >= 0 && p < static_cast<PartitionId>(local_index_.size()));
  ECLDB_CHECK_MSG(local_index_[static_cast<size_t>(p)] == -1,
                  "partition already registered");
  local_index_[static_cast<size_t>(p)] = static_cast<int>(queues_.size());
  partition_ids_.push_back(p);
  queues_.push_back(queue);
}

PartitionQueue* IntraSocketRouter::Deregister(PartitionId p) {
  ECLDB_CHECK(Owns(p));
  const size_t idx =
      static_cast<size_t>(local_index_[static_cast<size_t>(p)]);
  PartitionQueue* queue = queues_[idx];
  ECLDB_CHECK_MSG(queue->owner() == -1, "deregister of an owned queue");
  partition_ids_.erase(partition_ids_.begin() + static_cast<long>(idx));
  queues_.erase(queues_.begin() + static_cast<long>(idx));
  local_index_[static_cast<size_t>(p)] = -1;
  for (size_t i = idx; i < partition_ids_.size(); ++i) {
    local_index_[static_cast<size_t>(partition_ids_[i])] = static_cast<int>(i);
  }
  return queue;
}

bool IntraSocketRouter::Owns(PartitionId p) const {
  return p >= 0 && p < static_cast<PartitionId>(local_index_.size()) &&
         local_index_[static_cast<size_t>(p)] >= 0;
}

bool IntraSocketRouter::Enqueue(const Message& m) {
  ECLDB_DCHECK(Owns(m.partition));
  const bool ok =
      queues_[static_cast<size_t>(local_index_[static_cast<size_t>(m.partition)])]
          ->Enqueue(m);
  if (!ok) ++enqueue_rejects_;
  return ok;
}

PartitionQueue* IntraSocketRouter::AcquireNonEmpty(int worker, size_t* cursor) {
  const size_t n = queues_.size();
  if (n == 0) return nullptr;
  // Visits (*cursor + 1 + step) % n for step = 0..n-1, with one division
  // per call: idle workers run this scan every slice, usually over empty
  // queues only, so a division per queue would dominate it.
  size_t i = *cursor % n;
  for (size_t step = 0; step < n; ++step) {
    if (++i == n) i = 0;
    PartitionQueue* q = queues_[i];
    if (!q->Empty() && q->TryAcquire(worker)) {
      *cursor = i;
      return q;
    }
  }
  return nullptr;
}

PartitionQueue* IntraSocketRouter::queue(PartitionId p) {
  ECLDB_CHECK(Owns(p));
  return queues_[static_cast<size_t>(local_index_[static_cast<size_t>(p)])];
}

size_t IntraSocketRouter::Pending() const {
  size_t sum = 0;
  for (const PartitionQueue* q : queues_) sum += q->Size();
  return sum;
}

}  // namespace ecldb::msg
