#include "msg/partition_queue.h"

#include "common/check.h"

namespace ecldb::msg {

PartitionQueue::PartitionQueue(PartitionId partition, size_t capacity)
    : partition_(partition), fifo_(capacity) {}

bool PartitionQueue::Enqueue(const Message& m) {
  ECLDB_DCHECK(m.partition == partition_);
  if (!fifo_.TryPush(m)) return false;
  pending_ops_ += MessageOps(m);
  return true;
}

bool PartitionQueue::TryAcquire(int owner) {
  ECLDB_DCHECK(owner >= 0);
  if (owner_ != -1) return false;
  owner_ = owner;
  return true;
}

void PartitionQueue::Release(int owner) {
  ECLDB_CHECK_MSG(owner_ == owner, "Release by non-owner");
  owner_ = -1;
}

size_t PartitionQueue::DequeueBatch(int owner, size_t max_batch,
                                    std::vector<Message>* out) {
  ECLDB_DCHECK(owner_ == owner);
  (void)owner;
  size_t n = 0;
  Message m;
  while (n < max_batch && fifo_.TryPop(&m)) {
    pending_ops_ -= MessageOps(m);
    out->push_back(m);
    ++n;
  }
  return n;
}

}  // namespace ecldb::msg
