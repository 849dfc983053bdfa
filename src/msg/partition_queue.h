#ifndef ECLDB_MSG_PARTITION_QUEUE_H_
#define ECLDB_MSG_PARTITION_QUEUE_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "msg/message.h"
#include "msg/segmented_fifo.h"

namespace ecldb::msg {

/// Message queue of one data partition, the core of the paper's elasticity
/// extension (Section 3): instead of a static worker-partition binding,
/// "messages for the same data partition are buffered and queued. Worker
/// threads continuously dequeue message batches for a data partition, take
/// ownership of the entire partition, process the messages, and release
/// the partition."
///
/// Any worker may enqueue; batch-dequeue requires holding the ownership
/// token, which guarantees exclusive access to the partition's data
/// structures while processing. Workers are actors on one simulator, so
/// the token is a plain field, not a latch.
class PartitionQueue {
 public:
  PartitionQueue(PartitionId partition, size_t capacity);

  PartitionQueue(const PartitionQueue&) = delete;
  PartitionQueue& operator=(const PartitionQueue&) = delete;

  PartitionId partition() const { return partition_; }

  /// Enqueues a message; false when the queue is full (producer should
  /// apply backpressure).
  bool Enqueue(const Message& m);

  /// Attempts to take exclusive ownership of the partition. `owner` is an
  /// arbitrary non-negative tag (worker id) recorded for diagnostics.
  bool TryAcquire(int owner);

  /// Releases ownership; must be called by the current owner.
  void Release(int owner);

  /// Current owner tag or -1. Diagnostic only.
  int owner() const { return owner_; }

  /// Dequeues up to `max_batch` messages into `out` (appended). Must only
  /// be called while holding ownership. Returns the number dequeued.
  size_t DequeueBatch(int owner, size_t max_batch, std::vector<Message>* out);

  size_t Size() const { return fifo_.Size(); }
  bool Empty() const { return fifo_.Empty(); }
  /// FIFO segments held now: none before the first message, then in step
  /// with the queued messages (see SegmentedFifo).
  size_t MemoryBytes() const { return fifo_.MemoryBytes(); }

  /// Running total of fluid operations queued (sum of MessageOps over the
  /// queued messages), maintained on every enqueue/dequeue so backlog
  /// accounting needs no draining. Operation counts are integral in
  /// practice, so the double accumulator cancels exactly when the queue
  /// empties.
  double PendingOps() const { return pending_ops_; }

 private:
  PartitionId partition_;
  SegmentedFifo<Message> fifo_;
  int owner_ = -1;
  double pending_ops_ = 0.0;
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_PARTITION_QUEUE_H_
