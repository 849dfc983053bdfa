#ifndef ECLDB_MSG_INTRA_SOCKET_ROUTER_H_
#define ECLDB_MSG_INTRA_SOCKET_ROUTER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "msg/message.h"
#include "msg/partition_queue.h"

namespace ecldb::msg {

/// Intra-socket level of the hierarchical message passing layer: the
/// partition queues of all data partitions homed on one socket.
///
/// Workers of the socket poll the router for work: `AcquireNonEmpty`
/// implements the dequeue-own-process-release cycle that replaces the
/// static worker-partition binding, implicitly load-balancing within the
/// socket (paper Section 3, "Elasticity Extensions").
///
/// Queues are owned by the MessageLayer and registered here; a live
/// migration deregisters the partition from the old home's router and
/// registers the same queue object (with any queued messages) at the new
/// home's router.
class IntraSocketRouter {
 public:
  /// `num_global_partitions` sizes the dense partition-id lookup.
  IntraSocketRouter(SocketId socket, size_t num_global_partitions);

  SocketId socket() const { return socket_; }
  const std::vector<PartitionId>& partitions() const { return partition_ids_; }
  size_t num_partitions() const { return queues_.size(); }

  /// Adds a partition queue to this router's scan set (appended, so the
  /// round-robin order is registration order).
  void Register(PartitionId p, PartitionQueue* queue);
  /// Removes a partition from the scan set and returns its queue. The
  /// queue must be unowned (quiesced) when deregistered.
  PartitionQueue* Deregister(PartitionId p);

  /// True iff the partition is homed on this socket.
  bool Owns(PartitionId p) const;

  /// Enqueues a message for a local partition; false when full.
  bool Enqueue(const Message& m);

  /// Scans local partitions round-robin starting after `cursor` and
  /// acquires the first non-empty unowned queue for `worker`. Returns
  /// nullptr when no work is available. Updates `cursor`.
  PartitionQueue* AcquireNonEmpty(int worker, size_t* cursor);

  /// Direct access to a partition's queue (must be local).
  PartitionQueue* queue(PartitionId p);

  /// Total messages pending across all local partitions.
  size_t Pending() const;

  /// Enqueue() calls rejected because the target queue was full
  /// (backpressure seen by any producer: sends, comm pumps, requeues).
  int64_t enqueue_rejects() const { return enqueue_rejects_; }

 private:
  SocketId socket_;
  std::vector<PartitionId> partition_ids_;
  std::vector<PartitionQueue*> queues_;  // parallel to partition_ids_
  /// Dense lookup: global partition id -> local index (-1 if foreign).
  std::vector<int> local_index_;
  int64_t enqueue_rejects_ = 0;
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_INTRA_SOCKET_ROUTER_H_
