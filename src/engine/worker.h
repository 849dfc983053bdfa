#ifndef ECLDB_ENGINE_WORKER_H_
#define ECLDB_ENGINE_WORKER_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "msg/message.h"
#include "msg/partition_queue.h"

namespace ecldb::engine {

/// Execution state of one worker thread of the elastic data-oriented
/// architecture. Workers are pinned 1:1 to hardware threads; whether a
/// worker runs is decided by the hardware configuration the ECL applies
/// (its hardware thread's C-state), which is exactly the elasticity the
/// paper's Section 3 extensions enable.
struct Worker {
  int id = -1;
  HwThreadId hw_thread = -1;
  SocketId socket = -1;

  /// Partition queue currently owned (dequeue-own-process-release cycle),
  /// or nullptr.
  msg::PartitionQueue* owned = nullptr;
  /// Message batch dequeued from the owned partition.
  std::vector<msg::Message> batch;
  size_t batch_pos = 0;
  /// Remaining operations of the message currently being processed.
  double remaining_ops = 0.0;
  /// Round-robin scan cursor over the socket's partition queues.
  size_t rr_cursor = 0;

  /// Utilization accounting since the last TakeUtilization.
  double busy_seconds = 0.0;
  double active_seconds = 0.0;
};

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_WORKER_H_
