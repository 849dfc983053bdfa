#ifndef ECLDB_MSG_MESSAGE_LAYER_H_
#define ECLDB_MSG_MESSAGE_LAYER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "msg/inter_socket_comm.h"
#include "msg/intra_socket_router.h"
#include "msg/message.h"
#include "msg/placement_view.h"
#include "telemetry/telemetry.h"

namespace ecldb::msg {

struct MessageLayerParams {
  /// Queue bounds. Varied by
  /// SchedulerBackpressureTest.RejectionsCountedAndSpillDrains (partition
  /// queues) and SchedulerStressTest.QueueOverflowSpillsAndRecovers (both).
  size_t partition_queue_capacity = 1 << 14;
  size_t comm_channel_capacity = 1 << 14;
  /// Optional telemetry context. When set, the layer's backpressure and
  /// forwarding counters live in the registry (`msg/socket{S}/...`) and
  /// per-socket queue-occupancy gauges are registered. Counter semantics
  /// are unchanged either way (the handles fall back to inline storage).
  telemetry::Telemetry* telemetry = nullptr;
};

/// Facade of the hierarchical message passing layer (paper Fig. 1): one
/// intra-socket router per socket (partition queues + ownership protocol)
/// plus one inter-socket communication endpoint per socket.
///
/// Routing consults the shared PlacementView — the layer holds no copy of
/// the partition-home mapping. The layer owns every partition queue; a
/// live migration moves the queue object between routers (`Rehome`), so
/// queued messages travel with their partition. Messages that were in
/// flight across sockets when a migration committed arrive at the old
/// home under a stale epoch and are forwarded to the current home.
class MessageLayer {
 public:
  /// Per-socket backpressure and migration-forwarding counters.
  struct SocketStats {
    /// Send() calls from this socket that returned false (the caller had
    /// to spill or drop).
    int64_t send_rejects = 0;
    /// Router Enqueue() rejections on this socket from any producer
    /// (sends, comm pumps, scheduler requeues).
    int64_t enqueue_rejects = 0;
    /// Outbound comm-channel rejections on this socket (full channel).
    int64_t comm_rejects = 0;
    /// Messages that arrived here after their partition migrated away and
    /// were forwarded to the current home.
    int64_t stale_forwards = 0;
    /// Messages that travelled into this socket inside a rehomed queue.
    int64_t rehome_transfers = 0;
  };

  /// `placement` must outlive the layer and is the single source of truth
  /// for partition homes.
  MessageLayer(int num_sockets, const PlacementView* placement,
               const MessageLayerParams& params);

  int num_sockets() const { return static_cast<int>(routers_.size()); }
  int num_partitions() const { return placement_->num_partitions(); }
  SocketId HomeOf(PartitionId p) const { return placement_->HomeOf(p); }

  /// Routes a message from a worker on `origin_socket` to its partition:
  /// directly into the local partition queue, or via the communication
  /// endpoints when the partition is homed remotely. Stamps the current
  /// placement epoch. Returns false on backpressure (full queue/channel).
  bool Send(SocketId origin_socket, const Message& m);

  /// Runs one pump round of the communication thread of `socket`,
  /// forwarding stale-epoch arrivals to the partition's current home.
  /// Returns the number of messages transferred.
  size_t PumpComm(SocketId socket);

  /// Migration rehome: moves partition `p`'s queue — with any queued
  /// messages — from `from`'s router to `to`'s router. The queue must be
  /// quiesced (unowned); the caller commits the new home in the placement
  /// afterwards, within the same event. Returns the number of messages
  /// that travelled with the queue.
  size_t Rehome(PartitionId p, SocketId from, SocketId to);

  IntraSocketRouter* router(SocketId s) { return routers_[static_cast<size_t>(s)].get(); }
  CommEndpoint* comm(SocketId s) { return comms_[static_cast<size_t>(s)].get(); }
  PartitionQueue* partition_queue(PartitionId p) {
    return queues_[static_cast<size_t>(p)].get();
  }
  const PartitionQueue* partition_queue(PartitionId p) const {
    return queues_[static_cast<size_t>(p)].get();
  }

  /// Crash recovery: discards every queued message — partition queues and
  /// outbound comm channels alike, held messages included. Every partition
  /// queue must be unowned (the scheduler releases worker ownership first);
  /// event context only. Returns the number of messages discarded.
  size_t DrainAllQueues();

  /// Combined per-socket counters (layer counters + the socket's router
  /// enqueue rejections).
  SocketStats socket_stats(SocketId s) const;

  /// Pending messages anywhere in the layer.
  size_t Pending() const;

  /// FIFO segments held now by every partition queue and comm outbox. A
  /// FIFO holds none until its first message and one once drained, so
  /// this follows the queued messages, not the queue count.
  size_t MemoryBytes() const;

 private:
  /// Delivers a pumped message at socket `at`; forwards it onward when the
  /// partition no longer lives there.
  bool DeliverAt(SocketId at, const Message& m);

  /// Counter-handle mirror of SocketStats. Without a telemetry context the
  /// handles count into their own inline storage, at the cost of the plain
  /// int64 fields they replaced. The router's enqueue-reject counter stays
  /// inside the router, which counts every producer's rejections, and is
  /// exported read-through.
  struct SocketCounters {
    telemetry::Counter send_rejects;
    telemetry::Counter comm_rejects;
    telemetry::Counter stale_forwards;
    telemetry::Counter rehome_transfers;
  };

  MessageLayerParams params_;
  const PlacementView* placement_;
  std::vector<std::unique_ptr<PartitionQueue>> queues_;  // by partition id
  std::vector<std::unique_ptr<IntraSocketRouter>> routers_;
  std::vector<std::unique_ptr<CommEndpoint>> comms_;
  std::vector<SocketCounters> stats_;
  CommEndpoint::DeliverFn deliver_;
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_MESSAGE_LAYER_H_
