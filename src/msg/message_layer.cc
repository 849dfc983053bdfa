#include "msg/message_layer.h"

#include <string>

#include "common/check.h"

namespace ecldb::msg {

/// Most messages one PumpComm call delivers from a socket's endpoint.
constexpr size_t kCommPumpBatch = 256;

MessageLayer::MessageLayer(int num_sockets, const PlacementView* placement,
                           const MessageLayerParams& params)
    : params_(params), placement_(placement) {
  ECLDB_CHECK(num_sockets > 0);
  ECLDB_CHECK(placement != nullptr);
  const int num_partitions = placement_->num_partitions();
  stats_.resize(static_cast<size_t>(num_sockets));
  for (int s = 0; s < num_sockets; ++s) {
    routers_.push_back(std::make_unique<IntraSocketRouter>(
        s, static_cast<size_t>(num_partitions)));
    comms_.push_back(
        std::make_unique<CommEndpoint>(s, num_sockets, params_.comm_channel_capacity));
  }
  // Ascending registration per socket: the round-robin scan order workers
  // see is by partition id, as with the historical per-socket lists.
  for (PartitionId p = 0; p < num_partitions; ++p) {
    const SocketId s = placement_->HomeOf(p);
    ECLDB_CHECK(s >= 0 && s < num_sockets);
    queues_.push_back(
        std::make_unique<PartitionQueue>(p, params_.partition_queue_capacity));
    routers_[static_cast<size_t>(s)]->Register(p, queues_.back().get());
  }
  deliver_ = [this](SocketId dest, const Message& m) {
    return DeliverAt(dest, m);
  };
  if (telemetry::Telemetry* t = params_.telemetry; t != nullptr) {
    telemetry::MetricRegistry& reg = t->registry();
    for (int s = 0; s < num_sockets; ++s) {
      const std::string base = "msg/socket" + std::to_string(s) + "/";
      SocketCounters& c = stats_[static_cast<size_t>(s)];
      c.send_rejects = reg.AddCounter(base + "send_rejects");
      c.comm_rejects = reg.AddCounter(base + "comm_rejects");
      c.stale_forwards = reg.AddCounter(base + "stale_forwards");
      c.rehome_transfers = reg.AddCounter(base + "rehome_transfers");
      // The router keeps its own reject counter; it is exported
      // read-through.
      reg.AddCounterFn(base + "enqueue_rejects", [this, s] {
        return routers_[static_cast<size_t>(s)]->enqueue_rejects();
      });
      reg.AddGauge(base + "router_pending", [this, s] {
        return static_cast<double>(
            routers_[static_cast<size_t>(s)]->Pending());
      });
      reg.AddGauge(base + "comm_outbound_pending", [this, s] {
        return static_cast<double>(
            comms_[static_cast<size_t>(s)]->OutboundPending());
      });
    }
  }
}

bool MessageLayer::Send(SocketId origin_socket, const Message& m) {
  ECLDB_DCHECK(m.partition >= 0 && m.partition < num_partitions());
  Message stamped = m;
  stamped.epoch = static_cast<int32_t>(placement_->epoch());
  const SocketId home = placement_->HomeOf(m.partition);
  bool ok;
  if (home == origin_socket) {
    ok = routers_[static_cast<size_t>(home)]->Enqueue(stamped);
  } else {
    ok = comms_[static_cast<size_t>(origin_socket)]->BufferOutbound(home, stamped);
    if (!ok) stats_[static_cast<size_t>(origin_socket)].comm_rejects.Increment();
  }
  if (!ok) stats_[static_cast<size_t>(origin_socket)].send_rejects.Increment();
  return ok;
}

bool MessageLayer::DeliverAt(SocketId at, const Message& m) {
  IntraSocketRouter* router = routers_[static_cast<size_t>(at)].get();
  if (router->Owns(m.partition)) return router->Enqueue(m);
  // Stale-epoch arrival: the partition migrated away while the message was
  // in flight. Forward it to the current home through this socket's
  // endpoint (it keeps its original epoch for diagnostics).
  const SocketId home = placement_->HomeOf(m.partition);
  ECLDB_DCHECK(home != at);
  if (!comms_[static_cast<size_t>(at)]->BufferOutbound(home, m)) {
    stats_[static_cast<size_t>(at)].comm_rejects.Increment();
    return false;  // held at the sender, retried first on the next pump
  }
  stats_[static_cast<size_t>(at)].stale_forwards.Increment();
  return true;
}

size_t MessageLayer::PumpComm(SocketId socket) {
  return comms_[static_cast<size_t>(socket)]->Pump(deliver_, kCommPumpBatch);
}

size_t MessageLayer::Rehome(PartitionId p, SocketId from, SocketId to) {
  ECLDB_CHECK(from != to);
  ECLDB_CHECK(p >= 0 && p < num_partitions());
  PartitionQueue* queue = routers_[static_cast<size_t>(from)]->Deregister(p);
  routers_[static_cast<size_t>(to)]->Register(p, queue);
  const size_t moved = queue->Size();
  stats_[static_cast<size_t>(to)].rehome_transfers.Add(
      static_cast<int64_t>(moved));
  return moved;
}

size_t MessageLayer::DrainAllQueues() {
  size_t drained = 0;
  // Drain tag well above any worker id; the ownership protocol only needs
  // it to be non-negative.
  constexpr int kDrainOwner = 1 << 20;
  std::vector<Message> scratch;
  for (auto& q : queues_) {
    const bool acquired = q->TryAcquire(kDrainOwner);
    ECLDB_CHECK_MSG(acquired, "drain of an owned partition queue");
    for (;;) {
      scratch.clear();
      const size_t n = q->DequeueBatch(kDrainOwner, 256, &scratch);
      if (n == 0) break;
      drained += n;
    }
    q->Release(kDrainOwner);
  }
  const CommEndpoint::DeliverFn discard = [](SocketId, const Message&) {
    return true;
  };
  for (auto& c : comms_) {
    for (;;) {
      const size_t n = c->Pump(discard, 256);
      if (n == 0) break;
      drained += n;
    }
  }
  return drained;
}

MessageLayer::SocketStats MessageLayer::socket_stats(SocketId s) const {
  const SocketCounters& c = stats_[static_cast<size_t>(s)];
  SocketStats out;
  out.send_rejects = c.send_rejects.value();
  out.comm_rejects = c.comm_rejects.value();
  out.stale_forwards = c.stale_forwards.value();
  out.rehome_transfers = c.rehome_transfers.value();
  out.enqueue_rejects = routers_[static_cast<size_t>(s)]->enqueue_rejects();
  return out;
}

size_t MessageLayer::Pending() const {
  size_t sum = 0;
  for (const auto& r : routers_) sum += r->Pending();
  for (const auto& c : comms_) sum += c->OutboundPending();
  return sum;
}

size_t MessageLayer::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& q : queues_) bytes += q->MemoryBytes();
  for (const auto& c : comms_) bytes += c->MemoryBytes();
  return bytes;
}

}  // namespace ecldb::msg
