#ifndef ECLDB_MSG_INTER_SOCKET_COMM_H_
#define ECLDB_MSG_INTER_SOCKET_COMM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "msg/intra_socket_router.h"
#include "msg/message.h"
#include "msg/segmented_fifo.h"

namespace ecldb::msg {

/// Inter-socket level of the hierarchical message passing layer:
/// "communication between sockets is handled by a communication thread per
/// socket that buffers messages targeting remote sockets and executes the
/// actual message transfer to the communication thread on the remote
/// socket side" (paper Section 3).
///
/// One CommEndpoint exists per socket. Workers of the socket push outbound
/// messages into per-destination outboxes; the socket's communication
/// thread calls `Pump()` to move batches across.
class CommEndpoint {
 public:
  CommEndpoint(SocketId socket, int num_sockets, size_t channel_capacity);

  SocketId socket() const { return socket_; }

  /// Buffers a message destined for `dest` (!= own socket). Any worker of
  /// this socket may call this; the socket's communication thread is the
  /// only consumer. Returns false when the channel is full.
  bool BufferOutbound(SocketId dest, const Message& m);

  /// Delivery callback: hands one message to the destination socket;
  /// returns false when the destination cannot accept it now (the message
  /// is held at the head of its channel and retried first on the next
  /// pump, so per-destination order is kept and nothing is dropped).
  using DeliverFn = std::function<bool(SocketId dest, const Message& m)>;

  /// Transfers up to `max_batch` buffered messages per destination via
  /// `deliver`. Called by the communication thread. Returns the number of
  /// messages transferred.
  size_t Pump(const DeliverFn& deliver, size_t max_batch);

  /// Convenience overload delivering directly into the destination
  /// routers (no placement indirection; direct msg-level use and tests).
  size_t Pump(std::vector<IntraSocketRouter*>& routers, size_t max_batch);

  /// Messages waiting in all outboxes, held ones included.
  size_t OutboundPending() const;

  /// FIFO segments held by all outboxes (0 until a message is buffered).
  size_t MemoryBytes() const;

  /// Total messages ever transferred by this endpoint.
  int64_t transferred() const { return transferred_; }

 private:
  struct Outbox {
    std::unique_ptr<SegmentedFifo<Message>> fifo;  // null for the own socket
    /// Popped message whose delivery failed; only the pump touches it.
    std::optional<Message> held;
  };

  SocketId socket_;
  std::vector<Outbox> outbox_;  // per destination
  int64_t transferred_ = 0;
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_INTER_SOCKET_COMM_H_
