#include "msg/inter_socket_comm.h"

#include "common/check.h"

namespace ecldb::msg {

CommEndpoint::CommEndpoint(SocketId socket, int num_sockets,
                           size_t channel_capacity)
    : socket_(socket), outbox_(static_cast<size_t>(num_sockets)) {
  for (int d = 0; d < num_sockets; ++d) {
    if (d != socket) {
      outbox_[static_cast<size_t>(d)].fifo =
          std::make_unique<SegmentedFifo<Message>>(channel_capacity);
    }
  }
}

bool CommEndpoint::BufferOutbound(SocketId dest, const Message& m) {
  ECLDB_DCHECK(dest != socket_);
  ECLDB_DCHECK(dest >= 0 && dest < static_cast<SocketId>(outbox_.size()));
  return outbox_[static_cast<size_t>(dest)].fifo->TryPush(m);
}

size_t CommEndpoint::Pump(const DeliverFn& deliver, size_t max_batch) {
  size_t moved = 0;
  for (size_t d = 0; d < outbox_.size(); ++d) {
    Outbox& box = outbox_[d];
    if (box.fifo == nullptr) continue;
    size_t n = 0;
    Message m;
    while (n < max_batch) {
      // A held message is older than anything in the FIFO: retry it first.
      if (box.held.has_value()) {
        m = *box.held;
      } else if (!box.fifo->TryPop(&m)) {
        break;
      }
      if (!deliver(static_cast<SocketId>(d), m)) {
        box.held = m;
        break;
      }
      box.held.reset();
      ++n;
    }
    moved += n;
  }
  transferred_ += static_cast<int64_t>(moved);
  return moved;
}

size_t CommEndpoint::Pump(std::vector<IntraSocketRouter*>& routers,
                          size_t max_batch) {
  return Pump(
      [&routers](SocketId dest, const Message& m) {
        return routers[static_cast<size_t>(dest)]->Enqueue(m);
      },
      max_batch);
}

size_t CommEndpoint::OutboundPending() const {
  size_t sum = 0;
  for (const Outbox& box : outbox_) {
    if (box.fifo != nullptr) sum += box.fifo->Size() + box.held.has_value();
  }
  return sum;
}

size_t CommEndpoint::MemoryBytes() const {
  size_t bytes = 0;
  for (const Outbox& box : outbox_) {
    if (box.fifo != nullptr) bytes += box.fifo->MemoryBytes();
  }
  return bytes;
}

}  // namespace ecldb::msg
