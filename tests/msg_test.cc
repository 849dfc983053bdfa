#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "msg/inter_socket_comm.h"
#include "msg/intra_socket_router.h"
#include "msg/message.h"
#include "msg/message_layer.h"
#include "msg/partition_queue.h"
#include "msg/placement_view.h"
#include "msg/segmented_fifo.h"

namespace ecldb::msg {
namespace {

Message MakeMsg(PartitionId p, int64_t tag = 0) {
  Message m;
  m.query_id = tag;
  m.partition = p;
  m.type = MessageType::kWorkUnits;
  return m;
}

/// A FIFO segment is its link to the next segment plus its cells.
constexpr size_t kSegmentHeaderBytes = sizeof(void*);

/// Minimal mutable placement for layer tests (the real implementation is
/// engine::PlacementMap; the msg layer only sees this interface).
struct TestPlacement : PlacementView {
  std::vector<SocketId> home;
  int64_t epoch_value = 0;
  explicit TestPlacement(std::vector<SocketId> h) : home(std::move(h)) {}
  int num_partitions() const override { return static_cast<int>(home.size()); }
  SocketId HomeOf(PartitionId p) const override {
    return home[static_cast<size_t>(p)];
  }
  int64_t epoch() const override { return epoch_value; }
};

/// Owns the queues a router scans (the MessageLayer does this in real use).
struct RouterHarness {
  std::vector<std::unique_ptr<PartitionQueue>> queues;
  IntraSocketRouter router;
  RouterHarness(SocketId socket, std::vector<PartitionId> parts, size_t cap)
      : router(socket, /*num_global_partitions=*/64) {
    for (PartitionId p : parts) {
      queues.push_back(std::make_unique<PartitionQueue>(p, cap));
      router.Register(p, queues.back().get());
    }
  }
};

// The suite keeps the name of the ring type SegmentedFifo replaced.
TEST(MpmcRingTest, FifoSingleThread) {
  SegmentedFifo<int> fifo(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(fifo.TryPush(i));
  EXPECT_FALSE(fifo.TryPush(9));
  int v;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fifo.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(fifo.TryPop(&v));
}

TEST(MpmcRingTest, AllocatesOnFirstPushOnly) {
  SegmentedFifo<int64_t> fifo(5);
  EXPECT_EQ(fifo.capacity(), 8u);
  // A small FIFO's segment holds just its whole capacity.
  EXPECT_EQ(fifo.segment_capacity(), 8u);
  EXPECT_EQ(fifo.segment_bytes(), kSegmentHeaderBytes + 8 * sizeof(int64_t));
  int64_t v;
  EXPECT_FALSE(fifo.TryPop(&v));
  EXPECT_EQ(fifo.Size(), 0u);
  EXPECT_TRUE(fifo.Empty());
  EXPECT_EQ(fifo.MemoryBytes(), 0u);  // reading a fresh FIFO allocates nothing
  ASSERT_TRUE(fifo.TryPush(1));
  EXPECT_EQ(fifo.MemoryBytes(), fifo.segment_bytes());  // one segment
  ASSERT_TRUE(fifo.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_EQ(fifo.MemoryBytes(), fifo.segment_bytes());  // the one it fills next
}

TEST(MpmcRingTest, MemoryFollowsDepth) {
  SegmentedFifo<int64_t> fifo(1 << 14);
  const size_t seg = fifo.segment_capacity();
  const size_t seg_bytes = fifo.segment_bytes();
  // A page-sized segment: 511 cells of 8 B plus the link.
  EXPECT_EQ(seg, 511u);
  EXPECT_LE(seg_bytes, SegmentedFifo<int64_t>::kSegmentBytes);
  for (int64_t i = 0; i < 1000; ++i) ASSERT_TRUE(fifo.TryPush(i));
  EXPECT_LE(fifo.MemoryBytes(), ((1000 + seg - 1) / seg + 1) * seg_bytes);
  int64_t v;
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fifo.TryPop(&v));
    ASSERT_EQ(v, i);
  }
  EXPECT_LE(fifo.MemoryBytes(), seg_bytes);
  // 64 queued values span at most two segments of 511 cells, whatever
  // offset a lap starts at, and every left segment is freed.
  size_t peak = 0;
  for (int lap = 0; lap < 1000; ++lap) {
    for (int64_t i = 0; i < 64; ++i) ASSERT_TRUE(fifo.TryPush(i));
    peak = std::max(peak, fifo.MemoryBytes());
    for (int64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(fifo.TryPop(&v));
      ASSERT_EQ(v, i);
    }
    peak = std::max(peak, fifo.MemoryBytes());
  }
  EXPECT_LE(peak, 2 * seg_bytes);
  EXPECT_LE(fifo.MemoryBytes(), seg_bytes);
  // A standing depth of 64 that never drains walks through many segments:
  // still at most two are held, and values stay in order.
  for (int64_t i = 0; i < 64; ++i) ASSERT_TRUE(fifo.TryPush(i));
  for (int64_t i = 64; i < 64 + 10 * static_cast<int64_t>(seg); ++i) {
    ASSERT_TRUE(fifo.TryPush(i));
    ASSERT_TRUE(fifo.TryPop(&v));
    ASSERT_EQ(v, i - 64);
    ASSERT_LE(fifo.MemoryBytes(), 2 * seg_bytes);
  }
}

TEST(MpmcRingTest, CapacityHoldsAcrossSegments) {
  SegmentedFifo<int64_t> fifo(100);
  ASSERT_EQ(fifo.capacity(), 128u);
  for (int64_t i = 0; i < 128; ++i) ASSERT_TRUE(fifo.TryPush(i));
  EXPECT_FALSE(fifo.TryPush(128));
  EXPECT_EQ(fifo.Size(), 128u);
  // Keep the FIFO full for ten laps of its capacity: one pop frees room
  // for exactly one push, and values leave in the order they came, also
  // where they cross from one segment into the next.
  int64_t next_out = 0;
  int64_t next_in = 128;
  for (int lap = 0; lap < 10; ++lap) {
    for (int i = 0; i < 128; ++i) {
      int64_t v;
      ASSERT_TRUE(fifo.TryPop(&v));
      ASSERT_EQ(v, next_out++);
      ASSERT_TRUE(fifo.TryPush(next_in++));
      ASSERT_FALSE(fifo.TryPush(-1));
    }
  }
  EXPECT_GT(static_cast<size_t>(next_in), 4 * fifo.segment_capacity());
  EXPECT_EQ(fifo.Size(), 128u);
  int64_t v;
  while (fifo.TryPop(&v)) ASSERT_EQ(v, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(SegmentedFifoDeathTest, UseFromASecondThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the thread guard is a debug-build check";
#else
  // Nothing synchronises a FIFO: the first thread that pushes or pops owns
  // it, and a second thread's use aborts instead of racing.
  EXPECT_DEATH(
      {
        SegmentedFifo<int64_t> fifo(8);
        fifo.TryPush(1);
        std::thread([&fifo] { fifo.TryPush(2); }).join();
      },
      "ECLDB_CHECK failed");
#endif
}

TEST(PartitionQueueTest, OwnershipProtocol) {
  PartitionQueue q(3, 64);
  EXPECT_EQ(q.owner(), -1);
  EXPECT_TRUE(q.TryAcquire(7));
  EXPECT_EQ(q.owner(), 7);
  EXPECT_FALSE(q.TryAcquire(8));  // already owned
  q.Release(7);
  EXPECT_EQ(q.owner(), -1);
  EXPECT_TRUE(q.TryAcquire(8));
  q.Release(8);
}

TEST(PartitionQueueTest, BatchDequeueRespectsLimit) {
  PartitionQueue q(0, 64);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Enqueue(MakeMsg(0, i)));
  EXPECT_EQ(q.Size(), 10u);
  ASSERT_TRUE(q.TryAcquire(1));
  std::vector<Message> batch;
  EXPECT_EQ(q.DequeueBatch(1, 4, &batch), 4u);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].query_id, 0);
  EXPECT_EQ(batch[3].query_id, 3);
  EXPECT_EQ(q.DequeueBatch(1, 100, &batch), 6u);
  EXPECT_TRUE(q.Empty());
  q.Release(1);
}

TEST(PartitionQueueTest, BackpressureWhenFull) {
  PartitionQueue q(0, 4);
  int pushed = 0;
  while (q.Enqueue(MakeMsg(0, pushed))) ++pushed;
  EXPECT_EQ(pushed, 4);
}

TEST(PartitionQueueTest, LazyRingKeepsItsCapacity) {
  PartitionQueue q(0, 4);
  EXPECT_EQ(q.MemoryBytes(), 0u);
  ASSERT_TRUE(q.Enqueue(MakeMsg(0, 0)));
  const size_t allocated = q.MemoryBytes();
  EXPECT_GT(allocated, 0u);
  for (int i = 1; i < 4; ++i) EXPECT_TRUE(q.Enqueue(MakeMsg(0, i)));
  EXPECT_FALSE(q.Enqueue(MakeMsg(0, 4)));  // the 5th push is still rejected
  EXPECT_EQ(q.MemoryBytes(), allocated);
}

TEST(IntraSocketRouterTest, RoutesToOwnedPartitions) {
  RouterHarness h(0, {2, 5, 9}, 64);
  IntraSocketRouter& router = h.router;
  EXPECT_TRUE(router.Owns(2));
  EXPECT_TRUE(router.Owns(9));
  EXPECT_FALSE(router.Owns(3));
  EXPECT_FALSE(router.Owns(100));
  EXPECT_TRUE(router.Enqueue(MakeMsg(5)));
  EXPECT_EQ(router.Pending(), 1u);
  EXPECT_EQ(router.queue(5)->Size(), 1u);
}

TEST(IntraSocketRouterTest, RegisterDeregisterMovesQueueBetweenRouters) {
  RouterHarness h0(0, {0, 1}, 64);
  IntraSocketRouter r1(1, 64);
  ASSERT_TRUE(h0.router.Enqueue(MakeMsg(1, 7)));
  PartitionQueue* moved = h0.router.Deregister(1);
  ASSERT_NE(moved, nullptr);
  EXPECT_FALSE(h0.router.Owns(1));
  EXPECT_TRUE(h0.router.Owns(0));  // remaining partition still reachable
  EXPECT_EQ(h0.router.Pending(), 0u);
  r1.Register(1, moved);
  EXPECT_TRUE(r1.Owns(1));
  // The queued message travelled with the queue.
  EXPECT_EQ(r1.queue(1)->Size(), 1u);
  size_t cursor = 0;
  PartitionQueue* q = r1.AcquireNonEmpty(3, &cursor);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->partition(), 1);
  q->Release(3);
}

TEST(IntraSocketRouterTest, CountsEnqueueRejects) {
  RouterHarness h(0, {0}, 4);
  int pushed = 0;
  while (h.router.Enqueue(MakeMsg(0, pushed))) ++pushed;
  EXPECT_EQ(pushed, 4);
  EXPECT_EQ(h.router.enqueue_rejects(), 1);
  EXPECT_FALSE(h.router.Enqueue(MakeMsg(0)));
  EXPECT_EQ(h.router.enqueue_rejects(), 2);
}

TEST(IntraSocketRouterTest, AcquireNonEmptySkipsEmptyAndOwned) {
  RouterHarness h(0, {0, 1, 2}, 64);
  IntraSocketRouter& router = h.router;
  router.Enqueue(MakeMsg(1));
  router.Enqueue(MakeMsg(2));
  size_t cursor = 0;
  PartitionQueue* first = router.AcquireNonEmpty(10, &cursor);
  ASSERT_NE(first, nullptr);
  // Second worker gets the other non-empty queue.
  size_t cursor2 = 0;
  PartitionQueue* second = router.AcquireNonEmpty(11, &cursor2);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first->partition(), second->partition());
  // Nothing left for a third worker.
  size_t cursor3 = 0;
  EXPECT_EQ(router.AcquireNonEmpty(12, &cursor3), nullptr);
  first->Release(10);
  second->Release(11);
}

TEST(IntraSocketRouterTest, RoundRobinFromCursor) {
  RouterHarness h(0, {0, 1, 2, 3}, 64);
  IntraSocketRouter& router = h.router;
  for (PartitionId p = 0; p < 4; ++p) router.Enqueue(MakeMsg(p));
  size_t cursor = 0;  // starts scanning at index 1
  PartitionQueue* q = router.AcquireNonEmpty(1, &cursor);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->partition(), 1);
  q->Release(1);
}

TEST(CommEndpointTest, PumpsToRemoteRouter) {
  RouterHarness h0(0, {0}, 64);
  RouterHarness h1(1, {1}, 64);
  std::vector<IntraSocketRouter*> routers = {&h0.router, &h1.router};
  CommEndpoint comm0(0, 2, 64);
  EXPECT_TRUE(comm0.BufferOutbound(1, MakeMsg(1, 42)));
  EXPECT_EQ(comm0.OutboundPending(), 1u);
  EXPECT_EQ(comm0.Pump(routers, 16), 1u);
  EXPECT_EQ(comm0.OutboundPending(), 0u);
  EXPECT_EQ(h1.router.queue(1)->Size(), 1u);
  EXPECT_EQ(comm0.transferred(), 1);
}

TEST(CommEndpointTest, UndeliveredMessageKeepsItsPlace) {
  RouterHarness h0(0, {0}, 64);
  RouterHarness h1(1, {1}, 2);
  std::vector<IntraSocketRouter*> routers = {&h0.router, &h1.router};
  PartitionQueue* dest = h1.router.queue(1);
  ASSERT_TRUE(dest->Enqueue(MakeMsg(1, 1)));
  ASSERT_TRUE(dest->Enqueue(MakeMsg(1, 2)));  // destination full
  CommEndpoint comm0(0, 2, 64);
  ASSERT_TRUE(comm0.BufferOutbound(1, MakeMsg(1, 10)));  // A
  ASSERT_TRUE(comm0.BufferOutbound(1, MakeMsg(1, 11)));  // B
  EXPECT_EQ(comm0.Pump(routers, 16), 0u);
  EXPECT_EQ(comm0.OutboundPending(), 2u);  // A held, B buffered
  // Free the destination, then pump again: A arrives before B.
  std::vector<Message> out;
  ASSERT_TRUE(dest->TryAcquire(0));
  ASSERT_EQ(dest->DequeueBatch(0, 8, &out), 2u);
  dest->Release(0);
  EXPECT_EQ(comm0.Pump(routers, 16), 2u);
  EXPECT_EQ(comm0.OutboundPending(), 0u);
  out.clear();
  ASSERT_TRUE(dest->TryAcquire(0));
  ASSERT_EQ(dest->DequeueBatch(0, 8, &out), 2u);
  dest->Release(0);
  EXPECT_EQ(out[0].query_id, 10);
  EXPECT_EQ(out[1].query_id, 11);
  EXPECT_EQ(comm0.transferred(), 2);
}

TEST(CommEndpointTest, PumpBatchBounded) {
  RouterHarness h0(0, {0}, 1024);
  RouterHarness h1(1, {1}, 1024);
  std::vector<IntraSocketRouter*> routers = {&h0.router, &h1.router};
  CommEndpoint comm0(0, 2, 1024);
  for (int i = 0; i < 40; ++i) comm0.BufferOutbound(1, MakeMsg(1, i));
  EXPECT_EQ(comm0.Pump(routers, 16), 16u);
  EXPECT_EQ(comm0.OutboundPending(), 24u);
}

TEST(MessageLayerTest, LocalSendGoesDirect) {
  TestPlacement placement({0, 0, 1, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  EXPECT_TRUE(layer.Send(0, MakeMsg(1)));
  EXPECT_EQ(layer.router(0)->Pending(), 1u);
  EXPECT_EQ(layer.comm(0)->OutboundPending(), 0u);
}

TEST(MessageLayerTest, RemoteSendBuffersThenPumps) {
  TestPlacement placement({0, 0, 1, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  EXPECT_TRUE(layer.Send(0, MakeMsg(3)));  // partition 3 homed on socket 1
  EXPECT_EQ(layer.router(1)->Pending(), 0u);
  EXPECT_EQ(layer.comm(0)->OutboundPending(), 1u);
  EXPECT_EQ(layer.PumpComm(0), 1u);
  EXPECT_EQ(layer.router(1)->Pending(), 1u);
  EXPECT_EQ(layer.Pending(), 1u);
}

TEST(MessageLayerTest, HomeMapRespected) {
  TestPlacement placement({0, 1, 0, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  EXPECT_EQ(layer.HomeOf(0), 0);
  EXPECT_EQ(layer.HomeOf(1), 1);
  EXPECT_EQ(layer.num_partitions(), 4);
  EXPECT_TRUE(layer.router(0)->Owns(2));
  EXPECT_TRUE(layer.router(1)->Owns(3));
}

TEST(MessageLayerTest, SendStampsCurrentEpoch) {
  TestPlacement placement({0, 0});
  MessageLayer layer(1, &placement, MessageLayerParams{});
  placement.epoch_value = 5;
  ASSERT_TRUE(layer.Send(0, MakeMsg(1, 99)));
  std::vector<Message> batch;
  PartitionQueue* q = layer.partition_queue(1);
  ASSERT_TRUE(q->TryAcquire(0));
  ASSERT_EQ(q->DequeueBatch(0, 8, &batch), 1u);
  q->Release(0);
  EXPECT_EQ(batch[0].epoch, 5);
  EXPECT_EQ(batch[0].query_id, 99);
}

TEST(MessageLayerTest, SendRejectCountedPerOrigin) {
  TestPlacement placement({0});
  MessageLayerParams params;
  params.partition_queue_capacity = 4;
  MessageLayer layer(1, &placement, params);
  int sent = 0;
  while (layer.Send(0, MakeMsg(0, sent))) ++sent;
  EXPECT_EQ(sent, 4);
  const MessageLayer::SocketStats stats = layer.socket_stats(0);
  EXPECT_EQ(stats.send_rejects, 1);
  EXPECT_EQ(stats.enqueue_rejects, 1);
}

TEST(MessageLayerTest, RehomeMovesQueueAndForwardsStaleArrivals) {
  TestPlacement placement({0, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  // A remote send is buffered towards partition 0's old home (socket 0)...
  ASSERT_TRUE(layer.Send(1, MakeMsg(0, 7)));
  ASSERT_TRUE(layer.Send(0, MakeMsg(0, 8)));  // and one already queued
  // ...then the partition migrates to socket 1 before the comm pump runs.
  EXPECT_EQ(layer.Rehome(0, 0, 1), 1u);
  placement.home[0] = 1;
  placement.epoch_value = 1;
  EXPECT_TRUE(layer.router(1)->Owns(0));
  EXPECT_FALSE(layer.router(0)->Owns(0));
  // The in-flight message lands on socket 0, which no longer owns the
  // partition: it must be forwarded to the new home, not dropped.
  EXPECT_EQ(layer.PumpComm(1), 1u);  // socket1 -> socket0 transfer
  EXPECT_EQ(layer.router(0)->Pending(), 0u);
  EXPECT_EQ(layer.socket_stats(0).stale_forwards, 1);
  EXPECT_EQ(layer.PumpComm(0), 1u);  // forwarded hop arrives at socket 1
  EXPECT_EQ(layer.router(1)->queue(0)->Size(), 2u);
  EXPECT_EQ(layer.socket_stats(1).rehome_transfers, 1);
}

TEST(MessageLayerTest, DoublyStaleArrivalForwardsTwice) {
  // Two rehomes in quick succession: a message addressed under epoch 0
  // chases the partition across both moves, forwarded at each stale hop
  // and never dropped — the same chained re-resolution the cluster tier
  // relies on when a node-level rehome commits mid-flight.
  TestPlacement placement({0, 1, 2});
  MessageLayer layer(3, &placement, MessageLayerParams{});
  ASSERT_TRUE(layer.Send(1, MakeMsg(0, 7)));  // buffered toward socket 0
  layer.Rehome(0, 0, 1);
  placement.home[0] = 1;
  placement.epoch_value = 1;
  // The message lands on socket 0, which is stale: it forwards toward
  // the current home, socket 1.
  EXPECT_EQ(layer.PumpComm(1), 1u);
  EXPECT_EQ(layer.socket_stats(0).stale_forwards, 1);
  // The partition moves again while the forward is in flight...
  layer.Rehome(0, 1, 2);
  placement.home[0] = 2;
  placement.epoch_value = 2;
  // ...so the forwarded hop is stale too and forwards once more.
  EXPECT_EQ(layer.PumpComm(0), 1u);
  EXPECT_EQ(layer.socket_stats(1).stale_forwards, 1);
  EXPECT_EQ(layer.PumpComm(1), 1u);
  EXPECT_EQ(layer.router(2)->queue(0)->Size(), 1u);
  EXPECT_EQ(layer.Pending(), 1u);
}

TEST(MessageLayerTest, RingsAllocateOnFirstMessage) {
  TestPlacement placement({0, 0, 1, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  EXPECT_EQ(layer.MemoryBytes(), 0u);
  EXPECT_EQ(layer.Pending(), 0u);
  EXPECT_EQ(layer.DrainAllQueues(), 0u);
  EXPECT_EQ(layer.MemoryBytes(), 0u);  // draining empty rings allocates none
  ASSERT_TRUE(layer.Send(0, MakeMsg(1)));
  // One segment of the default 16,384-message FIFO: 73 cells of 56 B plus
  // the link, exactly a page.
  const size_t one_segment = kSegmentHeaderBytes + 73 * sizeof(Message);
  EXPECT_EQ(layer.partition_queue(1)->MemoryBytes(), one_segment);
  EXPECT_EQ(layer.MemoryBytes(), one_segment);
  ASSERT_TRUE(layer.Send(0, MakeMsg(3)));  // remote: only the outbox
  EXPECT_EQ(layer.partition_queue(3)->MemoryBytes(), 0u);
  EXPECT_EQ(layer.comm(0)->MemoryBytes(), one_segment);  // same geometry
  EXPECT_EQ(layer.MemoryBytes(), 2 * one_segment);
  EXPECT_EQ(layer.DrainAllQueues(), 2u);
  EXPECT_EQ(layer.MemoryBytes(), 2 * one_segment);  // drained: one apiece
}

TEST(MessageLayerTest, DrainDiscardsHeldOutboundMessage) {
  TestPlacement placement({0, 1});
  MessageLayerParams params;
  params.partition_queue_capacity = 2;
  MessageLayer layer(2, &placement, params);
  ASSERT_TRUE(layer.Send(1, MakeMsg(1, 1)));
  ASSERT_TRUE(layer.Send(1, MakeMsg(1, 2)));  // partition 1 full
  ASSERT_TRUE(layer.Send(0, MakeMsg(1, 3)));
  EXPECT_EQ(layer.PumpComm(0), 0u);  // undeliverable: held at socket 0
  EXPECT_EQ(layer.Pending(), 3u);
  EXPECT_EQ(layer.DrainAllQueues(), 3u);
  EXPECT_EQ(layer.Pending(), 0u);
}

TEST(MessageTest, TypeNames) {
  // Exercised mostly for diagnostics; keep the mapping stable.
  EXPECT_STREQ(MessageTypeName(MessageType::kWorkUnits), "work_units");
  EXPECT_STREQ(MessageTypeName(MessageType::kGet), "get");
}

}  // namespace
}  // namespace ecldb::msg
