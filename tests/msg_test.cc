#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "msg/inter_socket_comm.h"
#include "msg/intra_socket_router.h"
#include "msg/message.h"
#include "msg/message_layer.h"
#include "msg/mpmc_ring.h"
#include "msg/partition_queue.h"
#include "msg/placement_view.h"

namespace ecldb::msg {
namespace {

Message MakeMsg(PartitionId p, int64_t tag = 0) {
  Message m;
  m.query_id = tag;
  m.partition = p;
  m.type = MessageType::kWorkUnits;
  return m;
}

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
  RouterHarness(SocketId socket, std::vector<PartitionId> parts, size_t cap,
                size_t num_global_partitions = 64)
      : router(socket, num_global_partitions) {
    for (PartitionId p : parts) {
      queues.push_back(std::make_unique<PartitionQueue>(p, cap));
      router.Register(p, queues.back().get());
    }
  }
};

TEST(MpmcRingTest, FifoSingleThread) {
  MpmcRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(9));
  int v;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(MpmcRingTest, MultiProducerMultiConsumerStress) {
  MpmcRing<int64_t> ring(1024);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int64_t kPerProducer = 50000;
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        const int64_t v = p * kPerProducer + i;
        while (!ring.TryPush(v)) {
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int64_t v;
      while (popped.load() < kProducers * kPerProducer) {
        if (ring.TryPop(&v)) {
          sum.fetch_add(v);
          popped.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

/// Fills a ring of exactly `capacity` slots, then runs it through `laps`
/// laps: each alternates pop and push once round the ring (full after
/// every step), then drains to empty and refills to full. Checks FIFO
/// values and both edges on every lap, so positions wrap many times.
void CheckLapsAtExactCapacity(size_t capacity, int laps) {
  MpmcRing<Message> ring(capacity);
  ASSERT_EQ(ring.capacity(), capacity);
  int64_t next_push = 0;
  int64_t next_pop = 0;
  Message m;
  auto pop_expect_next = [&] {
    ASSERT_TRUE(ring.TryPop(&m));
    ASSERT_EQ(m.query_id, next_pop++);
  };
  ASSERT_FALSE(ring.TryPop(&m));
  for (size_t i = 0; i < capacity; ++i) {
    ASSERT_TRUE(ring.TryPush(MakeMsg(0, next_push++)));
  }
  ASSERT_FALSE(ring.TryPush(MakeMsg(0, -1)));
  for (int lap = 0; lap < laps; ++lap) {
    for (size_t i = 0; i < capacity; ++i) {
      pop_expect_next();
      ASSERT_TRUE(ring.TryPush(MakeMsg(0, next_push++)));
      ASSERT_FALSE(ring.TryPush(MakeMsg(0, -1)));
    }
    ASSERT_EQ(ring.SizeApprox(), capacity);
    for (size_t i = 0; i < capacity; ++i) pop_expect_next();
    ASSERT_FALSE(ring.TryPop(&m));
    ASSERT_TRUE(ring.EmptyApprox());
    for (size_t i = 0; i < capacity; ++i) {
      ASSERT_TRUE(ring.TryPush(MakeMsg(0, next_push++)));
    }
    ASSERT_FALSE(ring.TryPush(MakeMsg(0, -1)));
  }
  EXPECT_EQ(next_push - next_pop, static_cast<int64_t>(capacity));
}

TEST(MpmcRingTest, WrapsManyLapsAtExactCapacity) {
  CheckLapsAtExactCapacity(8, 5);
  CheckLapsAtExactCapacity(MessageLayerParams{}.partition_queue_capacity, 5);
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
  EXPECT_EQ(q.SizeApprox(), 10u);
  ASSERT_TRUE(q.TryAcquire(1));
  std::vector<Message> batch;
  EXPECT_EQ(q.DequeueBatch(1, 4, &batch), 4u);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].query_id, 0);
  EXPECT_EQ(batch[3].query_id, 3);
  EXPECT_EQ(q.DequeueBatch(1, 100, &batch), 6u);
  EXPECT_TRUE(q.EmptyApprox());
  q.Release(1);
}

TEST(PartitionQueueTest, BackpressureWhenFull) {
  PartitionQueue q(0, 4);
  int pushed = 0;
  while (q.Enqueue(MakeMsg(0, pushed))) ++pushed;
  EXPECT_EQ(pushed, 4);
}

TEST(IntraSocketRouterTest, RoutesToOwnedPartitions) {
  RouterHarness h(0, {2, 5, 9}, 64);
  IntraSocketRouter& router = h.router;
  EXPECT_TRUE(router.Owns(2));
  EXPECT_TRUE(router.Owns(9));
  EXPECT_FALSE(router.Owns(3));
  EXPECT_FALSE(router.Owns(100));
  EXPECT_TRUE(router.Enqueue(MakeMsg(5)));
  EXPECT_EQ(router.PendingApprox(), 1u);
  EXPECT_EQ(router.queue(5)->SizeApprox(), 1u);
}

TEST(IntraSocketRouterTest, RegisterDeregisterMovesQueueBetweenRouters) {
  RouterHarness h0(0, {0, 1}, 64);
  IntraSocketRouter r1(1, 64);
  ASSERT_TRUE(h0.router.Enqueue(MakeMsg(1, 7)));
  PartitionQueue* moved = h0.router.Deregister(1);
  ASSERT_NE(moved, nullptr);
  EXPECT_FALSE(h0.router.Owns(1));
  EXPECT_TRUE(h0.router.Owns(0));  // remaining partition still reachable
  EXPECT_EQ(h0.router.PendingApprox(), 0u);
  r1.Register(1, moved);
  EXPECT_TRUE(r1.Owns(1));
  // The queued message travelled with the queue.
  EXPECT_EQ(r1.queue(1)->SizeApprox(), 1u);
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

/// Linear-scan reference for AcquireNonEmpty: the first non-empty unowned
/// queue in round-robin order after `cursor`, as a slot index (-1: none).
int ReferenceAcquireSlot(IntraSocketRouter& router, size_t cursor) {
  const size_t n = router.num_partitions();
  for (size_t step = 0; step < n; ++step) {
    const size_t i = (cursor + 1 + step) % n;
    const PartitionQueue* q = router.queue(router.partitions()[i]);
    if (!q->EmptyApprox() && q->owner() == -1) return static_cast<int>(i);
  }
  return -1;
}

size_t SumOfQueueSizes(IntraSocketRouter& router) {
  size_t sum = 0;
  for (PartitionId p : router.partitions()) {
    sum += router.queue(p)->SizeApprox();
  }
  return sum;
}

TEST(IntraSocketRouterTest, ConcurrentEnqueueKeepsOccupancyExact) {
  // Producers enqueue while one owner acquires and drains; 100 queues span
  // two bitmap words.
  std::vector<PartitionId> parts;
  for (PartitionId p = 0; p < 100; ++p) parts.push_back(p);
  RouterHarness h(0, parts, 16, /*num_global_partitions=*/100);
  IntraSocketRouter& router = h.router;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 20000;
  std::atomic<bool> producing{true};
  std::atomic<int64_t> drained{0};
  std::thread owner([&] {
    size_t cursor = 0;
    std::vector<Message> batch;
    while (producing.load(std::memory_order_acquire)) {
      PartitionQueue* q = router.AcquireNonEmpty(0, &cursor);
      if (q == nullptr) continue;
      batch.clear();
      drained.fetch_add(static_cast<int64_t>(q->DequeueBatch(0, 8, &batch)));
      q->Release(0);
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&router, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        const Message m =
            MakeMsg(static_cast<PartitionId>(rng.NextBounded(100)), i);
        while (!router.Enqueue(m)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  producing.store(false, std::memory_order_release);
  owner.join();

  const size_t queued = SumOfQueueSizes(router);
  EXPECT_EQ(queued + static_cast<size_t>(drained.load()),
            static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(router.PendingApprox(), queued);
  // No non-empty queue has a clear bit: scanning from the slot before it
  // finds it first.
  const size_t n = router.num_partitions();
  for (size_t i = 0; i < n; ++i) {
    PartitionQueue* q = router.queue(router.partitions()[i]);
    if (q->EmptyApprox()) continue;
    size_t cursor = (i + n - 1) % n;
    EXPECT_EQ(router.AcquireNonEmpty(1, &cursor), q) << "slot " << i;
    EXPECT_EQ(cursor, i);
    q->Release(1);
  }
}

TEST(CommEndpointTest, PumpsToRemoteRouter) {
  RouterHarness h0(0, {0}, 64);
  RouterHarness h1(1, {1}, 64);
  std::vector<IntraSocketRouter*> routers = {&h0.router, &h1.router};
  CommEndpoint comm0(0, 2, 64);
  EXPECT_TRUE(comm0.BufferOutbound(1, MakeMsg(1, 42)));
  EXPECT_EQ(comm0.OutboundPendingApprox(), 1u);
  EXPECT_EQ(comm0.Pump(routers, 16), 1u);
  EXPECT_EQ(comm0.OutboundPendingApprox(), 0u);
  EXPECT_EQ(h1.router.queue(1)->SizeApprox(), 1u);
  EXPECT_EQ(comm0.transferred(), 1);
}

TEST(CommEndpointTest, PumpBatchBounded) {
  RouterHarness h0(0, {0}, 1024);
  RouterHarness h1(1, {1}, 1024);
  std::vector<IntraSocketRouter*> routers = {&h0.router, &h1.router};
  CommEndpoint comm0(0, 2, 1024);
  for (int i = 0; i < 40; ++i) comm0.BufferOutbound(1, MakeMsg(1, i));
  EXPECT_EQ(comm0.Pump(routers, 16), 16u);
  EXPECT_EQ(comm0.OutboundPendingApprox(), 24u);
}

TEST(MessageLayerTest, LocalSendGoesDirect) {
  TestPlacement placement({0, 0, 1, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  EXPECT_TRUE(layer.Send(0, MakeMsg(1)));
  EXPECT_EQ(layer.router(0)->PendingApprox(), 1u);
  EXPECT_EQ(layer.comm(0)->OutboundPendingApprox(), 0u);
}

TEST(MessageLayerTest, RemoteSendBuffersThenPumps) {
  TestPlacement placement({0, 0, 1, 1});
  MessageLayer layer(2, &placement, MessageLayerParams{});
  EXPECT_TRUE(layer.Send(0, MakeMsg(3)));  // partition 3 homed on socket 1
  EXPECT_EQ(layer.router(1)->PendingApprox(), 0u);
  EXPECT_EQ(layer.comm(0)->OutboundPendingApprox(), 1u);
  EXPECT_EQ(layer.PumpComm(0), 1u);
  EXPECT_EQ(layer.router(1)->PendingApprox(), 1u);
  EXPECT_EQ(layer.PendingApprox(), 1u);
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
  EXPECT_EQ(layer.router(0)->PendingApprox(), 0u);
  EXPECT_EQ(layer.socket_stats(0).stale_forwards, 1);
  EXPECT_EQ(layer.PumpComm(0), 1u);  // forwarded hop arrives at socket 1
  EXPECT_EQ(layer.router(1)->queue(0)->SizeApprox(), 2u);
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
  EXPECT_EQ(layer.router(2)->queue(0)->SizeApprox(), 1u);
  EXPECT_EQ(layer.PendingApprox(), 1u);
}

TEST(MessageLayerTest, RouterOccupancyMatchesLinearScanUnderRandomOps) {
  // Seeded random traffic through a 2-socket layer with 4-slot queues: 140
  // partitions, so a router's bitmap spans several words and rehomes shift
  // slots across word boundaries. After every step each router's pending
  // count equals the sum of its queue sizes, and AcquireNonEmpty picks the
  // same queue and cursor as a linear scan.
  constexpr int kPartitions = 140;
  std::vector<SocketId> home;
  for (int p = 0; p < kPartitions; ++p) home.push_back(p < 100 ? 0 : 1);
  TestPlacement placement(home);
  MessageLayerParams params;
  params.partition_queue_capacity = 4;
  MessageLayer layer(2, &placement, params);
  Rng rng(20240917);
  std::vector<PartitionQueue*> held;  // acquired by worker tag 1
  size_t cursors[2][3] = {};
  std::vector<Message> batch;
  int acquires = 0;
  int rehomes = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto p = static_cast<PartitionId>(rng.NextBounded(kPartitions));
    const auto s = static_cast<SocketId>(rng.NextBounded(2));
    const uint64_t op = rng.NextBounded(100);
    if (op < 35) {
      (void)layer.Send(s, MakeMsg(p, step));
    } else if (op < 45) {
      (void)layer.partition_queue(p)->Enqueue(MakeMsg(p, step));
    } else if (op < 55) {
      (void)layer.PumpComm(s);
    } else if (op < 70) {
      PartitionQueue* q = layer.partition_queue(p);
      if (q->TryAcquire(2)) {
        batch.clear();
        (void)q->DequeueBatch(2, 1 + rng.NextBounded(3), &batch);
        q->Release(2);
      }
    } else if (op < 85) {
      const size_t worker = rng.NextBounded(3);
      IntraSocketRouter& router = *layer.router(s);
      size_t* cursor = &cursors[s][worker];
      const int want = ReferenceAcquireSlot(router, *cursor);
      const size_t cursor_before = *cursor;
      PartitionQueue* got = router.AcquireNonEmpty(1, cursor);
      if (want < 0) {
        ASSERT_EQ(got, nullptr) << "step " << step;
        ASSERT_EQ(*cursor, cursor_before);
      } else {
        const PartitionId want_p =
            router.partitions()[static_cast<size_t>(want)];
        ASSERT_EQ(got, router.queue(want_p)) << "step " << step;
        ASSERT_EQ(*cursor, static_cast<size_t>(want));
        ++acquires;
        batch.clear();
        if (rng.NextBounded(2) == 0) (void)got->DequeueBatch(1, 2, &batch);
        held.push_back(got);
      }
    } else if (op < 93) {
      if (!held.empty()) {
        const size_t i = rng.NextBounded(held.size());
        held[i]->Release(1);
        held.erase(held.begin() + static_cast<long>(i));
      }
    } else if (op < 99) {
      const SocketId from = placement.HomeOf(p);
      if (layer.partition_queue(p)->owner() == -1) {
        layer.Rehome(p, from, 1 - from);
        placement.home[static_cast<size_t>(p)] = 1 - from;
        ++placement.epoch_value;
        ++rehomes;
      }
    } else {
      for (PartitionQueue* q : held) q->Release(1);
      held.clear();
      layer.DrainAllQueues();
      ASSERT_EQ(layer.PendingApprox(), 0u);
    }
    size_t comm_pending = 0;
    for (SocketId r = 0; r < 2; ++r) {
      ASSERT_EQ(layer.router(r)->PendingApprox(),
                SumOfQueueSizes(*layer.router(r)))
          << "step " << step << " socket " << r;
      comm_pending += layer.comm(r)->OutboundPendingApprox();
    }
    ASSERT_EQ(layer.PendingApprox(), layer.router(0)->PendingApprox() +
                                         layer.router(1)->PendingApprox() +
                                         comm_pending);
  }
  EXPECT_GT(acquires, 1000);
  EXPECT_GT(rehomes, 500);
  for (PartitionQueue* q : held) q->Release(1);
}

// The scheduler spills a message when its partition queue rejects it, so
// the default capacity is part of every simulated outcome.
TEST(MessageLayerTest, DefaultPartitionQueueHoldsExactly16Ki) {
  TestPlacement placement({0});
  MessageLayer layer(1, &placement, MessageLayerParams{});
  int sent = 0;
  while (sent <= 16384 && layer.Send(0, MakeMsg(0, sent))) ++sent;
  EXPECT_EQ(sent, 16384);
  EXPECT_EQ(layer.socket_stats(0).send_rejects, 1);
}

/// Resident set size of this process, from /proc/self/statm.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

// A rack node's layer: 2 sockets and 192 partitions at the default
// capacities, i.e. 192 MiB of partition-queue cells plus the comm outboxes.
// None of it may be resident before a message is queued. The layer is built
// twice so that reuse of the first build's freed memory would show too.
TEST(MessageLayerTest, UntouchedQueuesStayNonResident) {
  std::vector<SocketId> home(192);
  for (size_t p = 0; p < home.size(); ++p) {
    home[p] = static_cast<SocketId>(p % 2);
  }
  TestPlacement placement(home);
  const int64_t baseline = ResidentBytes();
  for (int build = 0; build < 2; ++build) {
    auto layer =
        std::make_unique<MessageLayer>(2, &placement, MessageLayerParams{});
    EXPECT_LT(ResidentBytes() - baseline, int64_t{8} << 20)
        << "build " << build;
  }
}

TEST(MessageTest, TypeNames) {
  // Exercised mostly for diagnostics; keep the mapping stable.
  EXPECT_STREQ(MessageTypeName(MessageType::kWorkUnits), "work_units");
  EXPECT_STREQ(MessageTypeName(MessageType::kGet), "get");
}

}  // namespace
}  // namespace ecldb::msg
