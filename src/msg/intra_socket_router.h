#ifndef ECLDB_MSG_INTRA_SOCKET_ROUTER_H_
#define ECLDB_MSG_INTRA_SOCKET_ROUTER_H_

#include <algorithm>
#include <atomic>
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
///
/// Registered queues report every enqueue and dequeue, so the router keeps
/// a pending-message count and a bitmap of non-empty queues indexed by
/// slot (position in the scan order). `PendingApprox` is O(1) and
/// `AcquireNonEmpty` visits only set bits. Invariant: a bit may be set for
/// an empty queue (or past the last slot), but never clear for a non-empty
/// queue once the enqueue that filled it has returned. Register/Deregister
/// must not race with traffic on this router's queues (migration runs in
/// event context).
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

  /// Scans the non-empty local partitions round-robin starting after
  /// `cursor` and acquires the first unowned one for `worker`. Returns
  /// nullptr when no work is available. Updates `cursor`.
  PartitionQueue* AcquireNonEmpty(int worker, size_t* cursor);

  /// Direct access to a partition's queue (must be local).
  PartitionQueue* queue(PartitionId p);

  /// Total messages pending across all local partitions; exact while no
  /// other thread is enqueueing or dequeueing.
  size_t PendingApprox() const {
    return static_cast<size_t>(
        std::max<int64_t>(0, pending_.load(std::memory_order_relaxed)));
  }

  /// Enqueue() calls rejected because the target queue was full
  /// (backpressure seen by any producer: sends, comm pumps, requeues).
  int64_t enqueue_rejects() const {
    return enqueue_rejects_.load(std::memory_order_relaxed);
  }

 private:
  friend class PartitionQueue;

  /// Occupancy reports from registered queues.
  void NoteEnqueued(size_t slot);
  void NoteDequeued(const PartitionQueue& queue, size_t count);
  /// Sets or clears a slot's non-empty bit.
  void SetSlot(size_t slot, bool nonempty);
  /// AcquireNonEmpty over the set bits of slots [begin, end).
  PartitionQueue* AcquireInRange(int worker, size_t begin, size_t end,
                                 size_t* cursor);

  SocketId socket_;
  std::vector<PartitionId> partition_ids_;
  std::vector<PartitionQueue*> queues_;  // parallel to partition_ids_
  /// Dense lookup: global partition id -> local index (-1 if foreign).
  std::vector<int> local_index_;
  std::atomic<int64_t> enqueue_rejects_{0};
  /// Messages queued in registered queues. Relaxed: a dequeue may be
  /// counted before the racing enqueue, so it can dip below zero briefly.
  std::atomic<int64_t> pending_{0};
  /// Non-empty bit per slot, 64 slots per word.
  std::vector<std::atomic<uint64_t>> nonempty_;
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_INTRA_SOCKET_ROUTER_H_
