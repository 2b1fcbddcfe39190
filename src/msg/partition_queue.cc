#include "msg/partition_queue.h"

#include "common/check.h"
#include "msg/intra_socket_router.h"

namespace ecldb::msg {

PartitionQueue::PartitionQueue(PartitionId partition, size_t capacity)
    : partition_(partition), ring_(capacity) {}

void PartitionQueue::AddPendingOps(double delta) {
  // CAS loop instead of fetch_add: atomic<double>::fetch_add is C++20 but
  // not universally lowered; relaxed order is enough for a diagnostic
  // counter that is only exact when the queue is quiesced.
  double cur = pending_ops_.load(std::memory_order_relaxed);
  while (!pending_ops_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
  }
}

bool PartitionQueue::Enqueue(const Message& m) {
  ECLDB_DCHECK(m.partition == partition_);
  if (!ring_.TryPush(m)) return false;
  AddPendingOps(MessageOps(m));
  if (router_ != nullptr) router_->NoteEnqueued(slot_);
  return true;
}

bool PartitionQueue::TryAcquire(int owner) {
  ECLDB_DCHECK(owner >= 0);
  int expected = -1;
  return owner_.compare_exchange_strong(expected, owner,
                                        std::memory_order_acq_rel);
}

void PartitionQueue::Release(int owner) {
  int expected = owner;
  const bool ok = owner_.compare_exchange_strong(expected, -1,
                                                 std::memory_order_acq_rel);
  ECLDB_CHECK_MSG(ok, "Release by non-owner");
}

size_t PartitionQueue::DequeueBatch(int owner, size_t max_batch,
                                    std::vector<Message>* out) {
  ECLDB_DCHECK(owner_.load(std::memory_order_acquire) == owner);
  (void)owner;
  size_t n = 0;
  Message m;
  while (n < max_batch && ring_.TryPop(&m)) {
    AddPendingOps(-MessageOps(m));
    out->push_back(m);
    ++n;
  }
  if (router_ != nullptr && n > 0) router_->NoteDequeued(*this, n);
  return n;
}

}  // namespace ecldb::msg
