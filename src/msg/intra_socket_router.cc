#include "msg/intra_socket_router.h"

#include <bit>

#include "common/check.h"

namespace ecldb::msg {
namespace {

constexpr size_t kWordBits = 64;

uint64_t SlotMask(size_t slot) { return uint64_t{1} << (slot % kWordBits); }

}  // namespace

IntraSocketRouter::IntraSocketRouter(SocketId socket,
                                     size_t num_global_partitions)
    : socket_(socket),
      nonempty_((num_global_partitions + kWordBits - 1) / kWordBits) {
  local_index_.assign(num_global_partitions, -1);
}

void IntraSocketRouter::Register(PartitionId p, PartitionQueue* queue) {
  ECLDB_CHECK(queue != nullptr && queue->partition() == p);
  ECLDB_CHECK(p >= 0 && p < static_cast<PartitionId>(local_index_.size()));
  ECLDB_CHECK_MSG(local_index_[static_cast<size_t>(p)] == -1,
                  "partition already registered");
  const size_t slot = queues_.size();
  local_index_[static_cast<size_t>(p)] = static_cast<int>(slot);
  partition_ids_.push_back(p);
  queues_.push_back(queue);
  queue->router_ = this;
  queue->slot_ = slot;
  const size_t queued = queue->SizeApprox();
  pending_.fetch_add(static_cast<int64_t>(queued), std::memory_order_relaxed);
  SetSlot(slot, queued > 0);
}

PartitionQueue* IntraSocketRouter::Deregister(PartitionId p) {
  ECLDB_CHECK(Owns(p));
  const size_t idx =
      static_cast<size_t>(local_index_[static_cast<size_t>(p)]);
  PartitionQueue* queue = queues_[idx];
  ECLDB_CHECK_MSG(queue->owner() == -1, "deregister of an owned queue");
  partition_ids_.erase(partition_ids_.begin() + static_cast<long>(idx));
  queues_.erase(queues_.begin() + static_cast<long>(idx));
  local_index_[static_cast<size_t>(p)] = -1;
  queue->router_ = nullptr;
  pending_.fetch_sub(static_cast<int64_t>(queue->SizeApprox()),
                     std::memory_order_relaxed);
  // The erase shifted every later queue down one slot.
  for (size_t i = idx; i < queues_.size(); ++i) {
    local_index_[static_cast<size_t>(partition_ids_[i])] = static_cast<int>(i);
    queues_[i]->slot_ = i;
    SetSlot(i, !queues_[i]->EmptyApprox());
  }
  return queue;
}

bool IntraSocketRouter::Owns(PartitionId p) const {
  return p >= 0 && p < static_cast<PartitionId>(local_index_.size()) &&
         local_index_[static_cast<size_t>(p)] >= 0;
}

bool IntraSocketRouter::Enqueue(const Message& m) {
  ECLDB_DCHECK(Owns(m.partition));
  const bool ok =
      queues_[static_cast<size_t>(local_index_[static_cast<size_t>(m.partition)])]
          ->Enqueue(m);
  if (!ok) enqueue_rejects_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

PartitionQueue* IntraSocketRouter::AcquireNonEmpty(int worker, size_t* cursor) {
  const size_t n = queues_.size();
  if (n == 0) return nullptr;
  // Round-robin from the slot after the cursor: [start, n), then [0, start).
  const size_t start = (*cursor + 1) % n;
  if (PartitionQueue* q = AcquireInRange(worker, start, n, cursor)) return q;
  return AcquireInRange(worker, 0, start, cursor);
}

PartitionQueue* IntraSocketRouter::AcquireInRange(int worker, size_t begin,
                                                  size_t end, size_t* cursor) {
  for (size_t word = begin / kWordBits; word * kWordBits < end; ++word) {
    uint64_t bits = nonempty_[word].load(std::memory_order_acquire);
    if (word == begin / kWordBits) bits &= ~uint64_t{0} << (begin % kWordBits);
    for (; bits != 0; bits &= bits - 1) {
      const size_t i =
          word * kWordBits + static_cast<size_t>(std::countr_zero(bits));
      if (i >= end) return nullptr;
      PartitionQueue* q = queues_[i];
      if (q->EmptyApprox()) continue;  // stale bit
      if (!q->TryAcquire(worker)) continue;
      if (q->EmptyApprox()) {  // raced with another worker draining it
        q->Release(worker);
        continue;
      }
      *cursor = i;
      return q;
    }
  }
  return nullptr;
}

PartitionQueue* IntraSocketRouter::queue(PartitionId p) {
  ECLDB_CHECK(Owns(p));
  return queues_[static_cast<size_t>(local_index_[static_cast<size_t>(p)])];
}

void IntraSocketRouter::NoteEnqueued(size_t slot) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  // Release pairs with the acquire in NoteDequeued: a dequeuer whose clear
  // lands after this set sees the pushed message when it re-checks.
  nonempty_[slot / kWordBits].fetch_or(SlotMask(slot),
                                       std::memory_order_release);
}

void IntraSocketRouter::NoteDequeued(const PartitionQueue& queue,
                                     size_t count) {
  pending_.fetch_sub(static_cast<int64_t>(count), std::memory_order_relaxed);
  if (!queue.EmptyApprox()) return;
  std::atomic<uint64_t>& word = nonempty_[queue.slot_ / kWordBits];
  word.fetch_and(~SlotMask(queue.slot_), std::memory_order_acq_rel);
  // An enqueue that pushed before the clear sets its bit either after the
  // clear (bit set again) or before it (visible to this re-check).
  if (!queue.EmptyApprox()) {
    word.fetch_or(SlotMask(queue.slot_), std::memory_order_release);
  }
}

void IntraSocketRouter::SetSlot(size_t slot, bool nonempty) {
  std::atomic<uint64_t>& word = nonempty_[slot / kWordBits];
  if (nonempty) {
    word.fetch_or(SlotMask(slot), std::memory_order_relaxed);
  } else {
    word.fetch_and(~SlotMask(slot), std::memory_order_relaxed);
  }
}

}  // namespace ecldb::msg
