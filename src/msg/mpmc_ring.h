#ifndef ECLDB_MSG_MPMC_RING_H_
#define ECLDB_MSG_MPMC_RING_H_

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/check.h"

namespace ecldb::msg {

/// Bounded lock-free multi-producer/multi-consumer ring buffer
/// (Vyukov-style sequence-number design).
///
/// Partition queues are built on this: any worker of a socket may enqueue
/// messages for any partition, and whichever worker owns the partition at
/// the moment drains it.
///
/// The cells live in an anonymous private mapping, which the OS backs with
/// zero pages on first touch. Each cell stores its Vyukov sequence number
/// minus its own index, so an all-zero cell is the initial state and the
/// constructor writes nothing. Cells are filled in position order, so a
/// ring is resident only for the slots it has filled so far, whatever its
/// capacity; a ring that has wrapped is resident in full.
template <typename T>
class MpmcRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring cells start as zero pages and are never constructed");

 public:
  explicit MpmcRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    void* mem = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ECLDB_CHECK_MSG(mem != MAP_FAILED, "ring cell mapping");
    // Transparent huge pages would make one touched cell resident as 2 MiB.
    madvise(mem, bytes(), MADV_NOHUGEPAGE);
    cells_ = static_cast<Cell*>(mem);
  }

  ~MpmcRing() { munmap(cells_, bytes()); }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  bool TryPush(const T& value) {
    Cell* cell;
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = LoadSequence(pos);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;
    StoreSequence(pos, pos + 1);
    return true;
  }

  bool TryPop(T* out) {
    Cell* cell;
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = LoadSequence(pos);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    *out = cell->value;
    StoreSequence(pos, pos + mask_ + 1);
    return true;
  }

  size_t SizeApprox() const {
    const size_t e = enqueue_pos_.load(std::memory_order_acquire);
    const size_t d = dequeue_pos_.load(std::memory_order_acquire);
    return e >= d ? e - d : 0;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

 private:
  struct Cell {
    /// Sequence number minus the cell's index (wraps modulo 2^64).
    size_t sequence;
    T value;
  };

  size_t bytes() const { return capacity() * sizeof(Cell); }

  /// Sequence number of the cell that position `pos` maps to.
  size_t LoadSequence(size_t pos) const {
    const size_t index = pos & mask_;
    return std::atomic_ref<size_t>(cells_[index].sequence)
               .load(std::memory_order_acquire) +
           index;
  }

  void StoreSequence(size_t pos, size_t seq) {
    const size_t index = pos & mask_;
    std::atomic_ref<size_t>(cells_[index].sequence)
        .store(seq - index, std::memory_order_release);
  }

  Cell* cells_ = nullptr;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_MPMC_RING_H_
