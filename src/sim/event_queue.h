#ifndef ECLDB_SIM_EVENT_QUEUE_H_
#define ECLDB_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace ecldb::sim {

/// Identifier of a scheduled event; usable to cancel it.
using EventId = int64_t;

/// Time-ordered queue of callbacks. Events at equal times fire in
/// scheduling order (FIFO), which keeps simulations deterministic.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to fire at absolute virtual time `t`.
  EventId Schedule(SimTime t, std::function<void()> fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op and returns false.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return static_cast<size_t>(live_count_); }

  /// Time of the earliest pending event, or kSimTimeNever if none.
  SimTime NextTime() const;

  /// Pops and runs the earliest pending event; returns its time.
  /// Must not be called on an empty queue.
  SimTime PopAndRun();

 private:
  struct Entry {
    SimTime t;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;
    }
  };

  /// Words in the pending-id window: the newest 64 Ki ids, 8 KiB.
  static constexpr EventId kWindowWords = 1024;

  /// True while `id` is scheduled and has neither fired nor been
  /// cancelled.
  bool IsPending(EventId id) const;
  /// Marks a pending `id` fired or cancelled.
  void ClearPending(EventId id);
  /// Ring slot of the window word that holds `id`'s bit.
  static size_t Slot(EventId id) {
    return static_cast<size_t>((id >> 6) % kWindowWords);
  }
  /// Pops the cancelled entries off the top of the heap.
  void SkipCancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  /// Pending-id bitmap over the newest kWindowWords words of ids, a ring:
  /// bit `id % 64` of word `id / 64`, stored at slot
  /// `(id / 64) % kWindowWords`. A heap entry whose id is not pending was
  /// cancelled; Cancel only honours pending ids, so an already-fired or
  /// unknown id cannot corrupt `live_count_`.
  std::vector<uint64_t> window_ = std::vector<uint64_t>(kWindowWords, 0);
  /// One past the newest word in the window.
  EventId end_word_ = 0;
  /// Pending ids older than the window: events that stayed pending while
  /// 64 Ki newer ids were issued (samplers scheduled for a whole run, far
  /// timeouts). Few, so hashing them costs little, and the bookkeeping
  /// does not grow with the number of events ever scheduled.
  std::unordered_set<EventId> stragglers_;
  EventId next_id_ = 1;
  int64_t live_count_ = 0;
};

}  // namespace ecldb::sim

#endif  // ECLDB_SIM_EVENT_QUEUE_H_
