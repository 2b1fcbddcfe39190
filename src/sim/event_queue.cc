#include "sim/event_queue.h"

#include <bit>
#include <utility>

#include "common/check.h"

namespace ecldb::sim {

EventId EventQueue::Schedule(SimTime t, std::function<void()> fn) {
  const EventId id = next_id_++;
  heap_.push(Entry{t, id, std::move(fn)});
  const EventId word = id >> 6;
  ECLDB_DCHECK(word == end_word_ || word + 1 == end_word_);
  uint64_t& bits = window_[Slot(id)];
  if (word == end_word_) {
    // The window slides by one word: the pending ids of the word that
    // leaves it (which shares the slot) become stragglers.
    for (; bits != 0; bits &= bits - 1) {
      stragglers_.insert((word - kWindowWords) * 64 + std::countr_zero(bits));
    }
    end_word_ = word + 1;
  }
  bits |= uint64_t{1} << (id & 63);
  ++live_count_;
  return id;
}

bool EventQueue::IsPending(EventId id) const {
  if (id <= 0 || id >= next_id_) return false;
  if ((id >> 6) < end_word_ - kWindowWords) return stragglers_.count(id) > 0;
  return (window_[Slot(id)] >> (id & 63) & 1) != 0;
}

void EventQueue::ClearPending(EventId id) {
  if ((id >> 6) < end_word_ - kWindowWords) {
    stragglers_.erase(id);
  } else {
    window_[Slot(id)] &= ~(uint64_t{1} << (id & 63));
  }
}

bool EventQueue::Cancel(EventId id) {
  if (!IsPending(id)) return false;
  ClearPending(id);
  --live_count_;
  return true;
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && !IsPending(heap_.top().id)) heap_.pop();
}

SimTime EventQueue::NextTime() const {
  SkipCancelled();
  return heap_.empty() ? kSimTimeNever : heap_.top().t;
}

SimTime EventQueue::PopAndRun() {
  SkipCancelled();
  ECLDB_CHECK(!heap_.empty());
  // Move the entry out before running: the callback may schedule new events.
  Entry entry = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  ClearPending(entry.id);
  --live_count_;
  entry.fn();
  return entry.t;
}

}  // namespace ecldb::sim
