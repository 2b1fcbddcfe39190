#ifndef PERFBENCH_SPAN_CLOCK_H_
#define PERFBENCH_SPAN_CLOCK_H_

// Host-time accounting for the traced run. Every nanosecond between Start()
// and Stop() is charged to exactly one span: the innermost open one. Probes
// at layer boundaries open and close spans, so a span's total is its self
// time (time in nested spans is charged to those), and the totals sum to
// the measured interval by construction.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

enum Span : int {
  kResidual,   // simulator loop outside any probe (stationarity horizon etc.)
  kHwsim,      // hwsim::Machine advancer (single node)
  kEngine,     // engine scheduler advancer (single node)
  kNodes,      // every node advancer of the rack (hwsim + engine, unsplit)
  kEvents,     // event queue pops: ECL ticks, arrivals, admission, faults
  kSubmit,     // LoadGen SubmitFn -> engine / cluster engine Submit
  kCallback,   // scheduler and cluster completion/failure callbacks
  kNumSpans,
};

class SpanClock {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts charging time; `base` receives whatever no probe claims.
  void Start(Span base) {
    depth_ = 1;
    stack_[0] = base;
    last_ = Clock::now();
    active_ = true;
  }
  void Stop() {
    Charge();
    active_ = false;
  }
  bool active() const { return active_; }

  void Enter(Span s) {
    Charge();
    if (depth_ == static_cast<int>(stack_.size())) {
      std::fprintf(stderr, "perfbench: span stack overflow\n");
      std::abort();
    }
    stack_[static_cast<size_t>(depth_++)] = s;
  }
  void Exit() {
    Charge();
    if (depth_ <= 1) {
      std::fprintf(stderr, "perfbench: span stack underflow\n");
      std::abort();
    }
    --depth_;
  }
  /// Closes the innermost span and opens `s` in its place.
  void Switch(Span s) {
    Charge();
    stack_[static_cast<size_t>(depth_ - 1)] = s;
  }
  Span top() const { return stack_[static_cast<size_t>(depth_ - 1)]; }

  double seconds(Span s) const {
    return static_cast<double>(ns_[static_cast<size_t>(s)]) * 1e-9;
  }
  Clock::time_point last() const { return last_; }

  int64_t events = 0;  // event pops seen while active

 private:
  void Charge() {
    const Clock::time_point now = Clock::now();
    ns_[static_cast<size_t>(top())] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count();
    last_ = now;
  }

  std::array<int64_t, kNumSpans> ns_{};
  std::array<Span, 16> stack_{};
  int depth_ = 0;
  Clock::time_point last_{};
  bool active_ = false;
};

/// The process-wide instance (the link-time event wrapper has no other way
/// to reach it). Only the traced binary ever starts it.
SpanClock& Spans();

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_CLOCK_H_
