// Times every event the simulator runs, without touching its sources: the
// traced binary links with --wrap for EventQueue::PopAndRun, so the call
// from Simulator::RunUntil lands here and is charged to the kEvents span.
// If PopAndRun is renamed or moved inline, the link fails; update the
// mangled name here and in CMakeLists.txt together.

#include "sim/event_queue.h"
#include "span_clock.h"

using ecldb::SimTime;
using ecldb::sim::EventQueue;

extern "C" {
SimTime __real__ZN5ecldb3sim10EventQueue9PopAndRunEv(EventQueue* queue);

SimTime __wrap__ZN5ecldb3sim10EventQueue9PopAndRunEv(EventQueue* queue) {
  perfbench::SpanClock& spans = perfbench::Spans();
  if (!spans.active()) {
    return __real__ZN5ecldb3sim10EventQueue9PopAndRunEv(queue);
  }
  spans.Enter(perfbench::kEvents);
  const SimTime t = __real__ZN5ecldb3sim10EventQueue9PopAndRunEv(queue);
  spans.Exit();
  ++spans.events;
  return t;
}
}
