#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "telemetry/telemetry.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/work_profiles.h"

namespace ecldb::engine {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : machine_(&sim_, hwsim::MachineParams::HaswellEp()),
        engine_(&sim_, &machine_, EngineParams{}) {}

  /// Activates all threads at the given frequencies.
  void AllOn(double core = 2.6, double uncore = 3.0) {
    machine_.ApplyMachineConfig(
        hwsim::MachineConfig::AllOn(machine_.topology(), core, uncore));
  }

  QuerySpec ComputeQuery(PartitionId p, double ops) {
    QuerySpec spec;
    spec.profile = &workload::ComputeBound();
    spec.work.push_back({p, ops});
    spec.origin_socket = engine_.placement().HomeOf(p);
    return spec;
  }

  sim::Simulator sim_;
  hwsim::Machine machine_;
  Engine engine_;
};

TEST_F(SchedulerTest, DefaultsToOnePartitionPerHwThread) {
  EXPECT_EQ(engine_.db().num_partitions(), 48);
}

TEST_F(SchedulerTest, QueryCompletesAndLatencyRecorded) {
  AllOn();
  // 2.6e9 ops/s per thread: 1e6 ops should take well under 5 ms
  // (including the 1 ms fluid slice granularity).
  engine_.Submit(ComputeQuery(0, 1e6));
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
  EXPECT_LT(engine_.latency().all().Mean(), 5.0);
  EXPECT_EQ(engine_.scheduler().inflight(), 0);
}

TEST_F(SchedulerTest, MultiPartitionQueryCompletesWhenAllTasksDone) {
  AllOn();
  QuerySpec spec;
  spec.profile = &workload::ComputeBound();
  for (PartitionId p = 0; p < 8; ++p) spec.work.push_back({p, 1e6});
  spec.origin_socket = 0;
  engine_.Submit(spec);
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
}

TEST_F(SchedulerTest, CrossSocketQueryTravelsViaComm) {
  AllOn();
  // Partition 47 is homed on socket 1 but submitted from socket 0.
  QuerySpec spec = ComputeQuery(47, 1e6);
  spec.origin_socket = 0;
  engine_.Submit(spec);
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
  EXPECT_GE(engine_.message_layer().comm(0)->transferred(), 1);
}

TEST_F(SchedulerTest, NoProgressWhenAllThreadsIdle) {
  // Machine starts idle: the query must wait.
  engine_.Submit(ComputeQuery(0, 1e6));
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_.latency().completed(), 0);
  EXPECT_EQ(engine_.scheduler().inflight(), 1);
  // Waking the socket completes it.
  AllOn();
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
}

TEST_F(SchedulerTest, ElasticShrinkKeepsPartitionsReachable) {
  // Only 2 threads of socket 0 active: all 24 socket-0 partitions are
  // still served (the elasticity extension of Section 3).
  machine_.ApplySocketConfig(
      0, hwsim::SocketConfig::FirstThreads(machine_.topology(), 2, 2.6, 3.0));
  for (PartitionId p = 0; p < 24; ++p) engine_.Submit(ComputeQuery(p, 1e5));
  sim_.RunFor(Millis(200));
  EXPECT_EQ(engine_.latency().completed(), 24);
}

TEST_F(SchedulerTest, DeactivationMidworkRequeues) {
  AllOn();
  engine_.Submit(ComputeQuery(3, 5.0e8));  // ~200 ms of single-thread work
  sim_.RunFor(Millis(20));
  EXPECT_EQ(engine_.latency().completed(), 0);
  // Turn socket 0 off mid-flight, then reactivate a *different* subset.
  machine_.ApplySocketConfig(0,
                             hwsim::SocketConfig::Idle(machine_.topology()));
  sim_.RunFor(Millis(20));
  machine_.ApplySocketConfig(0, hwsim::SocketConfig::FirstThreads(
                                    machine_.topology(), 4, 2.6, 3.0));
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(engine_.latency().completed(), 1);
}

// Half of socket 0's threads go to sleep in the middle of their batches.
// A slice skips a sleeping worker once its state is clean, so the state
// must stay clean: the requeued work completes elsewhere, the sleeping
// threads carry no load and no credit, and neither their instruction
// counters nor their workers' active time move. A wake puts them back to
// work.
TEST_F(SchedulerTest, SleptWorkersStayCleanAndWakeResumes) {
  AllOn();
  const hwsim::Topology& topo = machine_.topology();
  const int half = topo.threads_per_socket() / 2;
  auto submit_batch = [this] {
    // Four ~8 ms tasks per socket-0 partition: each worker owns a batch.
    for (int round = 0; round < 4; ++round) {
      for (PartitionId p = 0; p < 24; ++p) engine_.Submit(ComputeQuery(p, 2e7));
    }
  };
  submit_batch();
  sim_.RunFor(Millis(10));
  const Scheduler& sched = engine_.scheduler();
  int mid_batch = 0;
  for (HwThreadId t = half; t < topo.threads_per_socket(); ++t) {
    if (sched.workers()[static_cast<size_t>(t)].HasBatchWork()) ++mid_batch;
  }
  EXPECT_GT(mid_batch, 0);
  machine_.ApplySocketConfig(
      0, hwsim::SocketConfig::FirstThreads(topo, half, 2.6, 3.0));
  sim_.RunFor(Millis(2));

  std::vector<uint64_t> instructions;
  std::vector<uint64_t> active_bits;
  for (HwThreadId t = half; t < topo.threads_per_socket(); ++t) {
    instructions.push_back(machine_.ReadInstructions(t));
    active_bits.push_back(std::bit_cast<uint64_t>(
        sched.workers()[static_cast<size_t>(t)].active_seconds));
  }
  for (int slice = 0; slice < 500; ++slice) {
    sim_.RunFor(Millis(1));
    for (HwThreadId t = half; t < topo.threads_per_socket(); ++t) {
      const Worker& w = sched.workers()[static_cast<size_t>(t)];
      const auto k = static_cast<size_t>(t - half);
      ASSERT_EQ(w.owned, nullptr);
      ASSERT_TRUE(w.batch.empty());
      ASSERT_EQ(w.remaining_ops, 0.0);
      ASSERT_EQ(machine_.thread_load(t).profile, nullptr);
      ASSERT_EQ(machine_.PeekCompletedOps(t), 0.0);
      ASSERT_EQ(machine_.ReadInstructions(t), instructions[k]);
      ASSERT_EQ(std::bit_cast<uint64_t>(w.active_seconds), active_bits[k]);
    }
  }
  EXPECT_EQ(engine_.latency().completed(), 96);
  EXPECT_EQ(sched.inflight(), 0);

  // Wake: the slept threads take work again.
  AllOn();
  submit_batch();
  sim_.RunFor(Millis(5));
  for (HwThreadId t = half; t < topo.threads_per_socket(); ++t) {
    EXPECT_GT(sched.workers()[static_cast<size_t>(t)].busy_seconds, 0.0)
        << "thread " << t;
    EXPECT_GT(machine_.ReadInstructions(t),
              instructions[static_cast<size_t>(t - half)]);
  }
  sim_.RunFor(Millis(500));
  EXPECT_EQ(engine_.latency().completed(), 192);
}

// A slice skips parked workers, so work offered to a sleeping thread
// without a config write would earn credit nobody takes. Debug builds
// audit the parked workers on every step and abort instead.
TEST_F(SchedulerTest, ParkedWorkerAuditCatchesLoadWithoutConfigWrite) {
#ifdef NDEBUG
  GTEST_SKIP() << "the audit runs in builds without NDEBUG";
#else
  // The machine starts idle: the first slice parks every worker.
  sim_.RunFor(Millis(2));
  machine_.SetThreadLoad(0, &workload::ComputeBound(), 1.0);
  EXPECT_DEATH(sim_.RunFor(Millis(2)), "loaded without a config write");
#endif
}

TEST_F(SchedulerTest, UtilizationReflectsLoad) {
  AllOn();
  (void)engine_.TakeSocketUtilization(0);
  // Idle interval: utilization 0.
  sim_.RunFor(Millis(100));
  EXPECT_DOUBLE_EQ(engine_.TakeSocketUtilization(0), 0.0);
  // Saturating synthetic load: utilization 1.
  engine_.scheduler().SetSyntheticLoad(&workload::ComputeBound());
  sim_.RunFor(Millis(100));
  EXPECT_NEAR(engine_.TakeSocketUtilization(0), 1.0, 0.02);
  engine_.scheduler().SetSyntheticLoad(nullptr);
}

TEST_F(SchedulerTest, PartialLoadPartialUtilization) {
  AllOn();
  (void)engine_.TakeSocketUtilization(0);
  // One 24-thread socket at 2.6 GHz computes ~62 Gops/s; offering ~6 Gops
  // over 200 ms loads it to roughly 50 % for 100 ms.
  for (PartitionId p = 0; p < 24; ++p) engine_.Submit(ComputeQuery(p, 2.6e8));
  sim_.RunFor(Millis(200));
  const double u = engine_.TakeSocketUtilization(0);
  EXPECT_GT(u, 0.3);
  EXPECT_LT(u, 0.85);
}

TEST_F(SchedulerTest, BacklogDrainsFifoIsh) {
  AllOn();
  // Many small queries to one partition: all complete, in order of
  // submission (per-partition FIFO).
  for (int i = 0; i < 100; ++i) engine_.Submit(ComputeQuery(5, 1e5));
  sim_.RunFor(Millis(500));
  EXPECT_EQ(engine_.latency().completed(), 100);
}

TEST_F(SchedulerTest, RegisterProfileDeduplicates) {
  Scheduler& s = engine_.scheduler();
  const int a = s.RegisterProfile(&workload::ComputeBound());
  const int b = s.RegisterProfile(&workload::ComputeBound());
  const int c = s.RegisterProfile(&workload::MemoryScan());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SchedulerBackpressureTest, RejectionsCountedAndSpillDrains) {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  EngineParams params;
  params.message_layer.partition_queue_capacity = 4;
  Engine engine(&sim, &machine, params);
  // Machine idle: nothing drains, so the tiny partition queue fills and
  // later sends bounce into the scheduler's spill buffer.
  QuerySpec spec;
  spec.profile = &workload::ComputeBound();
  spec.work.push_back({0, 1e5});
  spec.origin_socket = 0;
  for (int i = 0; i < 10; ++i) engine.Submit(spec);
  const msg::MessageLayer::SocketStats stats = engine.socket_msg_stats(0);
  EXPECT_EQ(stats.send_rejects, 6);
  EXPECT_EQ(stats.enqueue_rejects, 6);
  EXPECT_EQ(engine.socket_msg_stats(1).send_rejects, 0);
  // Backpressure is flow control, not loss: once the socket wakes up the
  // spill retries succeed and every query completes.
  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));
  sim.RunFor(Millis(100));
  EXPECT_EQ(engine.latency().completed(), 10);
  EXPECT_EQ(engine.scheduler().inflight(), 0);
}

TEST_F(SchedulerTest, BacklogOpsExactWhileQueued) {
  // Machine idle: submitted work sits untouched in the partition queues,
  // so the backlog must equal the submitted ops exactly (the queues keep
  // running totals; no sampling or draining involved).
  engine_.Submit(ComputeQuery(0, 1e5));
  engine_.Submit(ComputeQuery(1, 2.5e5));
  engine_.Submit(ComputeQuery(30, 5e5));  // homed on socket 1
  EXPECT_DOUBLE_EQ(engine_.scheduler().BacklogOps(0), 3.5e5);
  EXPECT_DOUBLE_EQ(engine_.scheduler().BacklogOps(1), 5e5);
  AllOn();
  sim_.RunFor(Millis(100));
  EXPECT_EQ(engine_.latency().completed(), 3);
  EXPECT_DOUBLE_EQ(engine_.scheduler().BacklogOps(0), 0.0);
  EXPECT_DOUBLE_EQ(engine_.scheduler().BacklogOps(1), 0.0);
}

TEST_F(SchedulerTest, BacklogOpsCountsSpilledMessages) {
  // More ops than the queue accepts: the excess spills, and the backlog
  // accounting must include it (spill is still queued work).
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  EngineParams params;
  params.message_layer.partition_queue_capacity = 4;
  Engine engine(&sim, &machine, params);
  QuerySpec spec;
  spec.profile = &workload::ComputeBound();
  spec.work.push_back({0, 1e5});
  spec.origin_socket = 0;
  for (int i = 0; i < 10; ++i) engine.Submit(spec);
  EXPECT_DOUBLE_EQ(engine.scheduler().BacklogOps(0), 10e5);
}

TEST(StaticBindingTest, SkewedLoadCannotBeBalanced) {
  // The original data-oriented architecture (Section 3): worker i serves
  // partition i and nothing else. With the socket shrunk to four awake
  // threads, load landing on partitions 4..7 has no server under static
  // binding — the four awake workers idle once their own partitions
  // drain, so the skew cannot be balanced onto them. The elastic
  // scheduler spreads the same backlog over every awake worker and
  // completes all eight partitions.
  auto completed_after = [](bool static_binding, SimDuration horizon) {
    sim::Simulator sim;
    hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
    EngineParams params;
    params.scheduler.static_binding = static_binding;
    Engine engine(&sim, &machine, params);
    machine.ApplySocketConfig(
        0, hwsim::SocketConfig::FirstThreads(machine.topology(), 4, 2.6, 3.0));
    for (PartitionId p = 0; p < 8; ++p) {
      QuerySpec spec;
      spec.profile = &workload::ComputeBound();
      spec.work.push_back({p, 2.6e8});  // ~100 ms of single-thread work
      spec.origin_socket = 0;
      engine.Submit(spec);
    }
    sim.RunFor(horizon);
    return engine.latency().completed();
  };
  EXPECT_EQ(completed_after(/*static_binding=*/false, Millis(600)), 8);
  EXPECT_EQ(completed_after(/*static_binding=*/true, Millis(600)), 4);
}

TEST(StaticBindingTest, SleptThreadMakesPartitionUnavailable) {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  EngineParams params;
  params.scheduler.static_binding = true;
  Engine engine(&sim, &machine, params);
  // Threads 0-3 of socket 0 active; thread 5 is asleep, so partition 5 has
  // no server under static binding even though four workers sit idle.
  machine.ApplySocketConfig(
      0, hwsim::SocketConfig::FirstThreads(machine.topology(), 4, 2.6, 3.0));
  QuerySpec starved;
  starved.profile = &workload::ComputeBound();
  starved.work.push_back({5, 1e5});
  starved.origin_socket = 0;
  engine.Submit(starved);
  QuerySpec served = starved;
  served.work[0].partition = 2;  // its bound worker is awake
  engine.Submit(served);
  sim.RunFor(Millis(200));
  EXPECT_EQ(engine.latency().completed(), 1);
  EXPECT_EQ(engine.scheduler().inflight(), 1);
  // Waking the thread restores the partition.
  machine.ApplySocketConfig(
      0, hwsim::SocketConfig::FirstThreads(machine.topology(), 8, 2.6, 3.0));
  sim.RunFor(Millis(200));
  EXPECT_EQ(engine.latency().completed(), 2);
  EXPECT_EQ(engine.scheduler().inflight(), 0);
}

TEST_F(SchedulerTest, LatencyResetKeepsWindow) {
  AllOn();
  engine_.Submit(ComputeQuery(0, 1e5));
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
  engine_.latency().ResetRunStats();
  EXPECT_EQ(engine_.latency().completed(), 0);
  EXPECT_EQ(engine_.latency().all().count(), 0u);
  EXPECT_FALSE(engine_.latency().WindowEmpty());  // window survives reset
}

TEST_F(SchedulerTest, MorselizedTaskCompletesAsOneQuery) {
  AllOn();
  QuerySpec spec = ComputeQuery(0, 1e6);
  spec.work[0].type = msg::MessageType::kScan;
  spec.work[0].morsels = 8;
  engine_.Submit(spec);
  sim_.RunFor(Millis(50));
  // Eight morsel messages, one query: exactly one completion recorded.
  EXPECT_EQ(engine_.latency().completed(), 1);
  EXPECT_EQ(engine_.scheduler().inflight(), 0);
}

TEST_F(SchedulerTest, MorselSplitEngagesMultipleWorkers) {
  AllOn();
  // One partition's large scan (~190 ms of single-thread fluid work).
  // Unsplit, only the worker owning the partition queue consumes it;
  // split into morsels, every active worker of the socket can claim a
  // share batch by batch, so the scan finishes far sooner.
  QuerySpec serial = ComputeQuery(1, 5e8);
  serial.work[0].type = msg::MessageType::kScan;
  engine_.Submit(serial);
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(engine_.latency().completed(), 1);
  const double serial_ms = engine_.latency().all().Mean();

  engine_.latency().ResetRunStats();
  QuerySpec split = ComputeQuery(1, 5e8);
  split.work[0].type = msg::MessageType::kScan;
  split.work[0].morsels = 48;
  engine_.Submit(split);
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(engine_.latency().completed(), 1);
  const double split_ms = engine_.latency().all().Mean();
  // 48 morsels claimed in batches of 8 engage ~6 workers; slice
  // granularity adds a completion tail, so require >= 3x, not 6x.
  EXPECT_LT(split_ms, serial_ms / 3.0)
      << "morsels " << split_ms << " ms vs serial " << serial_ms << " ms";
}

TEST_F(SchedulerTest, MorselizedBacklogOpsStaysExact) {
  // All threads idle: the morsel messages sit queued; BacklogOps must
  // still report the task's exact total operations.
  QuerySpec spec = ComputeQuery(0, 4.8e5);
  spec.work[0].type = msg::MessageType::kScan;
  spec.work[0].morsels = 6;
  engine_.Submit(spec);
  sim_.RunFor(Millis(10));
  EXPECT_NEAR(engine_.scheduler().BacklogOps(0), 4.8e5, 1.0);
  AllOn();
  sim_.RunFor(Millis(50));
  EXPECT_EQ(engine_.latency().completed(), 1);
  EXPECT_NEAR(engine_.scheduler().BacklogOps(0), 0.0, 1e-9);
}

TEST(SchedulerMorselTest, AutoSplitByMorselOpsAndTelemetryCounts) {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  telemetry::Telemetry telemetry{telemetry::TelemetryParams{}};
  telemetry.Bind(&sim);
  EngineParams params;
  params.scheduler.morsel_ops = 1e5;  // tasks above this split
  params.telemetry = &telemetry;
  Engine engine(&sim, &machine, params);
  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));

  // 1e6-op kWorkUnits task: auto-split into ceil(1e6/1e5) = 10 morsels.
  QuerySpec spec;
  spec.profile = &workload::ComputeBound();
  spec.work.push_back({0, 1e6});
  spec.origin_socket = 0;
  engine.Submit(spec);
  sim.RunFor(Millis(100));
  EXPECT_EQ(engine.latency().completed(), 1);
  const auto& reg = telemetry.registry();
  EXPECT_EQ(reg.CounterValueByName("engine/morsels_dispatched"), 10);
  EXPECT_EQ(reg.CounterValueByName("engine/morsels_completed"), 10);
  // All morsels completed: the queue-depth gauge is back to zero.
  const int gi = reg.GaugeIndex("engine/socket0/morsel_queue_depth");
  ASSERT_GE(gi, 0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue(gi), 0.0);
}

TEST(SchedulerMorselTest, ExplicitMorselsCountedOnceEach) {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  telemetry::Telemetry telemetry{telemetry::TelemetryParams{}};
  telemetry.Bind(&sim);
  EngineParams params;
  params.telemetry = &telemetry;
  Engine engine(&sim, &machine, params);

  QuerySpec spec;
  spec.profile = &workload::ComputeBound();
  PartitionWork pw;
  pw.partition = 0;
  pw.ops = 6e5;
  pw.type = msg::MessageType::kScan;
  pw.morsels = 6;
  spec.work.push_back(pw);
  spec.origin_socket = 0;
  engine.Submit(spec);
  // Threads still idle: dispatched but not completed; depth gauge shows
  // the outstanding morsels of socket 0.
  const auto& reg = telemetry.registry();
  EXPECT_EQ(reg.CounterValueByName("engine/morsels_dispatched"), 6);
  EXPECT_EQ(reg.CounterValueByName("engine/morsels_completed"), 0);
  const int gi = reg.GaugeIndex("engine/socket0/morsel_queue_depth");
  ASSERT_GE(gi, 0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue(gi), 6.0);

  machine.ApplyMachineConfig(
      hwsim::MachineConfig::AllOn(machine.topology(), 2.6, 3.0));
  sim.RunFor(Millis(100));
  EXPECT_EQ(engine.latency().completed(), 1);
  EXPECT_EQ(reg.CounterValueByName("engine/morsels_completed"), 6);
  EXPECT_DOUBLE_EQ(reg.GaugeValue(gi), 0.0);
}

}  // namespace
}  // namespace ecldb::engine
