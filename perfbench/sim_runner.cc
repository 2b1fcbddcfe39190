// One simulation of one benchmark workload, in one process, printing one
// JSON line: host timings, the simulated outcome, and (in the traced build)
// the per-layer split. run.py drives this binary; docs in README.md.
//
//   perfbench_sim --workload crowd|diurnal|rack --seed N
//   perfbench_sim_traced --workload W --seed N      (adds probes + counters)
//   perfbench_sim[_traced] --workload W --seed N --identity
//       also runs RunSloExperiment / RunClusterSloExperiment with the same
//       options and exits non-zero unless every outcome matches exactly.
//
// The stack is composed from public APIs in the order RunSloExperiment and
// RunClusterSloExperiment use, so the untraced run *is* the library's
// experiment; the traced build only adds probes that read the host clock.
// Exit status is non-zero on any failed correctness check.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "ecl/baseline.h"
#include "experiment/cluster_rig.h"
#include "experiment/drain.h"
#include "experiment/loadgen_trace.h"
#include "faultsim/fault_injector.h"
#include "loadgen/loadgen.h"
#include "span_clock.h"
#include "telemetry/telemetry.h"
#include "workload/kv.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench {

SpanClock& Spans() {
  static SpanClock clock;
  return clock;
}

namespace {

using namespace ecldb;
using Clock = std::chrono::steady_clock;

constexpr bool kTraced = PERFBENCH_TRACED != 0;
/// Host time is bucketed per this much simulated time in the traced run.
constexpr SimDuration kWindow = Millis(100);

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds (user + system) this process has used so far. The gated
/// host metrics are CPU time, not wall time: a single-threaded simulation's
/// CPU time does not grow while other work on a shared host holds its core.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- workloads

loadgen::TenantSpec Tenant(const char* name, loadgen::SloClass cls,
                           double weight, int64_t users) {
  loadgen::TenantSpec t;
  t.name = name;
  t.slo_class = cls;
  t.weight = weight;
  t.arrival.num_users = users;
  t.arrival.per_user_qps = 0.01;
  return t;
}

loadgen::ShapeSpec Shape(const char* name, double magnitude, SimTime start,
                         SimDuration duration) {
  loadgen::ShapeSpec s;
  s.name = name;
  s.magnitude = magnitude;
  s.start = start;
  s.duration = duration;
  return s;
}

struct Workload {
  bool rack = false;
  experiment::SloRunOptions single;
  experiment::WorkloadFactory single_factory;
  experiment::ClusterSloRunOptions cluster;
  experiment::ClusterWorkloadFactory cluster_factory;

  loadgen::LoadGenParams& loadgen() {
    return rack ? cluster.loadgen : single.loadgen;
  }
  bool admission() const {
    return rack ? cluster.admission_enabled : single.admission_enabled;
  }
  bool retry() const {
    return rack ? cluster.loadgen.retry.enabled : single.loadgen.retry.enabled;
  }
};

experiment::WorkloadFactory KvScans(int64_t num_keys, int batch_gets) {
  return [num_keys, batch_gets](engine::Engine* e)
             -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    params.num_keys = num_keys;
    params.batch_gets = batch_gets;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

// Single node, three SLO tenants, 10x flash crowd at 3x capacity with
// shedding: the shedding arm of bench/ablation_slo_tiers, option for option,
// except a 4x larger key space. Each scan is 4x fatter, so the same relative
// load needs a quarter of the arrivals and one run fits a dozen simulations.
Workload Crowd() {
  Workload w;
  experiment::SloRunOptions& o = w.single;
  o.run.prime_duration = Seconds(30);
  o.run.ecl.system.interval = Millis(250);
  o.loadgen.admission.classes[static_cast<size_t>(
      loadgen::SloClass::kStandard)] = {0.0, 0.0, 0.50, 0.85};
  o.loadgen.admission.classes[static_cast<size_t>(
      loadgen::SloClass::kBestEffort)] = {0.0, 0.0, 0.30, 0.60};
  o.loadgen.slo.classes[static_cast<size_t>(loadgen::SloClass::kPremium)] = {
      1500.0, 99.9};
  o.loadgen.slo.classes[static_cast<size_t>(loadgen::SloClass::kStandard)] = {
      2500.0, 99.0};
  o.loadgen.slo.classes[static_cast<size_t>(
      loadgen::SloClass::kBestEffort)] = {5000.0, 95.0};
  o.loadgen.duration = Seconds(120);
  o.loadgen.tenants = {
      Tenant("premium", loadgen::SloClass::kPremium, 0.2, 400'000),
      Tenant("standard", loadgen::SloClass::kStandard, 0.3, 1'000'000),
      Tenant("besteff", loadgen::SloClass::kBestEffort, 0.5, 4'000'000),
  };
  loadgen::TenantSpec& be = o.loadgen.tenants[2];
  be.arrival.kind = loadgen::ArrivalKind::kMmpp;
  be.arrival.mmpp.state_multipliers = {0.6, 1.4};
  be.arrival.mmpp.switch_rate_hz = 0.1;
  for (loadgen::TenantSpec& t : o.loadgen.tenants) {
    t.shapes.push_back(Shape("flash_crowd", 10.0, Seconds(50), Seconds(30)));
  }
  o.total_load = 0.3;
  o.admission_enabled = true;
  w.single_factory = KvScans(int64_t{1} << 26, 4'000);
  return w;
}

// Single node, sparse events: whole-shard scans over a 1 Gi-key table under
// two compressed diurnal cycles, so long idle-ish stretches fast-forward
// and per-slice advancer cost dominates host time.
Workload Diurnal() {
  Workload w;
  experiment::SloRunOptions& o = w.single;
  o.run.prime_duration = Seconds(30);
  o.loadgen.duration = Seconds(1200);
  o.loadgen.tenants = {
      Tenant("interactive", loadgen::SloClass::kStandard, 0.6, 1'000'000),
      Tenant("reports", loadgen::SloClass::kBestEffort, 0.4, 200'000),
  };
  for (loadgen::TenantSpec& t : o.loadgen.tenants) {
    t.shapes.push_back(Shape("diurnal", 4.0, 0, Seconds(600)));
  }
  o.total_load = 0.3;
  o.admission_enabled = false;
  w.single_factory = KvScans(int64_t{1} << 30, 4'000);
  return w;
}

// A 4-node rack under the cluster ECL (the knobs of bench/ablation_cluster)
// with one compressed diurnal cycle, a scripted crash and restart of node 1,
// and clients that retry typed failures with backoff. Admission is off: the
// max-node pressure signal sheds most arrivals at this load and the retries
// would turn the run into a retry storm (see README.md).
Workload Rack() {
  Workload w;
  w.rack = true;
  experiment::ClusterSloRunOptions& o = w.cluster;
  experiment::ClusterRunOptions& c = o.cluster;
  c.cluster_ecl.enabled = true;
  c.cluster_ecl.interval = Seconds(1);
  c.cluster_ecl.migrations_per_tick = 12;
  c.cluster_ecl.spread_migrations_per_tick = 24;
  c.cluster_ecl.post_migration_hold = Seconds(10);
  c.cluster_ecl.min_on_time = Seconds(30);
  c.engine.migration.min_shard_bytes = 64.0 * (1 << 20);
  c.node_ecl.socket.exclude_poll_instructions = true;
  o.loadgen.duration = Seconds(120);
  o.loadgen.tenants = {
      Tenant("premium", loadgen::SloClass::kPremium, 0.3, 400'000),
      Tenant("standard", loadgen::SloClass::kStandard, 0.7, 1'000'000),
  };
  for (loadgen::TenantSpec& t : o.loadgen.tenants) {
    t.shapes.push_back(Shape("diurnal", 6.0, Seconds(60), Seconds(120)));
  }
  o.loadgen.retry.enabled = true;
  o.loadgen.retry.mode = loadgen::RetryParams::Mode::kBackoff;
  o.loadgen.retry.max_attempts = 4;
  o.total_load = 0.15;
  o.admission_enabled = false;
  o.faults.Crash(Seconds(30), 1).Restart(Seconds(40), 1);
  const experiment::WorkloadFactory kv = KvScans(int64_t{1} << 29, 16'000);
  w.cluster_factory = [kv](engine::Engine* e) { return kv(e); };
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "crowd") {
    *out = Crowd();
  } else if (name == "diurnal") {
    *out = Diurnal();
  } else if (name == "rack") {
    *out = Rack();
  } else {
    return false;
  }
  out->loadgen().seed = seed;
  return true;
}

// ---------------------------------------------------------------- outcome

/// Per-layer figures of a traced run.
struct TraceStats {
  std::array<double, kNumSpans> span_s{};
  int64_t events = 0;
  int64_t steps = 0;
  int64_t ff_steps = 0;
  SimDuration sim_stepped = 0;
  SimDuration sim_ff = 0;
  std::vector<double> window_ms;
  // Registry counters and other layer counts.
  int64_t ecl_ticks = 0;
  int64_t ecl_multiplexed_evals = 0;
  int64_t cluster_power_downs = 0;
  int64_t cluster_wakes = 0;
  int64_t cluster_migrations_completed = 0;
  int64_t cluster_remote_sends = 0;
  int64_t cluster_stale_forwards = 0;
  int64_t faults_injected = 0;
};

struct Outcome {
  // Host seconds.
  double construct_s = 0.0;
  double prime_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double drain_s = 0.0;
  // Host CPU seconds of the same spans.
  double setup_cpu_s = 0.0;
  double run_cpu_s = 0.0;
  double drain_cpu_s = 0.0;
  /// CPU clock at the start of the trace, at every sampler event and at
  /// the end of the trace: the bounds of the trace's sampler windows.
  std::vector<double> cpu_marks;
  // Simulated results.
  int num_nodes = 1;
  SimDuration trace = 0;
  SimDuration drain_sim = 0;
  double energy_j = 0.0;
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;  // typed engine failures delivered to the client
  int64_t retries = 0;
  int64_t abandoned = 0;
  bool drained = false;
  std::array<int64_t, loadgen::kNumSloClasses> class_offered{};
  std::array<int64_t, loadgen::kNumSloClasses> class_admitted{};
  std::array<int64_t, loadgen::kNumSloClasses> class_shed{};
  std::array<int64_t, loadgen::kNumSloClasses> class_completed{};
  std::array<int64_t, loadgen::kNumSloClasses> class_violations{};
  std::array<double, loadgen::kNumSloClasses> class_mean_ms{};
  std::array<double, loadgen::kNumSloClasses> class_tail_ms{};
  /// Simulated latency of every completion, in completion order.
  std::vector<double> latency_ms;
  int64_t within_deadline = 0;
  std::vector<experiment::SloSample> series;
  TraceStats trace_stats;
};

/// Completion bookkeeping shared by both topologies: the exact latency
/// sample and the deadline test, then the LoadGen's own accounting.
struct Completions {
  loadgen::LoadGen* lg = nullptr;
  Outcome* out = nullptr;
  std::array<double, loadgen::kNumSloClasses> deadline_ms{};

  void OnComplete(int8_t cls, SimTime arrival, SimTime completion) {
    if (kTraced && Spans().active()) Spans().Enter(kCallback);
    if (cls >= 0 && cls < loadgen::kNumSloClasses) {
      const double ms = ToMillis(completion - arrival);
      out->latency_ms.push_back(ms);
      if (ms <= deadline_ms[static_cast<size_t>(cls)]) ++out->within_deadline;
    }
    lg->OnQueryComplete(cls, arrival, completion);
    if (kTraced && Spans().active()) Spans().Exit();
  }
  void OnFailed(int8_t cls, int16_t tenant, int8_t attempt, SimTime arrival,
                engine::FailReason reason) {
    if (kTraced && Spans().active()) Spans().Enter(kCallback);
    lg->OnQueryFailed(cls, tenant, attempt, arrival, reason);
    if (kTraced && Spans().active()) Spans().Exit();
  }
};

/// Step and window bookkeeping for the end-of-step probe.
struct StepProbe {
  explicit StepProbe(TraceStats* s) : stats(s) {}

  TraceStats* stats;
  SimTime window_end = 0;
  Clock::time_point window_start{};

  void Begin(SimTime now) {
    window_end = now + kWindow;
    window_start = Clock::now();
  }
  void OnStepEnd(SimTime from, SimTime to, bool ff) {
    if (!Spans().active()) return;
    if (ff) {
      ++stats->ff_steps;
      stats->sim_ff += to - from;
    } else {
      ++stats->steps;
      stats->sim_stepped += to - from;
    }
    while (to >= window_end) {
      const Clock::time_point now = Clock::now();
      stats->window_ms.push_back(
          std::chrono::duration<double, std::milli>(now - window_start)
              .count());
      window_start = now;
      window_end += kWindow;
    }
  }
};

/// A probe advancer: fast-forward capable, never limits the stationarity
/// horizon, changes no simulated state — it only reads the host clock.
sim::Advancer Probe(std::function<void(SimTime, SimTime, bool)> at) {
  sim::Advancer a;
  a.advance = [at](SimTime t0, SimTime t1) { at(t0, t1, false); };
  a.stationary_until = [](SimTime) { return kSimTimeNever; };
  a.fast_forward = [at](SimTime t0, SimTime t1, SimDuration) {
    at(t0, t1, true);
  };
  return a;
}

/// Runs `submit` inside the kSubmit span; a direct call when untraced.
template <typename Submit>
void TimedSubmit(Submit&& submit) {
  if (kTraced && Spans().active()) {
    Spans().Enter(kSubmit);
    submit();
    Spans().Exit();
  } else {
    submit();
  }
}

void FillLoadgen(const loadgen::LoadGen& lg, Outcome* out) {
  const loadgen::AdmissionController& adm = lg.admission();
  const loadgen::SloTracker& slo = lg.slo();
  out->arrivals = lg.arrivals();
  out->admitted = adm.total_admitted();
  out->shed = adm.total_shed();
  out->submitted = lg.submitted();
  out->completed = slo.total_completed();
  out->failed = lg.failed();
  out->retries = lg.retries();
  out->abandoned = lg.abandoned();
  for (size_t i = 0; i < lg.num_tenants(); ++i) {
    out->class_offered[static_cast<size_t>(lg.tenant_spec(i).slo_class)] +=
        lg.tenant_arrivals(i);
  }
  for (int i = 0; i < loadgen::kNumSloClasses; ++i) {
    const auto c = static_cast<loadgen::SloClass>(i);
    const size_t k = static_cast<size_t>(i);
    out->class_admitted[k] = adm.admitted(c);
    out->class_shed[k] = adm.shed(c);
    out->class_completed[k] = slo.completed(c);
    out->class_violations[k] = slo.violations(c);
    out->class_mean_ms[k] = slo.latency(c).Mean();
    out->class_tail_ms[k] = slo.TailLatencyMs(c);
  }
}

void FillCounters(const telemetry::MetricRegistry& reg, TraceStats* t) {
  auto ends_with = [](const std::string& s, const char* suffix) {
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  };
  for (int i = 0; i < reg.num_counters(); ++i) {
    const std::string& name = reg.counter_name(i);
    const int64_t v = reg.CounterValue(i);
    const bool socket_ecl = name.find("ecl/socket") != std::string::npos;
    if (socket_ecl && ends_with(name, "/ticks")) t->ecl_ticks += v;
    if (socket_ecl && ends_with(name, "/multiplexed_evals")) {
      t->ecl_multiplexed_evals += v;
    }
  }
  t->cluster_power_downs = reg.CounterValueByName("cluster/ecl/power_downs");
  t->cluster_wakes = reg.CounterValueByName("cluster/ecl/wakes");
  t->cluster_migrations_completed =
      reg.CounterValueByName("cluster/migrations_completed");
  t->cluster_remote_sends = reg.CounterValueByName("cluster/remote_sends");
  t->cluster_stale_forwards = reg.CounterValueByName("cluster/stale_forwards");
  t->faults_injected = reg.CounterValueByName("faults/injected");
}

// ---------------------------------------------------------------- runners

/// RunSloExperiment, composed step for step, with the traced build's
/// probes around the machine and engine advancers.
Outcome RunSingle(const experiment::SloRunOptions& options,
                  const experiment::WorkloadFactory& factory,
                  telemetry::Telemetry* tel) {
  Outcome out;
  StepProbe step(&out.trace_stats);
  const Clock::time_point t_construct = Clock::now();
  const double c_construct = CpuNow();

  const experiment::RunOptions& run = options.run;
  sim::Simulator simulator;
  simulator.set_fast_forward(run.fast_forward);
  if (tel != nullptr) tel->Bind(&simulator);
  if (kTraced) {
    simulator.RegisterAdvancer(Probe([](SimTime, SimTime, bool) {
      if (Spans().active()) Spans().Enter(kHwsim);
    }));
  }
  hwsim::Machine machine(&simulator, run.machine);
  if (tel != nullptr) machine.AttachTelemetry(tel);
  if (kTraced) {
    simulator.RegisterAdvancer(Probe([](SimTime, SimTime, bool) {
      if (Spans().active()) Spans().Switch(kEngine);
    }));
  }
  engine::EngineParams engine_params = run.engine;
  if (tel != nullptr) engine_params.telemetry = tel;
  engine::Engine engine(&simulator, &machine, engine_params);
  if (kTraced) {
    simulator.RegisterAdvancer(
        Probe([&step](SimTime t0, SimTime t1, bool ff) {
          if (!Spans().active()) return;
          Spans().Exit();
          step.OnStepEnd(t0, t1, ff);
        }));
  }
  std::unique_ptr<workload::Workload> workload = factory(&engine);
  ECLDB_CHECK(workload != nullptr);
  const double capacity =
      run.capacity_qps > 0.0
          ? run.capacity_qps
          : workload::BaselineCapacityQps(run.machine, *workload);

  ecl::BaselineController baseline(&machine);
  std::unique_ptr<ecl::EnergyControlLoop> loop;
  if (run.mode == experiment::ControlMode::kEcl) {
    ecl::EclParams ecl_params = run.ecl;
    if (tel != nullptr) ecl_params.telemetry = tel;
    loop = std::make_unique<ecl::EnergyControlLoop>(&simulator, &engine,
                                                    ecl_params);
    loop->Start();
  } else {
    baseline.Start();
  }
  out.construct_s = Since(t_construct);

  const Clock::time_point t_prime = Clock::now();
  if (run.prime_duration > 0) {
    engine.scheduler().SetSyntheticLoad(&workload->profile());
    simulator.RunFor(run.prime_duration);
    engine.scheduler().SetSyntheticLoad(nullptr);
  }
  engine.latency().ResetRunStats();
  out.prime_s = Since(t_prime);

  loadgen::LoadGenParams lg_params = options.loadgen;
  if (lg_params.telemetry == nullptr) lg_params.telemetry = tel;
  loadgen::LoadGen lg(&simulator, workload.get(), lg_params);
  lg.NormalizeToCapacity(capacity, options.total_load);
  Completions done{&lg, &out, {}};
  for (int i = 0; i < loadgen::kNumSloClasses; ++i) {
    done.deadline_ms[static_cast<size_t>(i)] =
        lg.slo().class_params(static_cast<loadgen::SloClass>(i)).deadline_ms;
  }
  lg.SetSubmitFn([&engine](engine::QuerySpec&& spec) {
    TimedSubmit([&] { engine.Submit(spec); });
  });
  engine.scheduler().SetCompletionCallback(
      [&done](int8_t cls, SimTime arrival, SimTime completion) {
        done.OnComplete(cls, arrival, completion);
      });
  engine.scheduler().SetFailureCallback(
      [&done](int8_t cls, int16_t tenant, int8_t attempt, SimTime arrival,
              engine::FailReason reason) {
        done.OnFailed(cls, tenant, attempt, arrival, reason);
      });
  if (options.admission_enabled && loop != nullptr) {
    ecl::SystemEcl& system = loop->system();
    lg.admission().SetPressureSource(
        [&system] { return system.pressure(); });
    system.SetShedSignal([&lg, &simulator] {
      return lg.admission().RecentShedFraction(simulator.now());
    });
  }

  const SimTime run_start = simulator.now();
  const double e0 = machine.TotalEnergyJoules();
  lg.Start();

  const hwsim::Topology& topo = run.machine.topology;
  const SimTime run_end = run_start + options.loadgen.duration;
  double sampler_last_energy = machine.TotalEnergyJoules();
  if (tel != nullptr) tel->StartSampler(run_start);
  for (SimTime t = run_start + run.sample_period; t <= run_end;
       t += run.sample_period) {
    simulator.Schedule(t, [&, t] {
      out.cpu_marks.push_back(CpuNow());
      experiment::SloSample s;
      s.t_s = ToSeconds(t - run_start);
      s.offered_qps = lg.OfferedQps(t);
      const double e = machine.TotalEnergyJoules();
      s.power_w = (e - sampler_last_energy) / ToSeconds(run.sample_period);
      sampler_last_energy = e;
      s.latency_window_ms = engine.latency().WindowMeanMs();
      if (loop != nullptr) s.pressure = loop->system().pressure();
      s.shed_fraction = lg.admission().RecentShedFraction(t);
      for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
        s.width += machine.requested_config(sk).ActiveThreadCount();
      }
      out.series.push_back(s);
    });
  }
  out.setup_s = Since(t_construct);
  out.setup_cpu_s = CpuNow() - c_construct;

  if (kTraced) {
    step.Begin(simulator.now());
    Spans().Start(kResidual);
  }
  const Clock::time_point t_run = Clock::now();
  const double c_run = CpuNow();
  out.cpu_marks.push_back(c_run);
  simulator.RunUntil(run_end);
  out.run_s = Since(t_run);
  out.cpu_marks.push_back(CpuNow());
  out.run_cpu_s = out.cpu_marks.back() - c_run;
  if (tel != nullptr) tel->StopSampler();
  const double e1 = machine.TotalEnergyJoules();
  const Clock::time_point t_drain = Clock::now();
  const double c_drain = CpuNow();
  out.drained = experiment::DrainToCompletion(
      simulator,
      [&lg] { return lg.slo().total_completed() + lg.failed(); },
      lg.submitted());
  out.drain_s = Since(t_drain);
  out.drain_cpu_s = CpuNow() - c_drain;
  if (kTraced) Spans().Stop();

  out.trace = options.loadgen.duration;
  out.drain_sim = simulator.now() - run_end;
  out.energy_j = e1 - e0;
  FillLoadgen(lg, &out);
  // Registry counters read through to this run's objects: read them now.
  if (tel != nullptr) FillCounters(tel->registry(), &out.trace_stats);
  if (loop != nullptr) loop->Stop();
  return out;
}

/// RunClusterSloExperiment, composed step for step. ClusterRig registers
/// every node's advancers itself, so the traced build gets one probe after
/// the rig: node advance time is not split into hwsim and engine here.
Outcome RunRack(const experiment::ClusterSloRunOptions& options,
                const experiment::ClusterWorkloadFactory& factory,
                telemetry::Telemetry* tel) {
  Outcome out;
  StepProbe step(&out.trace_stats);
  const Clock::time_point t_construct = Clock::now();
  const double c_construct = CpuNow();

  experiment::ClusterRunOptions rig_options = options.cluster;
  if (tel != nullptr) rig_options.telemetry = tel;
  experiment::ClusterRig rig(factory, rig_options);
  sim::Simulator& simulator = rig.simulator();
  hwsim::Cluster& cluster = rig.cluster();
  engine::ClusterEngine& cengine = rig.cengine();
  const int num_nodes = rig.num_nodes();
  out.num_nodes = num_nodes;
  if (kTraced) {
    simulator.RegisterAdvancer(
        Probe([&step](SimTime t0, SimTime t1, bool ff) {
          step.OnStepEnd(t0, t1, ff);
        }));
  }
  out.construct_s = Since(t_construct);

  const Clock::time_point t_prime = Clock::now();
  rig.Prime();
  out.prime_s = Since(t_prime);

  loadgen::LoadGenParams lg_params = options.loadgen;
  if (lg_params.telemetry == nullptr) lg_params.telemetry = tel;
  loadgen::LoadGen lg(&simulator, &rig.workload(), lg_params);
  lg.NormalizeToCapacity(rig.capacity(), options.total_load);
  Completions done{&lg, &out, {}};
  for (int i = 0; i < loadgen::kNumSloClasses; ++i) {
    done.deadline_ms[static_cast<size_t>(i)] =
        lg.slo().class_params(static_cast<loadgen::SloClass>(i)).deadline_ms;
  }
  lg.SetSubmitFn([&rig, &cengine](engine::QuerySpec&& spec) {
    if (spec.work.empty()) return;
    TimedSubmit([&] { cengine.Submit(rig.EntryNodeFor(spec), spec); });
  });
  for (NodeId n = 0; n < num_nodes; ++n) {
    cengine.node_engine(n).scheduler().SetCompletionCallback(
        [&done](int8_t cls, SimTime arrival, SimTime completion) {
          done.OnComplete(cls, arrival, completion);
        });
  }
  cengine.SetQueryFailureCallback(
      [&done](int8_t cls, int16_t tenant, int8_t attempt, SimTime arrival,
              engine::FailReason reason) {
        done.OnFailed(cls, tenant, attempt, arrival, reason);
      });
  if (options.admission_enabled) {
    lg.admission().SetPressureSource(
        [&rig] { return rig.MaxNodePressure(); });
    for (NodeId n = 0; n < num_nodes; ++n) {
      rig.node_ecl(n).system().SetShedSignal([&lg, &simulator] {
        return lg.admission().RecentShedFraction(simulator.now());
      });
    }
  }

  const SimTime run_start = simulator.now();
  std::unique_ptr<faultsim::FaultInjector> injector;
  if (!options.faults.empty()) {
    faultsim::FaultInjectorParams fi_params;
    fi_params.schedule = options.faults;
    for (faultsim::FaultEvent& e : fi_params.schedule.events) {
      e.at += run_start;
    }
    fi_params.telemetry = tel;
    injector = std::make_unique<faultsim::FaultInjector>(
        &simulator, &cluster, &cengine, fi_params);
    injector->SetNodeHooks(
        [&rig](NodeId n) { rig.node_ecl(n).Stop(); },
        [&rig](NodeId n) { rig.node_ecl(n).Start(); });
    injector->Arm();
  }

  const double e0 = cluster.TotalEnergyJoules();
  lg.Start();

  const SimTime run_end = run_start + options.loadgen.duration;
  double sampler_last_energy = cluster.TotalEnergyJoules();
  if (tel != nullptr) tel->StartSampler(run_start);
  const SimDuration period = options.cluster.sample_period;
  for (SimTime t = run_start + period; t <= run_end; t += period) {
    simulator.Schedule(t, [&, t] {
      out.cpu_marks.push_back(CpuNow());
      experiment::SloSample s;
      s.t_s = ToSeconds(t - run_start);
      s.offered_qps = lg.OfferedQps(t);
      const double e = cluster.TotalEnergyJoules();
      s.power_w = (e - sampler_last_energy) / ToSeconds(period);
      sampler_last_energy = e;
      for (NodeId n = 0; n < num_nodes; ++n) {
        s.latency_window_ms =
            std::max(s.latency_window_ms,
                     cengine.node_engine(n).latency().WindowMeanMs());
      }
      s.pressure = rig.MaxNodePressure();
      s.shed_fraction = lg.admission().RecentShedFraction(t);
      s.width = cluster.NodesOn();
      out.series.push_back(s);
    });
  }
  out.setup_s = Since(t_construct);
  out.setup_cpu_s = CpuNow() - c_construct;

  if (kTraced) {
    step.Begin(simulator.now());
    Spans().Start(kNodes);
  }
  const Clock::time_point t_run = Clock::now();
  const double c_run = CpuNow();
  out.cpu_marks.push_back(c_run);
  simulator.RunUntil(run_end);
  out.run_s = Since(t_run);
  out.cpu_marks.push_back(CpuNow());
  out.run_cpu_s = out.cpu_marks.back() - c_run;
  if (tel != nullptr) tel->StopSampler();
  const double e1 = cluster.TotalEnergyJoules();
  const Clock::time_point t_drain = Clock::now();
  const double c_drain = CpuNow();
  out.drained = experiment::DrainToCompletion(
      simulator,
      [&lg] { return lg.slo().total_completed() + lg.failed(); },
      lg.submitted(), Seconds(120), Seconds(45),
      [&cengine, &cluster, num_nodes] {
        std::string d = "backlog:";
        for (NodeId n = 0; n < num_nodes; ++n) {
          d += " node" + std::to_string(n) + "=" +
               std::to_string(static_cast<int64_t>(cengine.BacklogOps(n))) +
               (cluster.IsFailed(n) ? "(failed)" : "");
        }
        d += " engine_failed=" + std::to_string(cengine.QueriesFailed());
        return d;
      });
  out.drain_s = Since(t_drain);
  out.drain_cpu_s = CpuNow() - c_drain;
  if (kTraced) Spans().Stop();

  out.trace = options.loadgen.duration;
  out.drain_sim = simulator.now() - run_end;
  out.energy_j = e1 - e0;
  FillLoadgen(lg, &out);
  if (tel != nullptr) FillCounters(tel->registry(), &out.trace_stats);
  rig.StopEcls();
  return out;
}

/// Makes the measured simulation and fills in the traced build's spans.
Outcome RunWorkload(Workload& w, telemetry::Telemetry* tel) {
  Outcome out = w.rack ? RunRack(w.cluster, w.cluster_factory, tel)
                       : RunSingle(w.single, w.single_factory, tel);
  if (kTraced) {
    for (int s = 0; s < kNumSpans; ++s) {
      out.trace_stats.span_s[static_cast<size_t>(s)] =
          Spans().seconds(static_cast<Span>(s));
    }
    out.trace_stats.events = Spans().events;
  }
  return out;
}

// ---------------------------------------------------------------- checks

/// Runs the conservation checks; returns the violations (empty = correct).
std::vector<std::string> Check(const Workload& w, const Outcome& o) {
  std::vector<std::string> bad;
  auto expect = [&bad](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  const bool retry = w.retry();
  expect(o.arrivals > 0, "no arrivals");
  expect(o.arrivals + o.retries == o.admitted + o.shed,
         "arrivals + retries != admitted + shed");
  for (size_t c = 0; c < o.class_offered.size(); ++c) {
    // Retries re-enter admission per class; without them every offer is
    // a fresh arrival of that class.
    if (!retry) {
      expect(o.class_offered[c] == o.class_admitted[c] + o.class_shed[c],
             "class " + std::to_string(c) + ": arrivals != admitted + shed");
    }
  }
  expect(o.drained, "post-trace drain did not finish");
  expect(o.submitted == o.completed + o.failed,
         "submitted != completed + failed after the drain");
  // Every arrival resolves exactly once: completed, or (without retries)
  // shed or failed, or (with retries) abandoned.
  const int64_t resolved =
      o.completed + (retry ? o.abandoned : o.shed + o.failed);
  expect(o.arrivals == resolved, "arrivals do not resolve exactly once");
  expect(o.energy_j > 0.0 && std::isfinite(o.energy_j),
         "energy is not positive");
  expect(static_cast<int64_t>(o.latency_ms.size()) == o.completed,
         "latency samples != completions");
  int64_t violations = 0;
  for (int64_t v : o.class_violations) violations += v;
  expect(o.within_deadline == o.completed - violations,
         "deadline count disagrees with the SLO tracker");
  if (!w.admission()) expect(o.shed == 0, "shed with admission off");
  return bad;
}

/// Arrivals the simulated system lost in error: not completed and not
/// refused by admission. Admission refusals are designed outcomes, counted
/// as goodput misses instead. With retries on, a refused arrival can end as
/// abandoned, so this identity needs admission off there (the rack).
int64_t LostArrivals(const Workload& w, const Outcome& o) {
  ECLDB_CHECK(!(w.retry() && w.admission()));
  return o.arrivals - o.completed - (w.retry() ? 0 : o.shed);
}

// ---------------------------------------------------------------- output

class Digest {
 public:
  void Add(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Add(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// FNV-1a over every simulated output, so two builds can show identical
/// simulated results (a speed-only change must keep it).
uint64_t SimDigest(const Outcome& o) {
  Digest d;
  d.Add(o.trace);
  d.Add(o.drain_sim);
  d.Add(o.energy_j);
  for (int64_t v : {o.arrivals, o.admitted, o.shed, o.submitted, o.completed,
                    o.failed, o.retries, o.abandoned, o.within_deadline}) {
    d.Add(v);
  }
  d.Add(o.drained);
  for (const auto* a : {&o.class_offered, &o.class_admitted, &o.class_shed,
                        &o.class_completed, &o.class_violations}) {
    d.Add(a->data(), sizeof(int64_t) * a->size());
  }
  d.Add(o.latency_ms.data(), sizeof(double) * o.latency_ms.size());
  for (const experiment::SloSample& s : o.series) {
    d.Add(s.t_s);
    d.Add(s.offered_qps);
    d.Add(s.power_w);
    d.Add(s.latency_window_ms);
    d.Add(s.pressure);
    d.Add(s.shed_fraction);
    d.Add(s.width);
  }
  return d.value();
}

/// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Highest of these percentiles with at least ten samples beyond it.
double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

class Json {
 public:
  void Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const char* key, int64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const char* key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += ch;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
  }
  std::string Close() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

std::string Report(const std::string& name, uint64_t seed, const Workload& w,
                   Outcome& o, const std::vector<std::string>& violations) {
  Json j;
  j.Str("workload", name);
  j.Int("seed", static_cast<int64_t>(seed));
  j.Bool("traced", kTraced);
  j.Bool("correct", violations.empty());
  std::string why;
  for (const std::string& v : violations) why += (why.empty() ? "" : "; ") + v;
  j.Str("violations", why);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, SimDigest(o));
  j.Str("digest", digest);

  // Host timings.
  j.Num("construct_s", o.construct_s);
  j.Num("prime_s", o.prime_s);
  j.Num("setup_s", o.setup_s);
  j.Num("run_s", o.run_s);
  j.Num("drain_s", o.drain_s);
  j.Num("setup_cpu_s", o.setup_cpu_s);
  j.Num("run_cpu_s", o.run_cpu_s);
  j.Num("drain_cpu_s", o.drain_cpu_s);
  // CPU seconds of every sampler window of the trace, then of the drain.
  // Runs of one stream simulate the same work in window i, so run.py can
  // take each window's least time over several runs.
  std::string windows;
  for (size_t i = 0; i < o.cpu_marks.size(); ++i) {
    const double t = i + 1 < o.cpu_marks.size()
                         ? o.cpu_marks[i + 1] - o.cpu_marks[i]
                         : o.drain_cpu_s;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9f", i == 0 ? "" : ",", t);
    windows += buf;
  }
  j.Raw("window_cpu_s", "[" + windows + "]");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

  // Simulated outcome. Sorted only now: the digest hashes completion order.
  std::sort(o.latency_ms.begin(), o.latency_ms.end());
  j.Int("nodes", o.num_nodes);
  j.Num("trace_sim_s", ToSeconds(o.trace));
  j.Num("drain_sim_s", ToSeconds(o.drain_sim));
  j.Num("energy_j", o.energy_j);
  j.Int("arrivals", o.arrivals);
  j.Int("admitted", o.admitted);
  j.Int("shed", o.shed);
  j.Int("submitted", o.submitted);
  j.Int("completed", o.completed);
  j.Int("engine_failed", o.failed);
  j.Int("retries", o.retries);
  j.Int("abandoned", o.abandoned);
  j.Int("lost", LostArrivals(w, o));
  j.Int("within_deadline", o.within_deadline);
  j.Int("latency_samples", static_cast<int64_t>(o.latency_ms.size()));
  j.Num("p50_ms", Percentile(o.latency_ms, 50.0));
  j.Num("p999_ms", Percentile(o.latency_ms, 99.9));

  if (kTraced) {
    const TraceStats& t = o.trace_stats;
    static const char* const kSpanKeys[kNumSpans] = {
        "residual_s", "hwsim_s", "engine_s", "nodes_s",
        "events_s",   "submit_s", "callback_s"};
    for (int s = 0; s < kNumSpans; ++s) {
      j.Num(kSpanKeys[s], t.span_s[static_cast<size_t>(s)]);
    }
    j.Int("events", t.events);
    j.Int("steps", t.steps);
    j.Int("ff_steps", t.ff_steps);
    j.Num("stepped_sim_s", ToSeconds(t.sim_stepped));
    j.Num("ff_sim_s", ToSeconds(t.sim_ff));
    std::vector<double> windows = t.window_ms;
    std::sort(windows.begin(), windows.end());
    const double tail_p = TailPercentile(windows.size());
    j.Int("windows", static_cast<int64_t>(windows.size()));
    j.Num("window_ms_p50", Percentile(windows, 50.0));
    j.Num("window_tail_pct", tail_p);
    j.Num("window_ms_tail", Percentile(windows, tail_p));
    j.Int("ecl_ticks", t.ecl_ticks);
    j.Int("ecl_multiplexed_evals", t.ecl_multiplexed_evals);
    j.Int("cluster_power_downs", t.cluster_power_downs);
    j.Int("cluster_wakes", t.cluster_wakes);
    j.Int("cluster_migrations_completed", t.cluster_migrations_completed);
    j.Int("cluster_remote_sends", t.cluster_remote_sends);
    j.Int("cluster_stale_forwards", t.cluster_stale_forwards);
    j.Int("faults_injected", t.faults_injected);
  }
  return j.Close();
}

// ---------------------------------------------------------------- identity

/// Compares the composed run against the library runner's result.
std::vector<std::string> CompareToLibrary(const Outcome& o,
                                          const experiment::SloRunResult& r) {
  std::vector<std::string> bad;
  auto same = [&bad](bool ok, const char* what) {
    if (!ok) bad.push_back(std::string("library differs: ") + what);
  };
  same(o.energy_j == r.energy_j, "energy_j");
  same(o.arrivals == r.arrivals, "arrivals");
  same(o.admitted == r.admitted, "admitted");
  same(o.shed == r.shed, "shed");
  same(o.completed == r.completed, "completed");
  same(o.failed == r.failed, "failed");
  same(o.retries == r.retries, "retries");
  same(o.abandoned == r.abandoned, "abandoned");
  same(o.drained == r.drained, "drained");
  for (size_t c = 0; c < r.classes.size(); ++c) {
    const experiment::SloClassStats& s = r.classes[c];
    same(o.class_completed[c] == s.completed, "class completed");
    same(o.class_violations[c] == s.violations, "class violations");
    same(o.class_mean_ms[c] == s.mean_ms, "class mean_ms");
    same(o.class_tail_ms[c] == s.tail_ms, "class tail_ms");
  }
  same(o.series.size() == r.series.size(), "series length");
  for (size_t i = 0; i < std::min(o.series.size(), r.series.size()); ++i) {
    const experiment::SloSample& a = o.series[i];
    const experiment::SloSample& b = r.series[i];
    if (a.t_s != b.t_s || a.offered_qps != b.offered_qps ||
        a.power_w != b.power_w || a.latency_window_ms != b.latency_window_ms ||
        a.pressure != b.pressure || a.shed_fraction != b.shed_fraction ||
        a.width != b.width) {
      same(false, "series sample");
      break;
    }
  }
  return bad;
}

int Main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 77001;
  bool identity = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "bad --seed\n");
        return 2;
      }
    } else if (arg == "--identity") {
      identity = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  Workload w;
  if (!MakeWorkload(name, seed, &w)) {
    std::fprintf(stderr, "unknown --workload '%s' (crowd|diurnal|rack)\n",
                 name.c_str());
    return 2;
  }

  // The traced run attaches a telemetry context for the registry counters.
  // Disabled telemetry schedules no events, so the run stays identical.
  std::unique_ptr<telemetry::Telemetry> tel;
  if (kTraced) {
    tel = std::make_unique<telemetry::Telemetry>(telemetry::TelemetryParams{});
  }
  Outcome o = RunWorkload(w, tel.get());
  std::vector<std::string> violations = Check(w, o);

  if (identity) {
    const experiment::SloRunResult lib =
        w.rack ? experiment::RunClusterSloExperiment(w.cluster_factory,
                                                     w.cluster)
               : experiment::RunSloExperiment(w.single_factory, w.single);
    for (std::string& v : CompareToLibrary(o, lib)) {
      violations.push_back(std::move(v));
    }
  }
  std::printf("%s\n", Report(name, seed, w, o, violations).c_str());
  std::fflush(stdout);
  if (!violations.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
