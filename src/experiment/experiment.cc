#include "experiment/experiment.h"

#include <sstream>

#include "common/check.h"
#include "ecl/baseline.h"

namespace ecldb::experiment {
namespace {

/// Compact description of a configuration for result tables
/// ("12 thr @ 1.2 GHz, uncore 3.0").
std::string DescribeConfig(const hwsim::Topology& topo,
                           const profile::Configuration& c) {
  std::ostringstream out;
  out << c.hw.ActiveThreadCount() << " thr @ ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", c.hw.MeanActiveCoreFreq(topo));
  out << buf << " GHz, uncore ";
  std::snprintf(buf, sizeof(buf), "%.1f", c.hw.uncore_freq_ghz);
  out << buf;
  return out.str();
}

/// Package + DRAM energy of one socket in joules.
double SocketEnergyJ(const hwsim::Machine& machine, SocketId s) {
  return 1e-6 *
         static_cast<double>(machine.ReadRaplUj(s, hwsim::RaplDomain::kPackage) +
                             machine.ReadRaplUj(s, hwsim::RaplDomain::kDram));
}

}  // namespace

RunResult RunLoadExperiment(const WorkloadFactory& factory,
                            const workload::LoadProfile& profile,
                            const RunOptions& options) {
  sim::Simulator simulator;
  simulator.set_fast_forward(options.fast_forward);
  telemetry::Telemetry* const tel = options.telemetry;
  if (tel != nullptr) tel->Bind(&simulator);
  hwsim::Machine machine(&simulator, options.machine);
  if (tel != nullptr) machine.AttachTelemetry(tel);
  engine::EngineParams engine_params = options.engine;
  if (tel != nullptr) engine_params.telemetry = tel;
  engine::Engine engine(&simulator, &machine, engine_params);
  std::unique_ptr<workload::Workload> workload = factory(&engine);
  ECLDB_CHECK(workload != nullptr);

  const double capacity =
      options.capacity_qps > 0.0
          ? options.capacity_qps
          : workload::BaselineCapacityQps(options.machine, *workload);

  ecl::BaselineController baseline(&machine);
  std::unique_ptr<ecl::EnergyControlLoop> loop;
  if (options.mode == ControlMode::kEcl) {
    ecl::EclParams ecl_params = options.ecl;
    if (tel != nullptr) ecl_params.telemetry = tel;
    loop = std::make_unique<ecl::EnergyControlLoop>(&simulator, &engine,
                                                    ecl_params);
    loop->Start();
    if (options.prime_duration > 0) {
      engine.scheduler().SetSyntheticLoad(&workload->profile());
      simulator.RunFor(options.prime_duration);
      engine.scheduler().SetSyntheticLoad(nullptr);
    }
  } else {
    baseline.Start();
    // Symmetric warm-up keeps run windows aligned across modes.
    if (options.prime_duration > 0) {
      engine.scheduler().SetSyntheticLoad(&workload->profile());
      simulator.RunFor(options.prime_duration);
      engine.scheduler().SetSyntheticLoad(nullptr);
    }
  }
  engine.latency().ResetRunStats();

  workload::DriverParams driver_params;
  driver_params.capacity_qps = capacity;
  driver_params.seed = options.driver_seed;
  workload::LoadDriver driver(&simulator, &engine, workload.get(), &profile,
                              driver_params);

  RunResult result;
  result.capacity_qps = capacity;
  const SimTime run_start = simulator.now();
  const double e0 = machine.TotalEnergyJoules();
  driver.Start();

  // Time-series sampler. Power is averaged over the sample period (an
  // instantaneous read would alias with the RTI switching phase).
  const hwsim::Topology& topo = options.machine.topology;
  const SimTime run_end = run_start + profile.duration();
  double sampler_last_energy = machine.TotalEnergyJoules();
  std::vector<double> sampler_last_socket_e(
      static_cast<size_t>(topo.num_sockets));
  for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
    sampler_last_socket_e[static_cast<size_t>(sk)] = SocketEnergyJ(machine, sk);
  }
  // Telemetry mirrors of the sampler columns above. Each gauge replays the
  // exact arithmetic of the legacy sampler with its own delta state, so the
  // generic series is value-for-value identical to RunResult::series (the
  // fig11 port proves this byte-for-byte). All reads are pure, so the two
  // samplers coexisting at the same instants cannot perturb each other.
  if (tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    const SimDuration period = options.sample_period;
    reg.AddGauge("exp/offered_qps", [&driver, &simulator] {
      return driver.OfferedQps(simulator.now());
    });
    auto last_energy = std::make_shared<double>(machine.TotalEnergyJoules());
    reg.AddGauge("exp/rapl_power_w", [&machine, last_energy, period] {
      const double e = machine.TotalEnergyJoules();
      const double w = (e - *last_energy) / ToSeconds(period);
      *last_energy = e;
      return w;
    });
    reg.AddGauge("exp/latency_window_ms",
                 [&engine] { return engine.latency().WindowMeanMs(); });
    reg.AddGauge("exp/active_threads", [&machine, &topo] {
      int threads = 0;
      for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
        threads += machine.requested_config(sk).ActiveThreadCount();
      }
      return static_cast<double>(threads);
    });
    ecl::EnergyControlLoop* const lp = loop.get();
    reg.AddGauge("exp/perf_level_frac",
                 [lp] { return lp == nullptr ? 0.0 : lp->RelativeLoad(); });
    reg.AddGauge("exp/utilization",
                 [lp] { return lp == nullptr ? 0.0 : lp->MeanUtilization(); });
    for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
      const std::string base = "exp/socket" + std::to_string(sk) + "/";
      auto last_se = std::make_shared<double>(SocketEnergyJ(machine, sk));
      reg.AddGauge(base + "power_w", [&machine, sk, last_se, period] {
        const double se = SocketEnergyJ(machine, sk);
        const double w = (se - *last_se) / ToSeconds(period);
        *last_se = se;
        return w;
      });
      reg.AddGauge(base + "partitions", [&engine, sk] {
        return static_cast<double>(engine.placement().PartitionsOn(sk));
      });
    }
    tel->StartSampler(run_start);
  }
  for (SimTime t = run_start + options.sample_period; t <= run_end;
       t += options.sample_period) {
    simulator.Schedule(t, [&, t] {
      Sample s;
      s.t_s = ToSeconds(t - run_start);
      s.offered_qps = driver.OfferedQps(t);
      const double e = machine.TotalEnergyJoules();
      s.rapl_power_w =
          (e - sampler_last_energy) / ToSeconds(options.sample_period);
      sampler_last_energy = e;
      s.latency_window_ms = engine.latency().WindowMeanMs();
      for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
        s.active_threads += machine.requested_config(sk).ActiveThreadCount();
        const double se = SocketEnergyJ(machine, sk);
        s.socket_power_w.push_back(
            (se - sampler_last_socket_e[static_cast<size_t>(sk)]) /
            ToSeconds(options.sample_period));
        sampler_last_socket_e[static_cast<size_t>(sk)] = se;
        s.partitions_on_socket.push_back(engine.placement().PartitionsOn(sk));
      }
      if (loop != nullptr) {
        s.perf_level_frac = loop->RelativeLoad();
        s.utilization = loop->MeanUtilization();
      }
      result.series.push_back(s);
    });
  }

  // Run the profile plus drain time for in-flight queries.
  simulator.RunUntil(run_end);
  // Stop gauge sampling at the measurement boundary so the telemetry
  // series covers exactly the rows the legacy sampler records.
  if (tel != nullptr) tel->StopSampler();
  const double e1 = machine.TotalEnergyJoules();
  simulator.RunFor(Seconds(5));  // drain

  result.duration_s = ToSeconds(profile.duration());
  result.energy_j = e1 - e0;
  result.avg_power_w = result.energy_j / result.duration_s;
  result.submitted = driver.submitted();
  result.completed = engine.latency().completed();
  const PercentileTracker& lat = engine.latency().all();
  result.mean_ms = lat.Mean();
  result.p50_ms = lat.Percentile(50);
  result.p95_ms = lat.Percentile(95);
  result.p99_ms = lat.Percentile(99);
  result.max_ms = lat.Max();
  result.violation_frac =
      lat.FractionAbove(options.ecl.system.latency_limit_ms);
  result.migrations = engine.migrator().completed();
  result.migration_bytes = engine.migrator().bytes_moved();
  for (SocketId sk = 0; sk < topo.num_sockets; ++sk) {
    result.stale_forwards += engine.socket_msg_stats(sk).stale_forwards;
  }
  if (loop != nullptr) {
    const profile::EnergyProfile& p = loop->socket(0).profile();
    const int best = p.MostEfficientIndex();
    if (best >= 0) result.best_config = DescribeConfig(topo, p.config(best));
    if (loop->consolidation() != nullptr) {
      result.consolidation_moves = loop->consolidation()->consolidation_moves();
      result.spread_moves = loop->consolidation()->spread_moves();
    }
    loop->Stop();
  }
  // Snapshot the registry while the run's objects are still alive; gauges
  // and counter functions reference them and must not be read later.
  if (tel != nullptr) result.telemetry_dump = tel->registry().Dump();
  return result;
}

}  // namespace ecldb::experiment
