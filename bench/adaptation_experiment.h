#ifndef ECLDB_BENCH_ADAPTATION_EXPERIMENT_H_
#define ECLDB_BENCH_ADAPTATION_EXPERIMENT_H_

// Shared runner for the Figure 15/16 energy-profile adaptation experiment:
// the workload suddenly switches from the indexed to the non-indexed
// key-value benchmark at t = 40 s (a major workload change); the database
// load is fixed to 50 %; the three ECL settings differ in how the energy
// profile is maintained (static / online / multiplexed).

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "ecl/ecl.h"
#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

namespace ecldb::bench {

enum class AdaptationMode { kStatic, kOnline, kMultiplexed };

inline const char* AdaptationName(AdaptationMode mode) {
  switch (mode) {
    case AdaptationMode::kStatic:
      return "ECL static";
    case AdaptationMode::kOnline:
      return "ECL online";
    case AdaptationMode::kMultiplexed:
      return "ECL multiplexed";
  }
  return "?";
}

struct AdaptationResult {
  std::vector<double> power_w;      // sampled once per second
  double energy_j = 0.0;            // total over the 120 s run
  double energy_after_switch_j = 0.0;
  double mean_ms_after = 0.0;       // latency stats after the switch
  double p99_ms_after = 0.0;
  double violation_frac_after = 0.0;
  std::string final_best_config;
};

inline AdaptationResult RunAdaptationExperiment(AdaptationMode mode) {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  engine::Engine engine(&sim, &machine, engine::EngineParams{});
  workload::KvParams pi;
  pi.indexed = true;
  workload::KvWorkload indexed(&engine, pi);
  workload::KvParams ps;
  ps.indexed = false;
  workload::KvWorkload scan(&engine, ps);

  ecl::EclParams params;
  ecl::EnergyControlLoop loop(&sim, &engine, params);
  loop.Start();
  // Prime the profiles on the indexed workload (all modes start with an
  // accurate profile of the OLD workload).
  engine.scheduler().SetSyntheticLoad(&indexed.profile());
  sim.RunFor(Seconds(30));
  engine.scheduler().SetSyntheticLoad(nullptr);
  switch (mode) {
    case AdaptationMode::kStatic:
      loop.SetAdaptation(false, false);
      break;
    case AdaptationMode::kOnline:
      loop.SetAdaptation(true, false);
      break;
    case AdaptationMode::kMultiplexed:
      loop.SetAdaptation(true, true);
      break;
  }
  engine.latency().ResetRunStats();

  // Phase 1: indexed workload at 50 % load for 40 s.
  const double cap_indexed =
      workload::BaselineCapacityQps(machine.params(), indexed);
  workload::ConstantProfile phase1(0.5, Seconds(40));
  workload::DriverParams dp1;
  dp1.capacity_qps = cap_indexed;
  workload::LoadDriver driver1(&sim, &engine, &indexed, &phase1, dp1);

  // Phase 2: sudden switch to the non-indexed workload for 80 s.
  const double cap_scan = workload::BaselineCapacityQps(machine.params(), scan);
  workload::ConstantProfile phase2(0.5, Seconds(80));
  workload::DriverParams dp2;
  dp2.capacity_qps = cap_scan;
  workload::LoadDriver driver2(&sim, &engine, &scan, &phase2, dp2);

  AdaptationResult result;
  const double e0 = machine.TotalEnergyJoules();
  driver1.Start();
  double e_at_switch = 0.0;
  double e_prev = e0;
  for (int t = 1; t <= 120; ++t) {
    // Iteration t simulates second t - 1 to t, so the switch at t = 40 s
    // comes before iteration 41.
    if (t == 41) {
      driver2.Start();
      e_at_switch = machine.TotalEnergyJoules();
      engine.latency().ResetRunStats();
    }
    sim.RunFor(Seconds(1));
    // Per-second average power (instantaneous reads alias with RTI).
    const double e = machine.TotalEnergyJoules();
    result.power_w.push_back(e - e_prev);
    e_prev = e;
  }
  result.energy_j = machine.TotalEnergyJoules() - e0;
  result.energy_after_switch_j = machine.TotalEnergyJoules() - e_at_switch;
  result.mean_ms_after = engine.latency().all().Mean();
  result.p99_ms_after = engine.latency().all().Percentile(99);
  result.violation_frac_after = engine.latency().all().FractionAbove(
      params.system.latency_limit_ms);
  const profile::EnergyProfile& prof = loop.socket(0).profile();
  if (prof.MostEfficientIndex() >= 0) {
    const profile::Configuration& best =
        prof.config(prof.MostEfficientIndex());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%2dthr @ %.1fGHz unc %.1f",
                  best.hw.ActiveThreadCount(),
                  best.hw.MeanActiveCoreFreq(machine.topology()),
                  best.hw.uncore_freq_ghz);
    result.final_best_config = buf;
  }
  return result;
}

}  // namespace ecldb::bench

#endif  // ECLDB_BENCH_ADAPTATION_EXPERIMENT_H_
