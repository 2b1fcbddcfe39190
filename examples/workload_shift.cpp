// Workload-shift scenario: the DBMS workload changes character at runtime
// (indexed OLTP-style point lookups -> non-indexed analytical scans). The
// ECL's drift detection notices that the applied configuration no longer
// behaves as its energy profile predicted, flags the profile, and the
// multiplexed adaptation relearns it while serving queries.
#include <cstdio>

#include "ecl/ecl.h"
#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/workload.h"

using namespace ecldb;

int main() {
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  engine::Engine engine(&sim, &machine, engine::EngineParams{});

  workload::KvParams indexed_params;
  indexed_params.indexed = true;
  workload::KvWorkload indexed(&engine, indexed_params);
  workload::KvParams scan_params;
  scan_params.indexed = false;
  workload::KvWorkload scan(&engine, scan_params);

  ecl::EnergyControlLoop loop(&sim, &engine, ecl::EclParams{});
  loop.Start();

  // Warm up the energy profiles on the indexed workload.
  engine.scheduler().SetSyntheticLoad(&indexed.profile());
  sim.RunFor(Seconds(30));
  engine.scheduler().SetSyntheticLoad(nullptr);

  // Phase 1: indexed at 50 % load. Phase 2 (t=20 s): scans at 50 % load.
  workload::ConstantProfile phase1(0.5, Seconds(20));
  workload::DriverParams dp1;
  dp1.capacity_qps = workload::BaselineCapacityQps(machine.params(), indexed);
  workload::LoadDriver driver1(&sim, &engine, &indexed, &phase1, dp1);
  workload::ConstantProfile phase2(0.5, Seconds(40));
  workload::DriverParams dp2;
  dp2.capacity_qps = workload::BaselineCapacityQps(machine.params(), scan);
  workload::LoadDriver driver2(&sim, &engine, &scan, &phase2, dp2);

  driver1.Start();
  std::printf("%-6s %-10s %-26s %-8s %-10s\n", "t s", "power W",
              "applied config", "util", "mux evals");
  ecl::SocketEcl& se = loop.socket(0);
  int64_t prev_evals = 0;
  for (int t = 1; t <= 60; ++t) {
    if (t == 21) driver2.Start();  // iteration t runs second t - 1 to t
    sim.RunFor(Seconds(1));
    if (t % 4 == 0 || (t >= 19 && t <= 26)) {
      const profile::Configuration& cfg =
          se.profile().config(se.current_config_index());
      char desc[64];
      std::snprintf(desc, sizeof(desc), "%2d thr @ %.1f GHz, uncore %.1f",
                    cfg.hw.ActiveThreadCount(),
                    cfg.hw.MeanActiveCoreFreq(machine.topology()),
                    cfg.hw.uncore_freq_ghz);
      const int64_t evals = se.maintenance().multiplexed_evals();
      std::printf("%-6d %-10.1f %-26s %-8.2f %-10lld%s\n", t,
                  machine.InstantRaplPowerW(), desc, se.last_utilization(),
                  static_cast<long long>(evals - prev_evals),
                  t == 20 ? "   <-- workload switch" : "");
      prev_evals = evals;
    }
  }
  std::printf(
      "\nAfter the switch, drift detection invalidates the profile and the "
      "multiplexed adaptation reevaluates configurations in the background "
      "until the new optimum is found.\n");
  return 0;
}
