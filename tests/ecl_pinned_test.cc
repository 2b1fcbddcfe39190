// Pinned outcomes of the Energy-Control Loop under its fixed constants.
//
// The controller's tuning values (utilization controller, RTI, profile
// maintenance, system ECL, learned predictor, meta calibration, OS
// governor) are named constants next to the code that reads them. These
// short runs exercise every one of them and pin the outcome bit for bit:
// the energy as exact double bits plus the counts. A change of any one
// constant by 10 % moves at least one pinned value, so a constant can only
// change together with a deliberate re-recording of this file. The values
// were recorded before the tuning fields became constants, on the tree
// where each was still a params default.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/types.h"
#include "ecl/meta_calibration.h"
#include "ecl/os_governor.h"
#include "ecl/profile_maintenance.h"
#include "ecl/profile_predictor.h"
#include "engine/engine.h"
#include "experiment/drift_trace.h"
#include "experiment/experiment.h"
#include "experiment/loadgen_trace.h"
#include "hwsim/machine.h"
#include "loadgen/loadgen.h"
#include "profile/config_generator.h"
#include "profile/feature_vector.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/work_profiles.h"

namespace ecldb {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

experiment::WorkloadFactory KvScans() {
  return [](engine::Engine* e) -> std::unique_ptr<workload::Workload> {
    workload::KvParams params;
    params.indexed = false;
    return std::make_unique<workload::KvWorkload>(e, params);
  };
}

// Full load, then low load, then a staircase back up, then low load to the
// end: exponential discovery at saturation (accelerated by the latency
// pressure each step builds), Eq. 3 with headroom and damped decrease on
// the way down, race-to-idle in the under-utilization zone. The primed
// measurements turn stale towards the end of the run. The 2 Hz socket
// interval makes the multiplexed-evaluation budget bind.
TEST(EclPinnedOutcomeTest, LoadStepFullToLow) {
  experiment::RunOptions options;
  options.prime_duration = Seconds(20);
  options.ecl.socket.interval = Millis(500);
  workload::StepProfile profile({{Seconds(0), 1.0},
                                 {Seconds(8), 0.15},
                                 {Seconds(14), 0.3},
                                 {Seconds(17), 0.45},
                                 {Seconds(20), 0.6},
                                 {Seconds(23), 0.75},
                                 {Seconds(26), 0.1}},
                                Seconds(110));
  const experiment::RunResult r =
      experiment::RunLoadExperiment(KvScans(), profile, options);
  EXPECT_EQ(Bits(r.energy_j), 0x40bd35b94f6800bdull);  // 7477.72 J
  EXPECT_EQ(Bits(r.p99_ms), 0x4067f4e7503b81b6ull);    // 191.65 ms
  EXPECT_EQ(r.completed, 792676);
  EXPECT_EQ(r.submitted, 792676);
}

// Flash crowd with shed-aware admission at the SLO ablations' 250 ms
// system interval: the shed-pressure floor, the proximity onset and the
// trend horizon of the system ECL.
TEST(EclPinnedOutcomeTest, SloFlashCrowdWithAdmission) {
  experiment::SloRunOptions options;
  options.run.prime_duration = Seconds(10);
  options.run.ecl.system.interval = Millis(250);
  options.loadgen.duration = Seconds(40);
  loadgen::TenantSpec premium;
  premium.name = "premium";
  premium.slo_class = loadgen::SloClass::kPremium;
  premium.weight = 0.4;
  premium.arrival.num_users = 200'000;
  premium.arrival.per_user_qps = 0.01;
  loadgen::TenantSpec besteff;
  besteff.name = "besteff";
  besteff.slo_class = loadgen::SloClass::kBestEffort;
  besteff.weight = 0.6;
  besteff.arrival.num_users = 2'000'000;
  besteff.arrival.per_user_qps = 0.001;
  options.loadgen.tenants = {premium, besteff};
  for (loadgen::TenantSpec& t : options.loadgen.tenants) {
    loadgen::ShapeSpec crowd;
    crowd.name = "flash_crowd";
    crowd.magnitude = 10.0;
    crowd.start = Seconds(5);
    crowd.duration = Seconds(15);
    t.shapes.push_back(crowd);
  }
  options.total_load = 0.3;
  options.admission_enabled = true;
  const experiment::SloRunResult r =
      experiment::RunSloExperiment(KvScans(), options);
  EXPECT_EQ(Bits(r.energy_j), 0x40b448744ef75a04ull);  // 5192.45 J
  EXPECT_EQ(Bits(r.p99_ms), 0x40a09ba3006ee5bbull);    // 2125.82 ms
  EXPECT_EQ(r.arrivals, 1627658);
  EXPECT_EQ(r.shed, 819710);
  EXPECT_EQ(r.completed, 807948);
}

// Two drift phases with the learned predictor: drift detection,
// evaluations per interval and measurement timing. The second phase
// revisits the primed workload and seeds from the learn cache. A
// synthetic observation stream then drives the predictor's own constants:
// its features straddle the merge radius and the utilization floor,
// buckets overflow, the last ten configurations get thin buckets (fewer
// than k entries), and the seeding pass meets ignorances on both sides of
// the threshold.
TEST(EclPinnedOutcomeTest, DriftTraceWithPredictor) {
  experiment::DriftTraceParams params;
  params.predictor.enabled = true;
  params.num_switch_phases = 2;
  const experiment::DriftTraceResult r = experiment::RunDriftTrace(params);
  EXPECT_EQ(Bits(r.total_energy_j), 0x40c2c1ea7951f20aull);  // 9603.83 J
  ASSERT_EQ(r.phases.size(), 2u);
  // First sight of the scan workload (4411.50 J): a full multiplexed sweep.
  EXPECT_EQ(Bits(r.phases[0].energy_j), 0x40b13b7f274633d3ull);
  EXPECT_EQ(r.phases[0].adapt_s, 26.0);
  EXPECT_EQ(r.phases[0].evals, 143);
  EXPECT_EQ(r.phases[0].seeded, 7);
  // Revisit of the primed indexed workload (5192.34 J): seeded from the
  // learn cache.
  EXPECT_EQ(Bits(r.phases[1].energy_j), 0x40b44855cb5db042ull);
  EXPECT_EQ(r.phases[1].adapt_s, 3.0);
  EXPECT_EQ(r.phases[1].evals, 6);
  EXPECT_EQ(r.phases[1].seeded, 138);

  profile::ConfigGenerator gen(hwsim::Topology::HaswellEp2S(),
                               hwsim::FrequencyTable::HaswellEp());
  profile::EnergyProfile prof(gen.Generate(profile::GeneratorParams{}));
  const int n = prof.size();
  ecl::ProfilePredictor pred(n);
  auto features = [](double bytes_feature, double utilization) {
    profile::FeatureInputs in;
    in.instr_rate = 1e9;
    in.dram_bytes_rate = 1e9 * bytes_feature / (1.0 - bytes_feature);
    in.active_threads = 12;
    in.core_freq_ghz = 2.0;
    in.utilization = utilization;
    return profile::ExtractFeatures(in);
  };
  Rng rng(2026);
  for (int i = 0; i < 3000; ++i) {
    const double v = 0.2 + 0.6 * rng.NextDouble();
    const double util = 0.2 * rng.NextDouble();
    pred.Observe(1 + i % (n - 11), features(v, util), 20.0 + 100.0 * v,
                 1e9 * (1.0 + v), Millis(i + 1));
  }
  for (int c = n - 10; c < n; ++c) {
    pred.Observe(c, features(0.45, 0.5), 70.0, 1.5e9, Seconds(4));
    pred.Observe(c, features(0.55, 0.5), 80.0, 1.6e9, Seconds(5));
  }
  prof.InvalidateAll();
  ecl::ProfileMaintenance maint;
  const ecl::ProfileMaintenance::SeedOutcome seeded =
      maint.SeedFromPredictions(&prof, pred, features(0.5, 0.5), Seconds(10));
  double seeded_power_w = 0.0;
  for (int i = 1; i < n; ++i) seeded_power_w += prof.config(i).power_w;
  EXPECT_EQ(pred.size(), 1072);
  EXPECT_EQ(pred.observed_total(), 2249);
  EXPECT_EQ(seeded.seeded, 76);
  EXPECT_EQ(Bits(seeded.mean_ignorance), 0x3fc53f9de278a3d2ull);  // 0.166
  EXPECT_EQ(Bits(seeded_power_w), 0x40b4c92f52076e0bull);
}

// The startup meta calibration (Fig. 12), then the ondemand-style OS
// governor with a usable utilization signal.
TEST(EclPinnedOutcomeTest, MetaCalibrationAndOsGovernor) {
  // Memory scans and key-value scans put a measure-sweep deviation just
  // below and just above the 3 % tolerance (2.8 % and 3.2 % at 20 ms).
  struct Pinned {
    const hwsim::WorkProfile* work;
    SimDuration measure_time;
    uint64_t energy_bits;
  };
  for (const Pinned& pin :
       {Pinned{&workload::MemoryScan(), Millis(20), 0x40b2261bb425bc84ull},
        Pinned{&workload::KvNonIndexed(), Millis(50), 0x40b2d255b5b46da7ull}}) {
    sim::Simulator sim;
    hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
    ecl::MetaCalibration cal(&sim, &machine, 0);
    const ecl::MetaCalibrationResult r = cal.Run(*pin.work);
    EXPECT_EQ(r.measure_time, pin.measure_time);
    EXPECT_EQ(r.apply_time, Millis(1));
    EXPECT_EQ(Bits(machine.TotalEnergyJoules()), pin.energy_bits);
  }
  // Index lookups keep the measured utilization between the governor's
  // floor and its up threshold, so the frequency follows it.
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  engine::Engine engine(&sim, &machine, engine::EngineParams{});
  workload::KvWorkload lookups(&engine, workload::KvParams{});
  ecl::OsGovernorParams gp;
  gp.sees_polling_as_busy = false;
  ecl::OsGovernor governor(&sim, &engine, gp);
  governor.Start();
  workload::ConstantProfile profile(0.4, Seconds(6));
  workload::DriverParams dp;
  dp.capacity_qps = workload::BaselineCapacityQps(machine.params(), lookups);
  workload::LoadDriver driver(&sim, &engine, &lookups, &profile, dp);
  driver.Start();
  sim.RunFor(Seconds(6));
  EXPECT_EQ(Bits(machine.TotalEnergyJoules()), 0x408e6929ae1e5c38ull);  // 973 J
  EXPECT_EQ(governor.current_freq_ghz(), 1.7);
  EXPECT_EQ(engine.latency().completed(), 99167);
}

}  // namespace
}  // namespace ecldb
