#include <gtest/gtest.h>

#include "ecl/meta_calibration.h"
#include "ecl/profile_maintenance.h"
#include "ecl/rti_controller.h"
#include "ecl/system_ecl.h"
#include "ecl/utilization_controller.h"
#include "hwsim/machine.h"
#include "profile/config_generator.h"
#include "sim/simulator.h"
#include "workload/work_profiles.h"

namespace ecldb::ecl {
namespace {

using hwsim::Topology;

/// Builds a small measured profile: 5 configs with a clear optimum.
///   perf:       10   20   30   40   50
///   power:       5    8   20   30   50
profile::EnergyProfile MeasuredProfile() {
  const Topology topo = Topology::HaswellEp2S();
  std::vector<profile::Configuration> configs;
  configs.push_back({hwsim::SocketConfig::Idle(topo), 0, 0, -1});
  const double perf[] = {10, 20, 30, 40, 50};
  const double power[] = {5, 8, 20, 30, 50};
  for (int i = 0; i < 5; ++i) {
    profile::Configuration c;
    c.hw = hwsim::SocketConfig::FirstThreads(topo, (i + 1) * 4, 2.0, 2.0);
    c.RecordMeasurement(power[i], perf[i], Seconds(1));
    configs.push_back(std::move(c));
  }
  return profile::EnergyProfile(std::move(configs));
}

/// A measured profile wider than one reevaluation batch: 10 configs.
profile::EnergyProfile WideMeasuredProfile() {
  const Topology topo = Topology::HaswellEp2S();
  std::vector<profile::Configuration> configs;
  configs.push_back({hwsim::SocketConfig::Idle(topo), 0, 0, -1});
  for (int i = 0; i < 10; ++i) {
    profile::Configuration c;
    c.hw = hwsim::SocketConfig::FirstThreads(topo, (i + 1) * 2, 2.0, 2.0);
    c.RecordMeasurement(5.0 + 4.0 * i, 10.0 + 5.0 * i, Seconds(1));
    configs.push_back(std::move(c));
  }
  return profile::EnergyProfile(std::move(configs));
}

TEST(UtilizationControllerTest, Equation3BelowFullUtilization) {
  const UtilizationController c;
  const auto profile = MeasuredProfile();
  // new = utilization * old (Eq. 3), in the measured currency: the
  // processed level (0.5 * 40 = 20, 0.8 * 30 = 24) times the 1.25
  // headroom. Neither result is below the damping floor (old * 0.5).
  EXPECT_NEAR(c.Update(0.5, 20.0, 40.0, 0.0, profile), 25.0, 1e-9);
  EXPECT_NEAR(c.Update(0.8, 24.0, 30.0, 0.0, profile), 30.0, 1e-9);
}

TEST(UtilizationControllerTest, HeadroomPadsDemand) {
  const UtilizationController c;
  const auto profile = MeasuredProfile();
  // 30 processed pads to 37.5, above both the floor (20) and Eq. 3 alone.
  EXPECT_DOUBLE_EQ(kDemandHeadroom, 1.25);
  EXPECT_NEAR(c.Update(0.75, 30.0, 40.0, 0.0, profile), 37.5, 1e-9);
}

TEST(UtilizationControllerTest, DampedDecrease) {
  const UtilizationController c;
  const auto profile = MeasuredProfile();
  // A sudden drop to 10 % utilization (4 processed, 5 with headroom) is
  // limited to halving per tick.
  EXPECT_DOUBLE_EQ(kMaxDecrease, 0.5);
  EXPECT_NEAR(c.Update(0.1, 4.0, 40.0, 0.0, profile), 20.0, 1e-9);
}

TEST(UtilizationControllerTest, ExponentialDiscoveryAtFullUtilization) {
  const UtilizationController c;
  const auto profile = MeasuredProfile();
  const double next = c.Update(1.0, 20.0, 20.0, 0.0, profile);
  EXPECT_NEAR(next, 40.0, 1e-9);  // doubles
  // Capped at the peak performance score.
  EXPECT_NEAR(c.Update(1.0, 40.0, 40.0, 0.0, profile), 50.0, 1e-9);
}

TEST(UtilizationControllerTest, PressureAcceleratesDiscovery) {
  const UtilizationController c;
  const auto profile = MeasuredProfile();
  const double relaxed = c.Update(1.0, 10.0, 10.0, 0.0, profile);
  const double pressured = c.Update(1.0, 10.0, 10.0, 1.0, profile);
  EXPECT_GT(pressured, relaxed);
  EXPECT_NEAR(pressured, 50.0, 1e-9);  // 10 * 2 * 4 capped at peak
}

TEST(UtilizationControllerTest, PressureFloorsDemand) {
  const UtilizationController c;
  const auto profile = MeasuredProfile();
  // Low utilization but latency pressure 0.8: demand >= 0.8 * peak.
  EXPECT_GE(c.Update(0.1, 1.0, 10.0, 0.8, profile), 0.8 * 50.0 - 1e-9);
}

TEST(UtilizationControllerTest, EmptyProfileYieldsZero) {
  const UtilizationController c;
  const Topology topo = Topology::HaswellEp2S();
  std::vector<profile::Configuration> configs;
  configs.push_back({hwsim::SocketConfig::Idle(topo), 0, 0, -1});
  profile::EnergyProfile empty(std::move(configs));
  EXPECT_DOUBLE_EQ(c.Update(1.0, 5.0, 10.0, 0.0, empty), 0.0);
}

TEST(RtiControllerTest, UnderUtilizationUsesRti) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  // Demand 10 is far below the optimum (perf 20): RTI between the optimal
  // configuration and idle with duty 0.5.
  const auto plan = c.MakePlan(10.0, profile.FindForDemand(10.0), profile, 0.0);
  EXPECT_TRUE(plan.use_rti);
  EXPECT_EQ(plan.config_index, 2);
  EXPECT_NEAR(plan.duty, 0.5, 1e-9);
  EXPECT_GE(plan.cycles, 1);
}

TEST(RtiControllerTest, NoRtiInOverUtilization) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto plan = c.MakePlan(45.0, profile.FindForDemand(45.0), profile, 0.0);
  EXPECT_FALSE(plan.use_rti);
  EXPECT_EQ(plan.config_index, 5);
}

TEST(RtiControllerTest, HighDutySkipsSwitching) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto plan = c.MakePlan(19.5, profile.FindForDemand(19.5), profile, 0.0);
  EXPECT_FALSE(plan.use_rti);  // duty would be 0.975 > kRtiMaxDuty
  EXPECT_EQ(plan.config_index, 2);
}

TEST(RtiControllerTest, PressureDisablesRti) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto plan = c.MakePlan(10.0, profile.FindForDemand(10.0), profile, 0.9);
  EXPECT_FALSE(plan.use_rti);
}

TEST(RtiControllerTest, PressureRaisesSwitchingFrequency) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  const auto calm = c.MakePlan(10.0, 2, profile, 0.0);
  const auto tense = c.MakePlan(10.0, 2, profile, 0.6);
  EXPECT_GT(tense.cycles, calm.cycles);
  EXPECT_LE(tense.cycles, RtiControllerParams().max_cycles_per_interval);
}

TEST(RtiControllerTest, DisabledAtTheDisablePressure) {
  RtiController c((RtiControllerParams()));
  const auto profile = MeasuredProfile();
  EXPECT_DOUBLE_EQ(kRtiDisablePressure, 0.7);
  // Just below the limit RTI runs at the maximum switching frequency; at
  // the limit it is off.
  const auto below = c.MakePlan(5.0, 2, profile, 0.69);
  EXPECT_TRUE(below.use_rti);
  EXPECT_EQ(below.cycles, 49);  // 10 + 40 * 0.69 / 0.7, rounded
  EXPECT_FALSE(c.MakePlan(5.0, 2, profile, 0.7).use_rti);
}

TEST(ProfileMaintenanceTest, OnlineRecordsAndDetectsDrift) {
  ProfileMaintenance m;
  auto profile = MeasuredProfile();
  // Consistent measurement: no drift.
  auto out = m.RecordOnline(&profile, 2, 8.2, 19.8, Seconds(2));
  EXPECT_TRUE(out.recorded);
  EXPECT_FALSE(out.drift_detected);
  EXPECT_DOUBLE_EQ(profile.config(2).power_w, 8.2);
  // Strongly different measurement: drift (workload change).
  out = m.RecordOnline(&profile, 2, 16.0, 10.0, Seconds(3));
  EXPECT_TRUE(out.drift_detected);
  EXPECT_EQ(m.online_updates(), 2);
}

TEST(ProfileMaintenanceTest, DisabledOnlineDoesNothing) {
  ProfileMaintenance m;
  m.SetEnabled(/*online=*/false, /*multiplexed=*/true);
  auto profile = MeasuredProfile();
  const auto out = m.RecordOnline(&profile, 2, 16.0, 10.0, Seconds(3));
  EXPECT_FALSE(out.recorded);
  EXPECT_DOUBLE_EQ(profile.config(2).power_w, 8.0);  // untouched
}

TEST(ProfileMaintenanceTest, PicksStaleForReevaluation) {
  ProfileMaintenance m;
  auto profile = WideMeasuredProfile();  // all measured at t=1s
  // Measured at 1 s, a configuration turns stale once older than 120 s.
  EXPECT_TRUE(m.PickForReevaluation(profile, Seconds(121)).empty());
  // After aging, picks arrive in bounded batches of kEvalsPerInterval (6)
  // and make progress.
  const auto first = m.PickForReevaluation(profile, Seconds(121) + 1);
  ASSERT_EQ(first.size(), 6u);
  const auto second = m.PickForReevaluation(profile, Seconds(121) + 1);
  ASSERT_EQ(second.size(), 6u);
  EXPECT_NE(first[0], second[0]);
}

TEST(ProfileMaintenanceTest, FlagDriftMarksWholeProfile) {
  ProfileMaintenance m;
  auto profile = MeasuredProfile();
  m.FlagDrift(&profile);
  EXPECT_EQ(m.PickForReevaluation(profile, Seconds(2)).size(), 5u);
}

TEST(SystemEclTest, PressureZeroWithoutLatencies) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEcl ecl(&sim, &latency, SystemEclParams{});
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 0.0);
}

TEST(SystemEclTest, ViolationMeansFullPressure) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEclParams params;
  params.latency_limit_ms = 100.0;
  SystemEcl ecl(&sim, &latency, params);
  latency.RecordCompletion(0, Millis(150));  // 150 ms > limit
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 1.0);
  EXPECT_DOUBLE_EQ(ecl.time_to_violation_s(), 0.0);
}

TEST(SystemEclTest, RisingTrendRaisesPressure) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(60));
  SystemEclParams params;
  params.latency_limit_ms = 100.0;
  SystemEcl ecl(&sim, &latency, params);
  // Latency ramps 50 -> 80 ms over 1.5 s: ~20 ms/s slope, mean ~65 ms,
  // ttv ~1.75 s, inside the 3 s horizon; the proximity (0.65) stays
  // below its 0.7 onset, so the trend alone raises the pressure.
  for (int i = 0; i <= 30; ++i) {
    const SimTime t = Millis(50 * i);
    latency.RecordCompletion(t - Millis(50 + i), t);
  }
  ecl.Update();
  EXPECT_GT(ecl.pressure(), 0.3);
  EXPECT_LT(ecl.time_to_violation_s(), kPressureHorizonS);
}

TEST(SystemEclTest, LowFlatLatencyRelaxed) {
  sim::Simulator sim;
  engine::LatencyTracker latency(Seconds(5));
  SystemEcl ecl(&sim, &latency, SystemEclParams{});
  for (int i = 0; i < 10; ++i) {
    latency.RecordCompletion(Millis(100 * i), Millis(100 * i + 20));
  }
  ecl.Update();
  EXPECT_DOUBLE_EQ(ecl.pressure(), 0.0);
  EXPECT_GT(ecl.time_to_violation_s(), 100.0);
}

TEST(MetaCalibrationTest, FindsPaperLikeTimes) {
  // Fig. 12: applying a configuration is accurate even at 1 ms; measuring
  // needs ~100 ms; shorter windows deviate increasingly.
  sim::Simulator sim;
  hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
  MetaCalibration cal(&sim, &machine, 0);
  const MetaCalibrationResult result = cal.Run(workload::ComputeBound());
  EXPECT_LE(result.apply_time, Millis(2));
  EXPECT_LE(result.measure_time, Millis(100));
  EXPECT_GE(result.measure_time, Millis(5));
  // The measure sweep deviation grows as the window shrinks.
  const auto& sweep = result.measure_sweep;
  ASSERT_GE(sweep.size(), 3u);
  EXPECT_GT(sweep.back().deviation, sweep.front().deviation);
}

}  // namespace
}  // namespace ecldb::ecl
