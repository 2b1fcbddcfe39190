#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "ecl/ecl.h"
#include "ecl/profile_predictor.h"
#include "profile/feature_vector.h"
#include "engine/engine.h"
#include "hwsim/machine.h"
#include "sim/simulator.h"
#include "workload/work_profiles.h"
#include "profile/config_generator.h"
#include "profile/serialization.h"

namespace ecldb::profile {
namespace {

EnergyProfile MakeProfile(const GeneratorParams& params = GeneratorParams{}) {
  ConfigGenerator gen(hwsim::Topology::HaswellEp2S(),
                      hwsim::FrequencyTable::HaswellEp());
  return EnergyProfile(gen.Generate(params));
}

TEST(ProfileSerializationTest, RoundTripPreservesMeasurements) {
  EnergyProfile original = MakeProfile();
  Rng rng(4);
  for (int i = 1; i < original.size(); i += 3) {
    original.Record(i, 10.0 + rng.NextDouble() * 100.0,
                    1e9 * (1.0 + rng.NextDouble()), Seconds(i));
  }
  const std::string text = SerializeProfile(original);

  EnergyProfile restored = MakeProfile();
  ASSERT_TRUE(DeserializeProfile(text, &restored));
  EXPECT_EQ(restored.measured_count(), original.measured_count());
  for (int i = 1; i < original.size(); ++i) {
    const Configuration& a = original.config(i);
    const Configuration& b = restored.config(i);
    EXPECT_EQ(a.measured(), b.measured());
    if (a.measured()) {
      EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
      EXPECT_DOUBLE_EQ(a.perf_score, b.perf_score);
      EXPECT_EQ(a.last_measured, b.last_measured);
    }
  }
  EXPECT_EQ(restored.MostEfficientIndex(), original.MostEfficientIndex());
  EXPECT_EQ(restored.Skyline(), original.Skyline());
}

TEST(ProfileSerializationTest, EmptyProfileRoundTrips) {
  EnergyProfile original = MakeProfile();
  EnergyProfile restored = MakeProfile();
  ASSERT_TRUE(DeserializeProfile(SerializeProfile(original), &restored));
  EXPECT_EQ(restored.measured_count(), 0);
}

TEST(ProfileSerializationTest, RejectsMismatchedGeneratorParams) {
  EnergyProfile original = MakeProfile();
  original.Record(1, 10.0, 1e9, Seconds(1));
  const std::string text = SerializeProfile(original);

  GeneratorParams other;
  other.n_core_freqs = 7;
  EnergyProfile different = MakeProfile(other);
  EXPECT_FALSE(DeserializeProfile(text, &different));
  EXPECT_EQ(different.measured_count(), 0);  // untouched
}

TEST(ProfileSerializationTest, RejectsCorruptInput) {
  EnergyProfile profile = MakeProfile();
  EXPECT_FALSE(DeserializeProfile("", &profile));
  EXPECT_FALSE(DeserializeProfile("garbage v1 145 123", &profile));
  EXPECT_FALSE(DeserializeProfile("ecldb-profile v2 145 123", &profile));

  // Valid header, out-of-range index.
  const std::string header = SerializeProfile(profile);
  EXPECT_FALSE(DeserializeProfile(header + "9999 10 1e9 5\n", &profile));
  // Negative power.
  EXPECT_FALSE(DeserializeProfile(header + "1 -3 1e9 5\n", &profile));
  // Trailing junk.
  EXPECT_FALSE(DeserializeProfile(header + "1 10 1e9 5 extra_token\n1 x\n",
                                  &profile));
  EXPECT_EQ(profile.measured_count(), 0);
}

TEST(ProfileSerializationTest, RoundTripPreservesStaleness) {
  // last_measured drives multiplexed adaptation: a warm-started profile
  // must look exactly as stale as the one that was saved.
  EnergyProfile original = MakeProfile();
  original.Record(1, 20.0, 1e9, Seconds(5));
  original.Record(2, 25.0, 2e9, Seconds(200));
  const std::string text = SerializeProfile(original);

  EnergyProfile restored = MakeProfile();
  ASSERT_TRUE(DeserializeProfile(text, &restored));
  EXPECT_EQ(restored.config(1).last_measured, Seconds(5));
  EXPECT_EQ(restored.config(2).last_measured, Seconds(200));
  // With a 120 s stale age at t = 210 s, config 1 is stale and config 2 is
  // fresh — identical to the original profile's view.
  const SimTime now = Seconds(210);
  const SimDuration age = Seconds(120);
  EXPECT_EQ(restored.StaleConfigs(now, age), original.StaleConfigs(now, age));
  const std::vector<int> stale = restored.StaleConfigs(now, age);
  EXPECT_NE(std::find(stale.begin(), stale.end(), 1), stale.end());
  EXPECT_EQ(std::find(stale.begin(), stale.end(), 2), stale.end());
}

TEST(LearnCacheSerializationTest, RoundTripPreservesObservations) {
  EnergyProfile profile = MakeProfile();
  const uint64_t fp = ProfileFingerprint(profile);
  ecl::ProfilePredictor original(profile.size());
  Rng rng(9);
  for (int i = 1; i < profile.size(); i += 2) {
    for (int rep = 0; rep < 3; ++rep) {
      FeatureInputs in;
      in.instr_rate = 1e9 * (0.5 + rng.NextDouble());
      in.dram_bytes_rate = 1e9 * rng.NextDouble();
      in.active_threads = 12;
      in.core_freq_ghz = 2.0;
      in.rti_duty = 0.5 + 0.5 * rng.NextDouble();
      in.utilization = 0.3 + 0.7 * rng.NextDouble();
      original.Observe(i, ExtractFeatures(in), 20.0 + rng.NextDouble() * 80.0,
                       1e9 * (0.5 + rng.NextDouble()), Seconds(rep + 1));
    }
  }
  ASSERT_GT(original.size(), 0);
  const std::string text = ecl::SerializeLearnCache(original, fp);

  ecl::ProfilePredictor restored(profile.size());
  ASSERT_TRUE(ecl::DeserializeLearnCache(text, fp, &restored));
  ASSERT_EQ(restored.size(), original.size());
  for (int i = 1; i < profile.size(); ++i) {
    const auto& a = original.entries(i);
    const auto& b = restored.entries(i);
    ASSERT_EQ(a.size(), b.size()) << "config " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      for (int d = 0; d < kFeatureDims; ++d) {
        EXPECT_DOUBLE_EQ(a[j].features.v[d], b[j].features.v[d]);
      }
      EXPECT_DOUBLE_EQ(a[j].power_w, b[j].power_w);
      EXPECT_DOUBLE_EQ(a[j].perf_score, b[j].perf_score);
      EXPECT_EQ(a[j].at, b[j].at);
    }
  }
  // The restored cache predicts identically.
  FeatureInputs q;
  q.instr_rate = 1.3e9;
  q.dram_bytes_rate = 0.4e9;
  q.active_threads = 12;
  q.core_freq_ghz = 2.0;
  q.utilization = 0.8;
  const FeatureVector query = ExtractFeatures(q);
  for (int i = 1; i < profile.size(); i += 7) {
    const auto pa = original.Predict(i, query);
    const auto pb = restored.Predict(i, query);
    EXPECT_DOUBLE_EQ(pa.power_w, pb.power_w);
    EXPECT_DOUBLE_EQ(pa.perf_score, pb.perf_score);
    EXPECT_DOUBLE_EQ(pa.ignorance, pb.ignorance);
  }
}

TEST(LearnCacheSerializationTest, RejectsCorruptInput) {
  EnergyProfile profile = MakeProfile();
  const uint64_t fp = ProfileFingerprint(profile);
  ecl::ProfilePredictor pred(profile.size());
  FeatureInputs in;
  in.instr_rate = 1e9;
  in.dram_bytes_rate = 1e8;
  in.active_threads = 8;
  in.core_freq_ghz = 2.0;
  in.utilization = 0.9;
  pred.Observe(1, ExtractFeatures(in), 50.0, 1e9, Seconds(1));
  const int64_t size_before = pred.size();
  const std::string good = ecl::SerializeLearnCache(pred, fp);
  const std::string header = good.substr(0, good.find('\n') + 1);

  EXPECT_FALSE(ecl::DeserializeLearnCache("", fp, &pred));
  EXPECT_FALSE(ecl::DeserializeLearnCache("garbage v1 145 1 4\n", fp, &pred));
  EXPECT_FALSE(
      ecl::DeserializeLearnCache("ecldb-learncache v2 145 1 4\n", fp, &pred));
  // Wrong fingerprint.
  EXPECT_FALSE(ecl::DeserializeLearnCache(good, fp + 1, &pred));
  // Wrong dimensionality in the header.
  std::string bad_dims = good;
  bad_dims.replace(bad_dims.find(" 4\n"), 3, " 5\n");
  EXPECT_FALSE(ecl::DeserializeLearnCache(bad_dims, fp, &pred));
  // Out-of-range config index.
  EXPECT_FALSE(ecl::DeserializeLearnCache(
      header + "9999 0.5 0.5 0.5 0.5 50 1e9 5\n", fp, &pred));
  // Feature outside [0, 1].
  EXPECT_FALSE(ecl::DeserializeLearnCache(
      header + "1 1.5 0.5 0.5 0.5 50 1e9 5\n", fp, &pred));
  EXPECT_FALSE(ecl::DeserializeLearnCache(
      header + "1 nan 0.5 0.5 0.5 50 1e9 5\n", fp, &pred));
  // Negative power / truncated record.
  EXPECT_FALSE(ecl::DeserializeLearnCache(
      header + "1 0.5 0.5 0.5 0.5 -50 1e9 5\n", fp, &pred));
  EXPECT_FALSE(
      ecl::DeserializeLearnCache(header + "1 0.5 0.5\n", fp, &pred));
  // Every rejected load left the cache untouched (all-or-nothing).
  EXPECT_EQ(pred.size(), size_before);
  EXPECT_EQ(ecl::SerializeLearnCache(pred, fp), good);
}

TEST(ProfileSerializationTest, FingerprintSensitiveToConfigSet) {
  const uint64_t a = ProfileFingerprint(MakeProfile());
  GeneratorParams p;
  p.n_uncore_freqs = 2;
  const uint64_t b = ProfileFingerprint(MakeProfile(p));
  EXPECT_NE(a, b);
  // Deterministic across generations.
  EXPECT_EQ(a, ProfileFingerprint(MakeProfile()));
}


TEST(ProfileSerializationTest, WarmStartsAnEcl) {
  // A profile primed in one "process" warm-starts a fresh ECL: no
  // bootstrap phase, the first tick already has full knowledge.
  std::string saved;
  {
    sim::Simulator sim;
    hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
    engine::Engine engine(&sim, &machine, engine::EngineParams{});
    ecl::EnergyControlLoop loop(&sim, &engine, ecl::EclParams{});
    loop.Start();
    engine.scheduler().SetSyntheticLoad(&workload::MemoryScan());
    sim.RunFor(Seconds(30));
    saved = SerializeProfile(loop.socket(0).profile());
  }
  {
    sim::Simulator sim;
    hwsim::Machine machine(&sim, hwsim::MachineParams::HaswellEp());
    engine::Engine engine(&sim, &machine, engine::EngineParams{});
    ecl::EnergyControlLoop loop(&sim, &engine, ecl::EclParams{});
    for (int s = 0; s < loop.num_sockets(); ++s) {
      ASSERT_TRUE(DeserializeProfile(saved, &loop.socket(s).profile()));
    }
    EXPECT_GT(loop.socket(0).profile().measured_count(), 100);
    loop.Start();
    engine.scheduler().SetSyntheticLoad(&workload::MemoryScan());
    sim.RunFor(Seconds(3));
    // Warm knowledge: the ECL is already applying a measured configuration
    // instead of the bootstrap widest-config + relearning phase.
    EXPECT_GT(loop.socket(0).current_config_index(), 0);
    EXPECT_TRUE(
        loop.socket(0).profile().config(loop.socket(0).current_config_index())
            .measured());
  }
}

}  // namespace
}  // namespace ecldb::profile
