#ifndef ECLDB_EXPERIMENT_DRIFT_TRACE_H_
#define ECLDB_EXPERIMENT_DRIFT_TRACE_H_

// Recurring-drift trace for the learned-profile-maintenance evaluation
// (ROADMAP item 3; ablation in bench/ablation_learned_profiles.cc and the
// epsilon-regression test in tests/ecl_predictor_test.cc).
//
// The Fig. 15 experiment switches the workload once, which any predictor
// must pay for in full — the first sight of a work profile is all misses.
// Real systems drift between a small set of recurring profiles (day/night,
// batch windows), so this trace alternates between the indexed and the
// non-indexed key-value benchmark: prime on A, then phases B, A, B, ...
// at fixed load. On every revisit a learned predictor can seed the
// invalidated profile from its cache and only measure the few
// configurations it is still ignorant about, while plain multiplexed
// adaptation re-measures the whole profile every time.

#include <string>
#include <vector>

#include "common/types.h"
#include "ecl/profile_predictor.h"
#include "telemetry/telemetry.h"

namespace ecldb::experiment {

struct DriftTraceParams {
  /// Learned predictor config; `predictor.enabled = false` reproduces the
  /// plain multiplexed arm.
  ecl::ProfilePredictorParams predictor;
  /// Synthetic-saturation priming on the indexed workload (profiles start
  /// accurate for the OLD workload, as in Fig. 15).
  SimDuration prime = Seconds(30);
  /// Number of workload switches after the prime; phase i runs the
  /// non-indexed scan workload for even i, the indexed one for odd i.
  int num_switch_phases = 3;
  SimDuration phase_len = Seconds(40);
  /// Offered load as a fraction of the all-on baseline capacity. The
  /// default keeps both workloads inside the band where online
  /// measurements are reproducible interval-to-interval: much higher and
  /// the scan workload saturates (measured throughput then tracks the
  /// swinging sweep configurations, re-flagging drift forever), much
  /// lower and race-to-idle duty cycles starve the measurements.
  double load = 0.4;
  /// Tail window at the end of each phase: adaptation should long be over,
  /// so tail energy/latency measure the *quality* of the converged
  /// configuration (the epsilon-regression bound).
  SimDuration tail = Seconds(10);
  /// Learn-cache text (SerializeLearnCache) loaded into every socket's
  /// predictor after priming — the "warm predictor" arm, modeling a
  /// restart that kept its cache alongside the serialized profile.
  std::string prime_learn_cache;
  /// Optional telemetry context; bound to the run's simulator and
  /// propagated through machine, engine, and ECL. Must outlive the call;
  /// the deterministic dump is captured in the result.
  telemetry::Telemetry* telemetry = nullptr;
};

struct DriftTracePhase {
  std::string workload;
  /// Seconds (1 s resolution) from the switch until socket 0's stale set
  /// drained — the multiplexed adaptation time. -1 if it never drained
  /// (or drift was never flagged, e.g. the static arm).
  double adapt_s = -1.0;
  /// Multiplexed evaluations socket 0 spent during the phase.
  int64_t evals = 0;
  /// Configurations seeded from predictions on socket 0 (0 without the
  /// predictor).
  int64_t seeded = 0;
  double energy_j = 0.0;
  double tail_energy_j = 0.0;
  double tail_p99_ms = 0.0;
  std::string best_config;
};

struct DriftTraceResult {
  std::vector<DriftTracePhase> phases;
  double total_energy_j = 0.0;
  /// Per-second average power over all phases (prime excluded).
  std::vector<double> power_w;
  /// Socket 0's serialized learn cache at the end of the run (empty
  /// without the predictor) — feed it to another run's
  /// `prime_learn_cache` for the warm-predictor arm.
  std::string learn_cache;
  /// Deterministic registry dump (empty unless telemetry was set).
  std::string telemetry_dump;
};

/// Runs the trace on a fresh machine + engine. Deterministic for fixed
/// params.
DriftTraceResult RunDriftTrace(const DriftTraceParams& params);

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_DRIFT_TRACE_H_
