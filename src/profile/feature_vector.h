#ifndef ECLDB_PROFILE_FEATURE_VECTOR_H_
#define ECLDB_PROFILE_FEATURE_VECTOR_H_

#include <array>

#include "common/types.h"

namespace ecldb::profile {

/// Number of work-profile feature dimensions.
inline constexpr int kFeatureDims = 4;

/// A normalized work-profile signature of one socket over one control
/// interval. The dimensions are chosen to characterize the *workload*
/// (instruction mix, memory-boundedness) rather than the load level or
/// the applied configuration, so that observations taken under one
/// configuration remain comparable when the same workload returns under
/// another:
///
///   v[0]  IPC proxy: instructions retired per active thread-GHz of the
///         applied configuration (duty-corrected under race-to-idle),
///         squashed to [0,1). Approximately configuration-invariant for
///         compute-bound work; drops with memory-boundedness.
///   v[1]  Memory-boundedness: DRAM bytes per instruction retired,
///         squashed to [0,1). A property of the instruction mix.
///   v[2]  Worker utilization of the interval, clamped to [0,1].
///   v[3]  Race-to-idle duty of the interval (1 when RTI was off).
///
/// All values are dimensionless, so distances are meaningful without
/// per-cache normalization statistics.
struct FeatureVector {
  std::array<double, kFeatureDims> v{};
  bool valid = false;
};

/// Name of feature dimension `i` (diagnostics and serialization docs).
const char* FeatureDimName(int i);

/// Raw interval observables a socket-level ECL can extract a feature
/// vector from.
struct FeatureInputs {
  /// Instructions retired per second over the interval (raw, including
  /// poll instructions — the currency of the learn-cache observations).
  double instr_rate = 0.0;
  /// DRAM bytes transferred per second over the interval.
  double dram_bytes_rate = 0.0;
  /// Active hardware threads of the applied configuration.
  int active_threads = 0;
  /// Mean active-core frequency of the applied configuration (GHz).
  double core_freq_ghz = 0.0;
  /// Race-to-idle duty of the interval; 1.0 when RTI was off.
  double rti_duty = 1.0;
  /// Worker utilization of the interval in [0,1].
  double utilization = 0.0;
};

/// Extracts the normalized feature vector; `valid` is false when the
/// inputs cannot describe a loaded interval (no instructions, no active
/// threads).
FeatureVector ExtractFeatures(const FeatureInputs& in);

/// Weighted Euclidean distance in [0,1] over the configuration-invariant
/// workload-signature dimensions — currently memory-boundedness alone.
/// The IPC proxy is excluded because it is configuration-dependent for
/// memory-bound work (retirement is bandwidth-limited, so per-thread-cycle
/// rates swing ~4x across a multiplexed sweep); utilization and duty are
/// excluded because they vary with load level even for an unchanged
/// workload. A weight on any of them separates a workload from its own
/// revisit under a different configuration or load.
double FeatureDistance(const FeatureVector& a, const FeatureVector& b);

}  // namespace ecldb::profile

#endif  // ECLDB_PROFILE_FEATURE_VECTOR_H_
