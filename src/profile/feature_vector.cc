#include "profile/feature_vector.h"

#include <algorithm>
#include <cmath>

namespace ecldb::profile {
namespace {

/// Per-dimension distance weights (see FeatureDistance). Only the
/// memory-boundedness dimension separates work profiles reliably:
///
///  * ipc_proxy — zero weight. For memory-bound work the retirement rate
///    is bandwidth- not core-limited, so instructions per thread-cycle
///    vary ~4x with the applied thread count / frequency; during a
///    multiplexed sweep the same workload scatters across the dimension.
///  * utilization / rti_duty — zero weight: load-level properties that
///    differ between a saturated priming run and the same workload at
///    partial load; any positive weight pushes such same-workload pairs
///    past the seeding threshold.
///
/// All three stay in the vector as observational metadata (idle gating,
/// diagnostics, serialization) and as candidate dimensions once they can
/// be measured configuration-invariantly.
constexpr std::array<double, kFeatureDims> kWeights = {0.0, 1.0, 0.0, 0.0};

/// Squashes an unbounded non-negative quantity to [0,1).
double Squash(double x) { return x / (1.0 + x); }

}  // namespace

const char* FeatureDimName(int i) {
  static const char* kNames[kFeatureDims] = {"ipc_proxy", "bytes_per_instr",
                                             "utilization", "rti_duty"};
  return i >= 0 && i < kFeatureDims ? kNames[i] : "?";
}

FeatureVector ExtractFeatures(const FeatureInputs& in) {
  FeatureVector f;
  if (in.instr_rate <= 0.0 || in.active_threads <= 0 ||
      in.core_freq_ghz <= 0.0) {
    return f;  // not a loaded interval
  }
  const double duty = std::clamp(in.rti_duty, 0.05, 1.0);
  // Instructions per active thread-cycle: thread capacity is
  // threads * freq * 1e9 cycles/s, scaled by the RTI duty (the work
  // concentrates into the active windows).
  const double thread_cycles =
      static_cast<double>(in.active_threads) * in.core_freq_ghz * 1e9 * duty;
  f.v[0] = Squash(in.instr_rate / thread_cycles);
  f.v[1] = Squash(std::max(0.0, in.dram_bytes_rate) / in.instr_rate);
  f.v[2] = std::clamp(in.utilization, 0.0, 1.0);
  f.v[3] = std::clamp(in.rti_duty, 0.0, 1.0);
  f.valid = true;
  return f;
}

double FeatureDistance(const FeatureVector& a, const FeatureVector& b) {
  double sum = 0.0;
  double wsum = 0.0;
  for (int i = 0; i < kFeatureDims; ++i) {
    const double d = a.v[static_cast<size_t>(i)] - b.v[static_cast<size_t>(i)];
    sum += kWeights[static_cast<size_t>(i)] * d * d;
    wsum += kWeights[static_cast<size_t>(i)];
  }
  return std::sqrt(sum / wsum);
}

}  // namespace ecldb::profile
