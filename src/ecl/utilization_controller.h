#ifndef ECLDB_ECL_UTILIZATION_CONTROLLER_H_
#define ECLDB_ECL_UTILIZATION_CONTROLLER_H_

#include "profile/energy_profile.h"

namespace ecldb::ecl {

/// Utilization at or above which the socket counts as fully utilized:
/// the true demand is then unobservable (paper Section 5.1).
inline constexpr double kFullUtilization = 0.95;
/// Base factor of the exponential discovery at full utilization.
inline constexpr double kDiscoveryFactor = 2.0;
/// Extra aggressiveness at maximum latency pressure: the discovery factor
/// grows to kDiscoveryFactor * (1 + kPressureBoost * pressure), the
/// "more eager to increase the performance level" of Section 5.2.
inline constexpr double kPressureBoost = 3.0;
/// Headroom multiplied onto the observed demand, so a transient burst
/// does not build backlog at once.
inline constexpr double kDemandHeadroom = 1.25;
/// Largest per-tick reduction of the performance level (0.5 = at most
/// halve), damping down-up oscillation of the reactive loop.
inline constexpr double kMaxDecrease = 0.5;

/// The paper's utilization controller (Section 5.1): determines the
/// current performance-level demand of the DBMS on this socket.
///
/// Below full utilization the demand is directly observable:
///   performance_level_new = utilization * performance_level_old  (Eq. 3)
///
/// At full utilization the controller cannot know the true demand (the
/// utilization is measured relative to the active workers), so it
/// discovers it by exponentially increasing the performance level —
/// faster when the system-level ECL reports latency pressure.
class UtilizationController {
 public:
  /// Computes the new performance-level demand.
  ///
  /// `utilization` in [0,1] is the worker-busy fraction (saturation
  /// signal); `measured_rate` is the performance level actually processed
  /// over the finished interval (instructions retired per second), which
  /// below saturation equals the true demand — this is Eq. 3 expressed in
  /// the measured currency (utilization * offered level == processed
  /// level). `current_level` is the previously offered level; `pressure`
  /// in [0,1] comes from the system-level ECL.
  double Update(double utilization, double measured_rate, double current_level,
                double pressure, const profile::EnergyProfile& profile) const;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_UTILIZATION_CONTROLLER_H_
