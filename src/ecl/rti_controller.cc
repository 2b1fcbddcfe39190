#include "ecl/rti_controller.h"

#include <algorithm>
#include <cmath>

namespace ecldb::ecl {

RtiController::Plan RtiController::MakePlan(
    double demand, int selected_index, const profile::EnergyProfile& profile,
    double pressure) const {
  Plan plan;
  plan.config_index = selected_index;
  if (selected_index < 0 || pressure >= kRtiDisablePressure) {
    return plan;
  }
  // RTI applies in the under-utilization zone: run the most
  // energy-efficient configuration and idle the rest of the time.
  if (profile.ZoneForDemand(demand) != profile::Zone::kUnderUtilization) {
    return plan;
  }
  const int optimal = profile.MostEfficientIndex();
  if (optimal < 0) return plan;
  const double optimal_perf = profile.config(optimal).perf_score;
  if (optimal_perf <= 0.0) return plan;

  const double duty = std::clamp(demand / optimal_perf, 0.0, 1.0);
  if (duty >= kRtiMaxDuty) {
    plan.config_index = optimal;
    return plan;
  }
  plan.use_rti = true;
  plan.config_index = optimal;
  plan.duty = duty;
  // More cycles under pressure: shorter idle stints keep latencies low at
  // the cost of more transitions.
  const double pressure_scale = pressure / kRtiDisablePressure;
  plan.cycles = static_cast<int>(std::lround(
      kRtiMinCyclesPerInterval +
      (params_.max_cycles_per_interval - kRtiMinCyclesPerInterval) *
          std::clamp(pressure_scale, 0.0, 1.0)));
  plan.cycles = std::clamp(plan.cycles, 1, params_.max_cycles_per_interval);
  return plan;
}

}  // namespace ecldb::ecl
