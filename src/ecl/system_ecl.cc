#include "ecl/system_ecl.h"

#include <algorithm>

#include "common/check.h"

namespace ecldb::ecl {

SystemEcl::SystemEcl(sim::Simulator* simulator,
                     const engine::LatencyTracker* latency,
                     const SystemEclParams& params)
    : simulator_(simulator), latency_(latency), params_(params) {
  ECLDB_CHECK(simulator != nullptr && latency != nullptr);
  ECLDB_CHECK(params.latency_limit_ms > 0.0);
}

void SystemEcl::Start() {
  running_ = true;
  const int64_t epoch = ++start_epoch_;
  simulator_->ScheduleAfter(params_.interval, [this, epoch] { Tick(epoch); });
}

void SystemEcl::Tick(int64_t epoch) {
  if (!running_ || epoch != start_epoch_) return;
  Update();
  simulator_->ScheduleAfter(params_.interval, [this, epoch] { Tick(epoch); });
}

void SystemEcl::Update() {
  // Demand the entrance refused never shows up in the latency window, so
  // the shed fraction contributes a pressure floor in every branch.
  const double shed_floor =
      shed_signal_
          ? std::clamp(kShedPressureWeight * shed_signal_(), 0.0, 1.0)
          : 0.0;
  if (latency_->WindowEmpty()) {
    pressure_ = shed_floor;
    ttv_s_ = 1e18;
    return;
  }
  const double mean = latency_->WindowMeanMs();
  const double trend = latency_->TrendMsPerSec();
  const double limit = params_.latency_limit_ms;

  if (mean >= limit) {
    ttv_s_ = 0.0;
    pressure_ = 1.0;
    return;
  }
  ttv_s_ = trend > 1e-9 ? (limit - mean) / trend : 1e18;

  const double trend_pressure =
      std::clamp(1.0 - ttv_s_ / kPressureHorizonS, 0.0, 1.0);
  const double proximity = mean / limit;
  const double proximity_pressure = std::clamp(
      (proximity - kProximityOnset) / (1.0 - kProximityOnset), 0.0, 1.0);
  pressure_ = std::max({trend_pressure, proximity_pressure, shed_floor});
}

}  // namespace ecldb::ecl
