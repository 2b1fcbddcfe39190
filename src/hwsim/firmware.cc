#include "hwsim/firmware.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ecldb::hwsim {

Firmware::Firmware(const Topology& topo, const FrequencyTable& freqs,
                   const FirmwareParams& params)
    : topo_(topo),
      freqs_(freqs),
      params_(params),
      uncore_mode_(static_cast<size_t>(topo.num_sockets), UncoreMode::kPinned),
      turbo_request_since_(static_cast<size_t>(topo.total_cores()), kSimTimeNever),
      turbo_budget_ns_(static_cast<size_t>(topo.num_sockets),
                       static_cast<double>(params.turbo_thermal_budget)),
      budget_regime_(static_cast<size_t>(topo.num_sockets),
                     BudgetRegime::kRecover) {}

void Firmware::SetUncoreMode(SocketId socket, UncoreMode mode) {
  uncore_mode_[static_cast<size_t>(socket)] = mode;
}

void Firmware::NotifyConfigWrite(SocketId socket, const SocketConfig& requested,
                                 SimTime now) {
  for (CoreId core = 0; core < topo_.cores_per_socket; ++core) {
    const size_t idx = static_cast<size_t>(socket * topo_.cores_per_socket + core);
    const bool wants_turbo =
        requested.CoreActive(topo_, core) &&
        requested.core_freq_ghz[static_cast<size_t>(core)] >= freqs_.turbo_ghz;
    if (wants_turbo) {
      if (turbo_request_since_[idx] == kSimTimeNever) {
        turbo_request_since_[idx] = now;
      }
    } else {
      turbo_request_since_[idx] = kSimTimeNever;
    }
  }
}

void Firmware::Resolve(const MachineConfig& requested,
                       const std::vector<bool>& socket_busy,
                       const std::vector<double>& socket_power_scale,
                       SimTime now, SimDuration dt, MachineConfig* effective) {
  ECLDB_DCHECK(static_cast<int>(requested.sockets.size()) == topo_.num_sockets);
  ECLDB_DCHECK(effective != &requested);
  *effective = requested;
  next_change_ = kSimTimeNever;
  for (SocketId s = 0; s < topo_.num_sockets; ++s) {
    SocketConfig& cfg = effective->sockets[static_cast<size_t>(s)];

    // Automatic uncore frequency scaling: the CPU greedily selects the
    // highest uncore frequency whenever the socket has work, even when this
    // wastes power (paper Fig. 8).
    if (uncore_mode_[static_cast<size_t>(s)] == UncoreMode::kAuto) {
      cfg.uncore_freq_ghz = socket_busy[static_cast<size_t>(s)]
                                ? freqs_.max_uncore()
                                : freqs_.min_uncore();
    }

    // Energy-efficient turbo: in powersave/balanced EPB, turbo grants are
    // delayed by ~1 s after the request (paper Fig. 7); the core runs at
    // the maximum nominal frequency in the meantime.
    int turbo_cores = 0;
    for (CoreId core = 0; core < topo_.cores_per_socket; ++core) {
      const size_t idx = static_cast<size_t>(s * topo_.cores_per_socket + core);
      double& f = cfg.core_freq_ghz[static_cast<size_t>(core)];
      if (!cfg.CoreActive(topo_, core)) continue;
      if (f >= freqs_.turbo_ghz) {
        const bool granted =
            epb_ == EpbSetting::kPerformance ||
            (turbo_request_since_[idx] != kSimTimeNever &&
             now - turbo_request_since_[idx] >= params_.eet_delay);
        if (!granted) {
          f = freqs_.max_core_nominal();
          // A pending EET grant matures at request + delay: an autonomous
          // decision change bounding any steady-state fast-forward window.
          if (turbo_request_since_[idx] != kSimTimeNever) {
            next_change_ = std::min(next_change_,
                                    turbo_request_since_[idx] + params_.eet_delay);
          }
        } else {
          ++turbo_cores;
        }
      }
    }

    // Thermal turbo budget: wide turbo (> sustainable core count) under an
    // AVX-heavy mix drains a budget; when exhausted, cores fall back to
    // the nominal maximum (the paper's ~1 s 500 W FIRESTARTER peak).
    double& budget = turbo_budget_ns_[static_cast<size_t>(s)];
    if (turbo_cores > params_.turbo_sustainable_cores &&
        socket_power_scale[static_cast<size_t>(s)] >
            params_.turbo_power_scale_threshold) {
      if (budget <= 0.0) {
        budget_regime_[static_cast<size_t>(s)] = BudgetRegime::kHold;
        for (CoreId core = 0; core < topo_.cores_per_socket; ++core) {
          double& f = cfg.core_freq_ghz[static_cast<size_t>(core)];
          if (f >= freqs_.turbo_ghz) f = freqs_.max_core_nominal();
        }
      } else {
        budget_regime_[static_cast<size_t>(s)] = BudgetRegime::kDrain;
        budget = std::max(0.0, budget - static_cast<double>(dt));
        // Draining exactly 1 ns of budget per elapsed ns, the budget can
        // first be found depleted at a slice starting >= now + dt + budget;
        // flooring keeps the bound conservative (too early is safe).
        next_change_ = std::min(
            next_change_, now + dt + static_cast<SimTime>(std::floor(budget)));
      }
    } else {
      budget_regime_[static_cast<size_t>(s)] = BudgetRegime::kRecover;
      budget = std::min(static_cast<double>(params_.turbo_thermal_budget),
                        budget + params_.turbo_recovery_rate *
                                     static_cast<double>(dt));
    }
  }
}

void Firmware::AdvanceBudget(SimDuration dt) {
  for (SocketId s = 0; s < topo_.num_sockets; ++s) {
    double& budget = turbo_budget_ns_[static_cast<size_t>(s)];
    switch (budget_regime_[static_cast<size_t>(s)]) {
      case BudgetRegime::kDrain:
        budget = std::max(0.0, budget - static_cast<double>(dt));
        break;
      case BudgetRegime::kHold:
        break;
      case BudgetRegime::kRecover:
        budget = std::min(static_cast<double>(params_.turbo_thermal_budget),
                          budget + params_.turbo_recovery_rate *
                                       static_cast<double>(dt));
        break;
    }
  }
}

}  // namespace ecldb::hwsim
