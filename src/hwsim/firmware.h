#ifndef ECLDB_HWSIM_FIRMWARE_H_
#define ECLDB_HWSIM_FIRMWARE_H_

#include <vector>

#include "common/types.h"
#include "hwsim/hw_config.h"
#include "hwsim/perf_model.h"
#include "hwsim/pstate.h"
#include "hwsim/topology.h"

namespace ecldb::hwsim {

/// Energy-performance bias, settable per MSR (paper Section 2.3). In this
/// model it is machine-global, as the paper sets it uniformly.
enum class EpbSetting { kPerformance, kBalanced, kPowersave };

/// Whether the uncore frequency follows the CPU's own (greedy) uncore
/// frequency scaling or the explicitly pinned value.
enum class UncoreMode { kPinned, kAuto };

struct FirmwareParams {
  /// Delay before the energy-efficient turbo grants the turbo frequency
  /// when EPB is powersave/balanced (paper Fig. 7: ~1 s).
  SimDuration eet_delay = Seconds(1);
  /// All-core turbo is thermally sustainable only for about this long
  /// (paper Section 2.1: the 500 W turbo peak endures ~1 s).
  SimDuration turbo_thermal_budget = Seconds(1);
  /// Budget refill rate relative to drain (0.5 = half speed).
  double turbo_recovery_rate = 0.5;
  /// Turbo on at most this many cores per socket does not drain the
  /// thermal budget.
  int turbo_sustainable_cores = 4;
  /// Only instruction mixes above this dynamic-power scale (AVX-heavy burn
  /// loops) drain the budget; scalar code sustains all-core turbo.
  double turbo_power_scale_threshold = 1.2;
};

/// Models the decision making the CPU performs on its own: energy-efficient
/// turbo (EET) grant delays controlled by the EPB, the thermal turbo
/// budget, and the automatic uncore frequency scaling whose greedy
/// decisions the paper shows to be energy-inefficient (Figs. 7 and 8).
class Firmware {
 public:
  Firmware(const Topology& topo, const FrequencyTable& freqs,
           const FirmwareParams& params);

  void set_epb(EpbSetting epb) { epb_ = epb; }
  EpbSetting epb() const { return epb_; }

  void SetUncoreMode(SocketId socket, UncoreMode mode);
  UncoreMode uncore_mode(SocketId socket) const {
    return uncore_mode_[static_cast<size_t>(socket)];
  }

  /// Called when software writes a new configuration for `socket` at time
  /// `now`; tracks when turbo was first requested per core.
  void NotifyConfigWrite(SocketId socket, const SocketConfig& requested,
                         SimTime now);

  /// Resolves the *effective* machine configuration at `now` for the
  /// upcoming slice of length `dt` into `effective`: applies EET delay,
  /// the turbo thermal budget, and automatic uncore scaling. `socket_busy`
  /// reports whether any thread of the socket currently has work (drives
  /// auto-UFS); `socket_power_scale` is the dynamic-power scale of the
  /// running mix (drives the thermal turbo budget). `effective` is
  /// overwritten in place, reusing its storage.
  void Resolve(const MachineConfig& requested,
               const std::vector<bool>& socket_busy,
               const std::vector<double>& socket_power_scale, SimTime now,
               SimDuration dt, MachineConfig* effective);

  /// Earliest future time at which the firmware would change its decisions
  /// on its own (EET grant maturing, thermal turbo budget depleting) given
  /// the inputs of the last Resolve call; kSimTimeNever if none is pending.
  /// Valid until the requested config, EPB, busy state, or power scale
  /// changes — i.e. for the steady window following the last Resolve.
  SimTime next_change() const { return next_change_; }

  /// Replays the per-slice thermal-budget update of Resolve for one slice
  /// of a steady window (same branch, bit-identical arithmetic), without
  /// re-deriving the effective configuration. Only valid while the inputs
  /// of the last Resolve are unchanged and `next_change()` has not been
  /// reached.
  void AdvanceBudget(SimDuration dt);

 private:
  /// Which thermal-budget branch Resolve took, per socket.
  enum class BudgetRegime { kDrain, kHold, kRecover };

  Topology topo_;
  FrequencyTable freqs_;
  FirmwareParams params_;
  EpbSetting epb_ = EpbSetting::kBalanced;
  std::vector<UncoreMode> uncore_mode_;
  /// Per (socket, core): time the current turbo request started, or
  /// kSimTimeNever if turbo is not requested.
  std::vector<SimTime> turbo_request_since_;
  /// Remaining thermal budget per socket, ns of all-core turbo.
  std::vector<double> turbo_budget_ns_;
  /// Budget branch taken by the last Resolve, per socket.
  std::vector<BudgetRegime> budget_regime_;
  /// Cached autonomous-change horizon of the last Resolve.
  SimTime next_change_ = 0;
};

}  // namespace ecldb::hwsim

#endif  // ECLDB_HWSIM_FIRMWARE_H_
