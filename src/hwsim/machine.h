#ifndef ECLDB_HWSIM_MACHINE_H_
#define ECLDB_HWSIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "hwsim/bandwidth_model.h"
#include "hwsim/firmware.h"
#include "hwsim/hw_config.h"
#include "hwsim/perf_counters.h"
#include "hwsim/perf_model.h"
#include "hwsim/power_model.h"
#include "hwsim/pstate.h"
#include "hwsim/rapl.h"
#include "hwsim/topology.h"
#include "hwsim/work_profile.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::hwsim {

/// All calibration parameters of the simulated machine; obtain defaults via
/// MachineParams::HaswellEp() (the paper's system under test).
struct MachineParams {
  Topology topology = Topology::HaswellEp2S();
  FrequencyTable freqs = FrequencyTable::HaswellEp();
  PowerModelParams power;
  BandwidthModelParams bandwidth;
  PerfModelParams perf;
  FirmwareParams firmware;
  RaplParams rapl;
  /// Latency of writing a configuration (P-/C-state transitions are in the
  /// microsecond range, cf. paper Fig. 12 discussion).
  SimDuration config_apply_latency = Micros(20);
  /// Uninterrupted idle time before a socket is promoted from the shallow
  /// to the deep C-state (hardware demotion heuristics).
  SimDuration c6_promotion = Millis(2);

  /// The 2-socket Xeon E5-2690 v3 (Haswell-EP) of the paper, calibrated to
  /// the Section 2 measurements.
  static MachineParams HaswellEp();

  /// A newer 2-socket server generation (Skylake-SP-class: 28 cores per
  /// socket, mesh uncore, 6 DDR4-2666 channels). Demonstrates that energy
  /// profiles and the ECL are hardware independent — nothing in the
  /// control loops is calibrated to Haswell.
  static MachineParams SkylakeSp();

  /// A wimpy cluster node (Atom/ARM-class microserver: one socket, four
  /// single-threaded cores, narrow frequency range, single-channel
  /// memory). Per-node peak is two orders of magnitude below Haswell-EP
  /// but so is the idle floor — the wimpy-vs-brawny cluster trade-off of
  /// Schall/Härder and Lang et al. (see PAPERS.md).
  static MachineParams Wimpy();
};

/// The simulated server. Integrates power/energy/performance over virtual
/// time as an advancer of the Simulator.
///
/// Control plane (what the DBMS/ECL can do on the real machine):
/// apply socket configurations (C-/P-states), set the EPB, pin the uncore
/// clock or leave it to the CPU.
///
/// Work plane (what execution offers): per-hardware-thread work profiles
/// and intensities; the machine solves execution rates each slice and
/// credits completed operations back.
///
/// Observables (what software can measure): RAPL energy counters,
/// instructions-retired counters, and — for experiments that had a power
/// meter attached — the modeled PSU power.
class Machine {
 public:
  Machine(sim::Simulator* simulator, const MachineParams& params);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const Topology& topology() const { return params_.topology; }
  const FrequencyTable& freqs() const { return params_.freqs; }
  const MachineParams& params() const { return params_; }

  // --- Control plane -------------------------------------------------

  /// Applies a socket configuration. Frequencies snap to the nearest
  /// settable P-state. Takes effect immediately (transition costs are in
  /// the microsecond range and are accounted as a brief thread stall).
  void ApplySocketConfig(SocketId socket, SocketConfig config);
  void ApplyMachineConfig(const MachineConfig& config);
  const SocketConfig& requested_config(SocketId socket) const {
    return requested_.sockets[static_cast<size_t>(socket)];
  }
  /// Firmware-resolved configuration of the last completed slice.
  const MachineConfig& effective_config() const { return effective_; }

  void SetEpb(EpbSetting epb) {
    if (firmware_.epb() == epb) return;
    firmware_.set_epb(epb);
    dirty_ = true;
  }
  void SetUncoreMode(SocketId socket, UncoreMode mode) {
    if (firmware_.uncore_mode(socket) == mode) return;
    firmware_.SetUncoreMode(socket, mode);
    dirty_ = true;
  }

  /// Number of configuration writes so far (diagnostics).
  int64_t config_writes() const { return config_writes_; }

  // --- Work plane -----------------------------------------------------

  /// Offers work to a hardware thread for subsequent slices. `profile`
  /// must outlive the machine or be replaced before destruction.
  void SetThreadLoad(HwThreadId thread, const WorkProfile* profile,
                     double intensity);
  void ClearThreadLoads();

  /// Drains the completed-operation credit of a thread accumulated since
  /// the last call (fluid execution model).
  double TakeCompletedOps(HwThreadId thread);
  /// The credit TakeCompletedOps would return now, without draining it.
  double PeekCompletedOps(HwThreadId thread) const {
    return ops_credit_[static_cast<size_t>(thread)];
  }
  /// Work currently offered to a thread (null profile: none).
  const ThreadLoad& thread_load(HwThreadId thread) const {
    return loads_[static_cast<size_t>(thread)];
  }

  /// Last solved completion rate (ops/s at intensity 1) of a thread.
  double CurrentRate(HwThreadId thread) const;

  // --- Observables ----------------------------------------------------

  uint64_t ReadRaplUj(SocketId socket, RaplDomain domain) const {
    rapl_reads_.Increment();
    if (rapl_dropout_) {
      return rapl_frozen_[static_cast<size_t>(socket) * kNumRaplDomains +
                          static_cast<size_t>(domain)];
    }
    return rapl_.ReadEnergyUj(socket, domain);
  }

  /// Fault hook (faultsim): while dropped out, the published RAPL reads
  /// freeze at their value at the dropout instant — the MSR interface
  /// returns stale counters, so software-side power deltas collapse to
  /// zero. Ground-truth energy integration (ExactEnergyJoules /
  /// TotalEnergyJoules) is unaffected: the hardware keeps drawing power,
  /// only the sensor went away.
  void SetRaplDropout(bool dropped);
  bool rapl_dropout() const { return rapl_dropout_; }
  double ExactEnergyJoules(SocketId socket, RaplDomain domain) const {
    return rapl_.ExactEnergyJoules(socket, domain);
  }
  /// Ground-truth cumulative energy over all sockets and domains (J).
  double TotalEnergyJoules() const;

  uint64_t ReadInstructions(HwThreadId thread) const {
    return counters_.ReadThread(thread);
  }
  uint64_t ReadSocketInstructions(SocketId socket) const {
    return counters_.ReadSocket(socket);
  }
  /// Cumulative instructions a socket's active threads retired *polling*
  /// empty message queues (the idle-spin share of ReadSocketInstructions).
  /// Software subtracts this from instruction deltas to estimate the rate
  /// of real work.
  uint64_t ReadSocketPolledInstructions(SocketId socket) const {
    return static_cast<uint64_t>(polled_instr_[static_cast<size_t>(socket)]);
  }

  /// Instantaneous modeled power of the last slice.
  double InstantPkgPowerW(SocketId socket) const;
  double InstantDramPowerW(SocketId socket) const;
  double InstantRaplPowerW() const;
  /// Modeled wall power (as an attached LMG450 would report).
  double InstantPsuPowerW() const;

  /// Solved DRAM bandwidth of the last slice, GB/s.
  double SocketBandwidthGbps(SocketId socket) const;

  /// Cumulative DRAM bytes transferred by a socket (integrated from the
  /// solved bandwidth, the software-visible analogue of the uncore CAS
  /// counters). Deltas over an interval give the memory-boundedness of
  /// the running work — a work-profile feature of the learned profile
  /// predictor.
  double ReadSocketDramBytes(SocketId socket) const {
    return dram_bytes_[static_cast<size_t>(socket)];
  }

  const PowerModel& power_model() const { return power_model_; }
  const BandwidthModel& bandwidth_model() const { return bandwidth_model_; }
  const PerfModel& perf_model() const { return perf_model_; }

  // --- Telemetry ------------------------------------------------------

  /// Registers the machine's observables with a telemetry context:
  /// per-socket power/bandwidth gauges, instruction and C-state residency
  /// counters, and one trace lane per socket (C-state residency spans and
  /// frequency-change instants). Call at most once, before running.
  /// Instrumentation without an attached context costs nothing beyond the
  /// always-on polled-instruction accumulation (two adds per slice).
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  void Advance(SimTime t0, SimTime t1);

  // --- Steady-state fast-forward (see docs/architecture.md) -----------
  //
  // A slice whose inputs match the previous slice's (no config write, load
  // change, or pending stall, and no firmware time boundary crossed) has a
  // bit-identical solution, so the expensive model solves are skipped and
  // only the per-slice accumulations are replayed. `FastForward` extends
  // this across whole multi-slice gaps for the Simulator.

  /// Re-solves firmware/perf/power for one slice and refreshes the cache.
  void SolveSlice(SimTime t0, SimTime t1);
  /// Replays the per-slice accumulations of a clean slice (bit-identical
  /// to SolveSlice with unchanged inputs and work_frac == 1).
  void IntegrateSlice(SimTime t0, SimTime t1);
  /// Stationarity horizon for the Simulator's fast-forward.
  SimTime StationaryUntil(SimTime now) const;
  /// Integrates (t0, t1] in `slice`-bounded steps using the cached solve.
  void FastForward(SimTime t0, SimTime t1, SimDuration slice);

  sim::Simulator* simulator_;
  MachineParams params_;
  PowerModel power_model_;
  BandwidthModel bandwidth_model_;
  PerfModel perf_model_;
  Firmware firmware_;
  RaplCounters rapl_;
  PerfCounters counters_;

  MachineConfig requested_;
  MachineConfig effective_;
  std::vector<ThreadLoad> loads_;
  std::vector<double> ops_credit_;
  std::vector<double> current_rate_;
  std::vector<PowerBreakdown> instant_power_;
  std::vector<double> instant_bandwidth_;
  /// Pending stall (from configuration writes) applied to the next slice.
  SimDuration pending_stall_ = 0;
  int64_t config_writes_ = 0;
  /// Per-socket time the socket last became idle (kSimTimeNever = active).
  std::vector<SimTime> idle_since_;
  /// Per-socket cumulative polled (idle-spin) instructions.
  std::vector<double> polled_instr_;
  /// Per-socket cumulative DRAM bytes (integrated solved bandwidth).
  std::vector<double> dram_bytes_;
  /// Per-socket polling rate of the cached solution (instr/s).
  std::vector<double> cached_poll_rate_;

  /// RAPL sensor dropout (fault hook): frozen published reads per
  /// socket x domain while rapl_dropout_ is set.
  bool rapl_dropout_ = false;
  std::vector<uint64_t> rapl_frozen_;

  // Telemetry (optional; nullptr = uninstrumented).
  telemetry::Telemetry* telemetry_ = nullptr;
  mutable telemetry::Counter rapl_reads_;
  std::vector<int> socket_lane_;        // trace lane per socket
  std::vector<int> cstate_;             // 0 = active, 1 = shallow, 2 = deep
  std::vector<SimTime> cstate_since_;   // start of the current residency
  std::vector<telemetry::Counter> residency_ns_;  // [socket * 3 + state]
  std::vector<double> last_uncore_ghz_;  // freq-change instant tracking

  /// True when control-/work-plane inputs changed since the last solve.
  bool dirty_ = true;
  /// True when `solved_`/`instant_power_` describe a stall-free slice with
  /// the current inputs.
  bool cache_valid_ = false;
  /// Earliest time the firmware or C-state tracking would change behaviour
  /// on its own; a slice starting at or after it must re-solve.
  SimTime next_boundary_ = 0;
  /// Last slice solution (also the reused solve output buffer).
  SolveResult solved_;
  /// Per-thread `ops_per_sec * intensity` of the cached solution.
  std::vector<double> cached_ops_rate_;
  /// Threads, ascending, whose cached `instr_per_sec` or
  /// `cached_ops_rate_` is non-zero: the only ones a replayed slice
  /// changes. Sleeping threads retire nothing and are left out.
  std::vector<HwThreadId> integrate_threads_;
  // Scratch hoisted out of the per-slice path.
  std::vector<bool> socket_busy_scratch_;
  std::vector<double> socket_scale_scratch_;
};

}  // namespace ecldb::hwsim

#endif  // ECLDB_HWSIM_MACHINE_H_
