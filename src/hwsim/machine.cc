#include "hwsim/machine.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace ecldb::hwsim {

Machine::Machine(sim::Simulator* simulator, const MachineParams& params)
    : simulator_(simulator),
      params_(params),
      power_model_(params.topology, params.power),
      bandwidth_model_(params.bandwidth),
      perf_model_(params.topology, bandwidth_model_, params.perf),
      firmware_(params.topology, params.freqs, params.firmware),
      rapl_(params.topology.num_sockets, params.rapl),
      counters_(params.topology),
      requested_(MachineConfig::Idle(params.topology)),
      effective_(requested_),
      loads_(static_cast<size_t>(params.topology.total_threads())),
      ops_credit_(static_cast<size_t>(params.topology.total_threads()), 0.0),
      current_rate_(static_cast<size_t>(params.topology.total_threads()), 0.0),
      instant_power_(static_cast<size_t>(params.topology.num_sockets)),
      instant_bandwidth_(static_cast<size_t>(params.topology.num_sockets), 0.0),
      idle_since_(static_cast<size_t>(params.topology.num_sockets), 0),
      polled_instr_(static_cast<size_t>(params.topology.num_sockets), 0.0),
      dram_bytes_(static_cast<size_t>(params.topology.num_sockets), 0.0),
      cached_poll_rate_(static_cast<size_t>(params.topology.num_sockets), 0.0),
      cached_ops_rate_(static_cast<size_t>(params.topology.total_threads()), 0.0),
      socket_busy_scratch_(static_cast<size_t>(params.topology.num_sockets), false),
      socket_scale_scratch_(static_cast<size_t>(params.topology.num_sockets), 1.0) {
  ECLDB_CHECK(simulator_ != nullptr);
  integrate_threads_.reserve(static_cast<size_t>(params.topology.total_threads()));
  sim::Advancer advancer;
  advancer.advance = [this](SimTime t0, SimTime t1) { Advance(t0, t1); };
  advancer.stationary_until = [this](SimTime now) { return StationaryUntil(now); };
  advancer.fast_forward = [this](SimTime t0, SimTime t1, SimDuration slice) {
    FastForward(t0, t1, slice);
  };
  simulator_->RegisterAdvancer(std::move(advancer));
}

void Machine::ApplySocketConfig(SocketId socket, SocketConfig config) {
  ECLDB_CHECK(static_cast<int>(config.thread_active.size()) ==
              params_.topology.threads_per_socket());
  ECLDB_CHECK(static_cast<int>(config.core_freq_ghz.size()) ==
              params_.topology.cores_per_socket);
  config.SnapToTable(params_.freqs);
  firmware_.NotifyConfigWrite(socket, config, simulator_->now());
  requested_.sockets[static_cast<size_t>(socket)] = std::move(config);
  pending_stall_ += params_.config_apply_latency;
  ++config_writes_;
  dirty_ = true;
}

void Machine::ApplyMachineConfig(const MachineConfig& config) {
  ECLDB_CHECK(static_cast<int>(config.sockets.size()) ==
              params_.topology.num_sockets);
  for (SocketId s = 0; s < params_.topology.num_sockets; ++s) {
    ApplySocketConfig(s, config.sockets[static_cast<size_t>(s)]);
  }
}

void Machine::SetThreadLoad(HwThreadId thread, const WorkProfile* profile,
                            double intensity) {
  ECLDB_DCHECK(thread >= 0 && thread < params_.topology.total_threads());
  const double clamped = std::clamp(intensity, 0.0, 1.0);
  ThreadLoad& cur = loads_[static_cast<size_t>(thread)];
  // The scheduler re-offers unchanged loads every slice; only actual
  // changes invalidate the cached solution.
  if (cur.profile == profile && cur.intensity == clamped) return;
  cur = ThreadLoad{profile, clamped};
  dirty_ = true;
}

void Machine::ClearThreadLoads() {
  for (ThreadLoad& l : loads_) {
    if (l.profile != nullptr || l.intensity != 0.0) dirty_ = true;
    l = ThreadLoad{};
  }
}

double Machine::TakeCompletedOps(HwThreadId thread) {
  double& credit = ops_credit_[static_cast<size_t>(thread)];
  const double taken = credit;
  credit = 0.0;
  return taken;
}

double Machine::CurrentRate(HwThreadId thread) const {
  return current_rate_[static_cast<size_t>(thread)];
}

double Machine::TotalEnergyJoules() const {
  double sum = 0.0;
  for (SocketId s = 0; s < params_.topology.num_sockets; ++s) {
    sum += rapl_.ExactEnergyJoules(s, RaplDomain::kPackage);
    sum += rapl_.ExactEnergyJoules(s, RaplDomain::kDram);
  }
  return sum;
}

void Machine::SetRaplDropout(bool dropped) {
  if (dropped == rapl_dropout_) return;
  if (dropped) {
    // Snapshot the published counters: every read during the dropout
    // returns these frozen values (deltas over the outage are zero).
    const int sockets = params_.topology.num_sockets;
    rapl_frozen_.assign(static_cast<size_t>(sockets) * kNumRaplDomains, 0);
    for (SocketId s = 0; s < sockets; ++s) {
      for (int d = 0; d < kNumRaplDomains; ++d) {
        rapl_frozen_[static_cast<size_t>(s) * kNumRaplDomains +
                     static_cast<size_t>(d)] =
            rapl_.ReadEnergyUj(s, static_cast<RaplDomain>(d));
      }
    }
  }
  rapl_dropout_ = dropped;
}

double Machine::InstantPkgPowerW(SocketId socket) const {
  return instant_power_[static_cast<size_t>(socket)].pkg_w;
}

double Machine::InstantDramPowerW(SocketId socket) const {
  return instant_power_[static_cast<size_t>(socket)].dram_w;
}

double Machine::InstantRaplPowerW() const {
  double sum = 0.0;
  for (const PowerBreakdown& p : instant_power_) sum += p.total();
  return sum;
}

double Machine::InstantPsuPowerW() const {
  return power_model_.PsuPowerW(InstantRaplPowerW());
}

double Machine::SocketBandwidthGbps(SocketId socket) const {
  return instant_bandwidth_[static_cast<size_t>(socket)];
}

namespace {
const char* const kCstateName[] = {"active", "shallow_idle", "deep_idle"};
}  // namespace

void Machine::AttachTelemetry(telemetry::Telemetry* telemetry) {
  ECLDB_CHECK(telemetry != nullptr);
  ECLDB_CHECK(telemetry_ == nullptr);
  telemetry_ = telemetry;
  telemetry::MetricRegistry& reg = telemetry->registry();
  const int n = params_.topology.num_sockets;

  rapl_reads_ = reg.AddCounter("hwsim/rapl_reads");
  reg.AddCounterFn("hwsim/config_writes", [this] { return config_writes_; });

  socket_lane_.assign(static_cast<size_t>(n), 0);
  cstate_.assign(static_cast<size_t>(n), 0);
  cstate_since_.assign(static_cast<size_t>(n), telemetry->now());
  residency_ns_.assign(static_cast<size_t>(n) * 3, telemetry::Counter());
  last_uncore_ghz_.assign(static_cast<size_t>(n), -1.0);

  for (SocketId s = 0; s < n; ++s) {
    const std::string base = "hwsim/socket" + std::to_string(s) + "/";
    reg.AddGauge(base + "pkg_power_w", [this, s] { return InstantPkgPowerW(s); });
    reg.AddGauge(base + "dram_power_w",
                 [this, s] { return InstantDramPowerW(s); });
    reg.AddGauge(base + "bandwidth_gbps",
                 [this, s] { return SocketBandwidthGbps(s); });
    reg.AddCounterFn(base + "instructions", [this, s] {
      return static_cast<int64_t>(counters_.ReadSocket(s));
    });
    reg.AddCounterFn(base + "polled_instructions", [this, s] {
      return static_cast<int64_t>(ReadSocketPolledInstructions(s));
    });
    for (int st = 0; st < 3; ++st) {
      residency_ns_[static_cast<size_t>(s) * 3 + static_cast<size_t>(st)] =
          reg.AddCounter(base + "residency_" + kCstateName[st] + "_ns");
    }
    socket_lane_[static_cast<size_t>(s)] =
        telemetry->trace().RegisterLane("hwsim/socket" + std::to_string(s));
  }
}

void Machine::Advance(SimTime t0, SimTime t1) {
  // A slice whose inputs are unchanged since the cached solve, that has no
  // pending stall, and that starts before the next firmware/C-state time
  // boundary replays the cached solution bit-identically.
  if (!dirty_ && cache_valid_ && pending_stall_ == 0 && t0 < next_boundary_) {
    IntegrateSlice(t0, t1);
    return;
  }
  SolveSlice(t0, t1);
}

SimTime Machine::StationaryUntil(SimTime now) const {
  if (dirty_ || !cache_valid_ || pending_stall_ > 0) return now;
  return next_boundary_;
}

void Machine::FastForward(SimTime t0, SimTime t1, SimDuration slice) {
  ECLDB_DCHECK(!dirty_ && cache_valid_ && pending_stall_ == 0);
  SimTime cur = t0;
  while (cur < t1) {
    const SimTime end = std::min(t1, cur + slice);
    IntegrateSlice(cur, end);
    cur = end;
  }
}

void Machine::IntegrateSlice(SimTime t0, SimTime t1) {
  const SimDuration dt = t1 - t0;
  ECLDB_DCHECK(dt > 0);
  const Topology& topo = params_.topology;
  const double dt_s = ToSeconds(dt);

  firmware_.AdvanceBudget(dt);
  for (SocketId s = 0; s < topo.num_sockets; ++s) {
    const auto idx = static_cast<size_t>(s);
    const PowerBreakdown& p = instant_power_[idx];
    rapl_.AddEnergy(s, RaplDomain::kPackage, p.pkg_w * dt_s, t0, t1);
    rapl_.AddEnergy(s, RaplDomain::kDram, p.dram_w * dt_s, t0, t1);
    // Mirrors SolveSlice's `poll_sum * dt_s * work_frac` with the cached
    // per-socket sum and work_frac == 1 — bit-identical accumulation.
    polled_instr_[idx] += cached_poll_rate_[idx] * dt_s;
    // Mirrors SolveSlice's bandwidth integration with the cached
    // (work_frac-scaled) bandwidth — bit-identical for a clean slice.
    dram_bytes_[idx] += instant_bandwidth_[idx] * 1e9 * dt_s;
  }
  // Threads outside `integrate_threads_` would add 0.0 to non-negative
  // sums, which changes nothing, so only the running ones are visited.
  for (const HwThreadId t : integrate_threads_) {
    const auto idx = static_cast<size_t>(t);
    counters_.AddInstructions(t, solved_.threads[idx].instr_per_sec * dt_s);
    const ThreadLoad& l = loads_[idx];
    if (l.profile != nullptr && l.intensity > 0.0) {
      ops_credit_[idx] += cached_ops_rate_[idx] * dt_s;
    }
  }
}

void Machine::SolveSlice(SimTime t0, SimTime t1) {
  const SimDuration dt = t1 - t0;
  ECLDB_DCHECK(dt > 0);
  const Topology& topo = params_.topology;

  // Which sockets currently have work offered (drives auto-UFS) and what
  // dynamic-power scale the mix has (drives the thermal turbo budget).
  std::vector<bool>& socket_busy = socket_busy_scratch_;
  std::vector<double>& socket_scale = socket_scale_scratch_;
  socket_busy.assign(static_cast<size_t>(topo.num_sockets), false);
  socket_scale.assign(static_cast<size_t>(topo.num_sockets), 1.0);
  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    const ThreadLoad& l = loads_[static_cast<size_t>(t)];
    if (l.profile != nullptr && l.intensity > 0.0) {
      const auto s = static_cast<size_t>(topo.SocketOfThread(t));
      socket_busy[s] = true;
      socket_scale[s] = std::max(socket_scale[s], l.profile->power_scale);
    }
  }

  firmware_.Resolve(requested_, socket_busy, socket_scale, t0, dt, &effective_);
  perf_model_.Solve(effective_, loads_, &solved_);
  const SolveResult& solved = solved_;

  // Configuration-write stall: a fraction of this slice is lost to P-/C-
  // state transitions (microseconds on real hardware). At most half of a
  // slice stalls; the remainder carries over to subsequent slices.
  const SimDuration stall_now =
      std::min(pending_stall_, static_cast<SimDuration>(dt / 2));
  const double stall_frac =
      static_cast<double>(stall_now) / static_cast<double>(dt);
  pending_stall_ -= stall_now;
  const double work_frac = 1.0 - stall_frac;
  const double dt_s = ToSeconds(dt);

  const bool machine_idle = requested_.AllIdle();
  for (SocketId s = 0; s < topo.num_sockets; ++s) {
    const auto idx = static_cast<size_t>(s);
    // C-state depth tracking: a socket reaches the deep state only after
    // c6_promotion of uninterrupted idleness.
    const bool socket_idle = !requested_.sockets[idx].AnyActive();
    if (!socket_idle) {
      idle_since_[idx] = kSimTimeNever;
    } else if (idle_since_[idx] == kSimTimeNever) {
      idle_since_[idx] = t0;
    }
    SocketActivity act;
    act.busy_fraction = solved.socket_busy_fraction[idx] * work_frac;
    act.bandwidth_gbps = solved.socket_bandwidth_gbps[idx] * work_frac;
    act.power_scale = solved.socket_power_scale[idx];
    act.uncore_halted = machine_idle;
    act.shallow_idle = socket_idle && (t0 - idle_since_[idx] < params_.c6_promotion);
    const PowerBreakdown p =
        power_model_.SocketPower(s, effective_.sockets[idx], act);
    instant_power_[idx] = p;
    instant_bandwidth_[idx] = act.bandwidth_gbps;
    dram_bytes_[idx] += act.bandwidth_gbps * 1e9 * dt_s;
    rapl_.AddEnergy(s, RaplDomain::kPackage, p.pkg_w * dt_s, t0, t1);
    rapl_.AddEnergy(s, RaplDomain::kDram, p.dram_w * dt_s, t0, t1);

    if (telemetry_ != nullptr) {
      // C-state residency: close the previous period on a depth change.
      const int state = socket_idle ? (act.shallow_idle ? 1 : 2) : 0;
      if (state != cstate_[idx]) {
        const int prev = cstate_[idx];
        residency_ns_[idx * 3 + static_cast<size_t>(prev)].Add(
            t0 - cstate_since_[idx]);
        telemetry_->trace().Span(socket_lane_[idx], "hwsim", kCstateName[prev],
                                 cstate_since_[idx], t0);
        cstate_[idx] = state;
        cstate_since_[idx] = t0;
      }
      const double unc = effective_.sockets[idx].uncore_freq_ghz;
      if (unc != last_uncore_ghz_[idx]) {
        telemetry_->trace().Instant(
            socket_lane_[idx], "hwsim", "uncore_freq_change", t0,
            "\"uncore_ghz\":" + telemetry::JsonNumber(unc));
        last_uncore_ghz_[idx] = unc;
      }
    }
  }

  std::fill(cached_poll_rate_.begin(), cached_poll_rate_.end(), 0.0);
  integrate_threads_.clear();
  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    const auto idx = static_cast<size_t>(t);
    const ThreadRate& r = solved.threads[idx];
    counters_.AddInstructions(t, r.instr_per_sec * dt_s * work_frac);
    cached_poll_rate_[static_cast<size_t>(topo.SocketOfThread(t))] +=
        r.poll_instr_per_sec;
    current_rate_[idx] = r.ops_per_sec;
    const ThreadLoad& l = loads_[idx];
    if (l.profile != nullptr && l.intensity > 0.0) {
      ops_credit_[idx] += r.ops_per_sec * l.intensity * dt_s * work_frac;
      cached_ops_rate_[idx] = r.ops_per_sec * l.intensity;
    } else {
      cached_ops_rate_[idx] = 0.0;
    }
    if (r.instr_per_sec != 0.0 || cached_ops_rate_[idx] != 0.0) {
      integrate_threads_.push_back(t);
    }
  }
  for (SocketId s = 0; s < topo.num_sockets; ++s) {
    polled_instr_[static_cast<size_t>(s)] +=
        cached_poll_rate_[static_cast<size_t>(s)] * dt_s * work_frac;
  }

  // Refresh the steady-state cache: the just-solved slice describes every
  // following slice until an input changes or a time boundary is reached.
  dirty_ = false;
  cache_valid_ = (stall_frac == 0.0);
  SimTime boundary = firmware_.next_change();
  for (SocketId s = 0; s < topo.num_sockets; ++s) {
    const auto idx = static_cast<size_t>(s);
    if (idle_since_[idx] != kSimTimeNever &&
        t0 - idle_since_[idx] < params_.c6_promotion) {
      boundary = std::min(boundary, idle_since_[idx] + params_.c6_promotion);
    }
  }
  next_boundary_ = boundary;
}

}  // namespace ecldb::hwsim
