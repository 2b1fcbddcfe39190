#ifndef ECLDB_ECL_CLUSTER_ECL_H_
#define ECLDB_ECL_CLUSTER_ECL_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "ecl/consolidation.h"
#include "engine/cluster_engine.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::ecl {

/// Wake an off node at this pressure; the node scope also spreads from
/// here on. Deliberately BELOW the socket-scope spread threshold (0.5):
/// new capacity arrives a whole boot latency after the decision, so the
/// wake must lead the pressure ramp instead of reacting to it — the
/// boot-latency-aware half of the hysteresis.
inline constexpr double kWakePressureMin = 0.35;
/// At or above this pressure a wake fires even while another node boots.
inline constexpr double kWakePressureHard = 0.9;
/// Never power below this many nodes.
inline constexpr int kMinNodesOn = 1;
/// After a node crash (hwsim::Cluster::Crash), hold all policy power-downs
/// this long: the survivors are absorbing the re-homed partitions and the
/// retrying crowd, and shrinking capacity into that transient turns a
/// fault into an overload. Failed nodes themselves are never wake
/// candidates until the fault schedule clears them.
inline constexpr SimDuration kCrashRecoveryHold = Seconds(30);

struct ClusterEclParams {
  /// Master switch; default off so single-node runs are byte-identical.
  bool enabled = false;
  /// Policy tick interval. Slower than the socket-scope cadence: node
  /// transitions cost tens of seconds, so the policy reacts at a matching
  /// timescale.
  SimDuration interval = Seconds(2);
  /// Node-scope migrations started per tick (staged, like the socket
  /// scope, so receiving ECLs re-size between batches).
  int migrations_per_tick = 4;
  /// Spread migrations per tick once a woken node is serving-capable.
  int spread_migrations_per_tick = 8;
  /// Fluid backlog on any node that also triggers a wake (covers work
  /// shipped to a node that powered down before the pressure signal
  /// reflects it).
  double wake_backlog_ops = 1e6;
  /// A node must have been ON at least this long before it may power
  /// down again — the other half of the hysteresis: a boot costs
  /// boot_power x boot_latency up front, so short on/off cycles burn
  /// more than they save (see CalibrateNodeTransition::break_even_off_s).
  SimDuration min_on_time = Seconds(60);
  /// After any node-scope migration completes, hold placement reversals
  /// this long (the socket scope's dwell, scaled up).
  SimDuration post_migration_hold = Seconds(30);
  /// Optional telemetry: tick/move counters plus instants for each
  /// batch and power-down/wake decision on a "cluster/ecl" lane.
  telemetry::Telemetry* telemetry = nullptr;
};

/// The cluster tier of the ECL hierarchy: the ConsolidationPolicy at node
/// scope (only ON nodes serve; migrations cross the network through the
/// ClusterEngine), plus what only nodes have. Once a node is drained (no
/// partitions, no backlog, no migration touching it) it powers down,
/// eliminating the platform overhead that package sleep cannot reach.
/// Rising pressure or backlog wakes an off node — early, because capacity
/// arrives a boot latency late — and the policy spreads partitions back
/// onto it once it is serving-capable.
///
/// The policy only reads node-scope signals (per-node pressure/load fed
/// in as callbacks, cluster placement, fluid backlog); the per-node
/// EnergyControlLoops keep running their own socket/system tiers
/// unchanged underneath.
class ClusterEcl {
 public:
  /// Relative load of a node in [0, 1] (0 for off nodes).
  using LoadFn = std::function<double(NodeId)>;
  /// Latency pressure of a node's system ECL in [0, 1].
  using PressureFn = std::function<double(NodeId)>;
  /// Node lifecycle hook (stop a node's ECL before power-down, restart
  /// it when the node has booted).
  using NodeHook = std::function<void(NodeId)>;

  ClusterEcl(sim::Simulator* simulator, engine::ClusterEngine* engine,
             LoadFn load, PressureFn pressure, const ClusterEclParams& params);

  ClusterEcl(const ClusterEcl&) = delete;
  ClusterEcl& operator=(const ClusterEcl&) = delete;

  /// Hooks run synchronously: `on_power_down` just before a node powers
  /// down, `on_booted` when a woken node reaches kOn.
  void SetNodeHooks(NodeHook on_power_down, NodeHook on_booted);

  void Start() { policy_.Start(); }
  void Stop() { policy_.Stop(); }

  int64_t ticks() const { return policy_.ticks(); }
  int64_t consolidation_moves() const { return policy_.consolidation_moves(); }
  int64_t spread_moves() const { return policy_.spread_moves(); }
  int64_t power_downs() const { return power_downs_; }
  int64_t wakes() const { return wakes_; }

 private:
  ConsolidationScope NodeScope(LoadFn load);
  /// Max pressure over ON nodes (off/booting nodes serve nothing).
  double ClusterPressure() const;
  /// Wakes run before the placement decision, every tick: capacity
  /// arrives a boot latency late, so deferring a needed wake behind
  /// migration settling would double the reaction time.
  bool TryWake(double pressure);
  void MaybePowerDown();

  sim::Simulator* simulator_;
  engine::ClusterEngine* engine_;
  PressureFn pressure_;
  ClusterEclParams params_;
  NodeHook on_power_down_;
  NodeHook on_booted_;
  int64_t power_downs_ = 0;
  int64_t wakes_ = 0;
  ConsolidationPolicy policy_;
};

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_CLUSTER_ECL_H_
