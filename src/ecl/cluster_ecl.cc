#include "ecl/cluster_ecl.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace ecldb::ecl {

ClusterEcl::ClusterEcl(sim::Simulator* simulator,
                       engine::ClusterEngine* engine, LoadFn load,
                       PressureFn pressure, const ClusterEclParams& params)
    : simulator_(simulator),
      engine_(engine),
      pressure_(std::move(pressure)),
      params_(params),
      policy_(simulator, NodeScope(std::move(load))) {
  ECLDB_CHECK(pressure_ != nullptr);
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn("cluster/ecl/power_downs",
                     [this] { return power_downs_; });
    reg.AddCounterFn("cluster/ecl/wakes", [this] { return wakes_; });
  }
}

ConsolidationScope ClusterEcl::NodeScope(LoadFn load) {
  ECLDB_CHECK(engine_ != nullptr);
  ConsolidationScope scope;
  scope.placement = &engine_->placement();
  scope.serves = [this](NodeId n) { return engine_->cluster().IsOn(n); };
  scope.load = std::move(load);
  scope.pressure = [this] { return ClusterPressure(); };
  scope.start_migration = [this](PartitionId p, NodeId to) {
    return engine_->StartMigration(p, to);
  };
  scope.interval = params_.interval;
  scope.migrations_per_tick = params_.migrations_per_tick;
  scope.spread_migrations_per_tick = params_.spread_migrations_per_tick;
  scope.post_migration_hold = params_.post_migration_hold;
  // No hard-pressure override: hard pressure is the wake path's, which
  // runs first.
  scope.spread_trigger = [](double pressure, bool gated) {
    return !gated && pressure >= kWakePressureMin;
  };
  scope.before = [this](double pressure) { return TryWake(pressure); };
  // A drained node powers down whenever pressure sits below the spread
  // threshold — spread is the only thing that would repopulate it, so
  // gating on the tighter consolidation threshold would strand empty
  // nodes at full platform power once the receiver's pressure rises past
  // it.
  scope.after = [this](double pressure) {
    if (pressure < kWakePressureMin) MaybePowerDown();
  };
  scope.telemetry = params_.telemetry;
  scope.name = "cluster/ecl";
  scope.category = "cluster";
  return scope;
}

void ClusterEcl::SetNodeHooks(NodeHook on_power_down, NodeHook on_booted) {
  on_power_down_ = std::move(on_power_down);
  on_booted_ = std::move(on_booted);
}

double ClusterEcl::ClusterPressure() const {
  hwsim::Cluster& cluster = engine_->cluster();
  double p = 0.0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.IsOn(n)) p = std::max(p, pressure_(n));
  }
  return p;
}

bool ClusterEcl::TryWake(double pressure) {
  hwsim::Cluster& cluster = engine_->cluster();
  // Stranded backlog: work that shipped toward a node which powered down
  // before the pressure signal reflects it sits in that node's queues
  // with no engine serving them. Backlog on ON nodes is just queueing —
  // the pressure signal covers it — and must not count, or any standing
  // queue would instantly undo every power-down.
  double backlog = 0.0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.IsOn(n)) backlog += engine_->BacklogOps(n);
  }
  const bool hard = pressure >= kWakePressureHard;
  const bool wanted = hard || pressure >= kWakePressureMin ||
                      backlog >= params_.wake_backlog_ops;
  if (!wanted) return false;
  // A boot already in flight is the wake in progress; only hard pressure
  // stacks another node on top of it.
  if (!hard) {
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      if (cluster.state(n) == hwsim::Cluster::NodeState::kBooting) {
        return false;
      }
    }
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.state(n) != hwsim::Cluster::NodeState::kOff) continue;
    // Crashed hardware is not spare capacity: waking it would burn a boot
    // and give nothing back. The wake hysteresis only sees healthy nodes.
    if (cluster.IsFailed(n)) continue;
    ++wakes_;
    if (params_.telemetry != nullptr) {
      params_.telemetry->trace().Instant(
          policy_.trace_lane(), "cluster", "wake", simulator_->now(),
          "\"node\":" + std::to_string(n) +
              ",\"pressure\":" + telemetry::JsonNumber(pressure) +
              ",\"backlog\":" + telemetry::JsonNumber(backlog));
    }
    cluster.PowerUp(n, [this, n] {
      if (on_booted_ != nullptr) on_booted_(n);
    });
    return true;
  }
  return false;
}

void ClusterEcl::MaybePowerDown() {
  hwsim::Cluster& cluster = engine_->cluster();
  engine::PlacementMap& placement = engine_->placement();
  if (cluster.NodesOn() <= kMinNodesOn) return;
  // Crash recovery in progress: survivors are absorbing re-homed
  // partitions and retries; do not shrink capacity into that transient.
  if (cluster.last_crash_time() >= 0 &&
      simulator_->now() - cluster.last_crash_time() < kCrashRecoveryHold) {
    return;
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.IsFailed(n)) return;
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.IsOn(n)) continue;
    if (placement.PartitionsOn(n) != 0) continue;
    if (engine_->NodeInvolvedInMigration(n)) continue;
    // The fluid scheduler can leave a sub-operation float residue in a
    // drained queue; anything below one operation is numerical noise, not
    // pending work.
    if (engine_->BacklogOps(n) >= 1.0) continue;
    // Boot-amortisation half of the hysteresis: a node that just booted
    // must stay on long enough that the boot energy was not wasted.
    if (simulator_->now() - cluster.StateSince(n) < params_.min_on_time) {
      continue;
    }
    if (on_power_down_ != nullptr) on_power_down_(n);
    cluster.PowerDown(n);
    ++power_downs_;
    if (params_.telemetry != nullptr) {
      params_.telemetry->trace().Instant(
          policy_.trace_lane(), "cluster", "power_down", simulator_->now(),
          "\"node\":" + std::to_string(n));
    }
    return;  // at most one power-down per tick
  }
}

}  // namespace ecldb::ecl
