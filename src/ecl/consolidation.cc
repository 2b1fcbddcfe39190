#include "ecl/consolidation.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ecldb::ecl {

ConsolidationPolicy::ConsolidationPolicy(sim::Simulator* simulator,
                                         ConsolidationScope scope)
    : simulator_(simulator), scope_(std::move(scope)) {
  ECLDB_CHECK(simulator != nullptr && scope_.placement != nullptr);
  ECLDB_CHECK(scope_.load != nullptr && scope_.pressure != nullptr &&
              scope_.start_migration != nullptr &&
              scope_.spread_trigger != nullptr);
  ECLDB_CHECK(scope_.interval > 0);
  if (telemetry::Telemetry* tel = scope_.telemetry; tel != nullptr) {
    const std::string name = scope_.name;
    telemetry::MetricRegistry& reg = tel->registry();
    reg.AddCounterFn(name + "/ticks", [this] { return ticks_; });
    reg.AddCounterFn(name + "/consolidation_moves",
                     [this] { return consolidation_moves_; });
    reg.AddCounterFn(name + "/spread_moves", [this] { return spread_moves_; });
    trace_lane_ = tel->trace().RegisterLane(name);
  }
}

void ConsolidationPolicy::Start() {
  running_ = true;
  // Offset from the socket ECL ticks (which start at t+1ns) so a tick
  // observes the performance levels of a finished control interval.
  simulator_->ScheduleAfter(scope_.interval, [this] { Tick(); });
}

bool ConsolidationPolicy::Serves(int unit) const {
  return scope_.serves == nullptr || scope_.serves(unit);
}

void ConsolidationPolicy::Tick() {
  if (!running_) return;
  ++ticks_;
  const int64_t done = scope_.placement->completed_migrations();
  if (done != last_completed_seen_) {
    last_completed_seen_ = done;
    last_migration_time_ = simulator_->now();
  }
  const double pressure = scope_.pressure();
  const bool skip = scope_.before != nullptr && scope_.before(pressure);
  // One batch of migrations at a time: placement decisions are made on
  // post-migration load observations, not on projections of projections.
  if (!skip && scope_.placement->migrating_count() == 0) {
    // Post-migration dwell: a placement change perturbs latency until the
    // receiving ECL re-sizes, so reversing direction on that transient
    // flaps. The dwell gates reversals only — continuing in the same
    // direction (the next batch of a staged consolidation or spread) is
    // always allowed.
    const bool holding =
        last_migration_time_ >= 0 &&
        simulator_->now() - last_migration_time_ < scope_.post_migration_hold;
    const bool spread_gated =
        holding && last_direction_ == Direction::kConsolidate;
    const bool consolidate_gated =
        holding && last_direction_ == Direction::kSpread;
    if (scope_.spread_trigger(pressure, spread_gated)) {
      Spread();
    } else if (!consolidate_gated && pressure <= kConsolidatePressureMax) {
      Consolidate();
    }
    if (scope_.after != nullptr) scope_.after(pressure);
  }
  simulator_->ScheduleAfter(scope_.interval, [this] { Tick(); });
}

void ConsolidationPolicy::Consolidate() {
  engine::PlacementMap& placement = *scope_.placement;
  const int units = placement.num_sockets();

  // Donor: the least-loaded serving unit still homing partitions;
  // receiver: the most-loaded other one (packing into the busiest empties
  // the donor with the fewest moves). Ties resolve to the lower id — all
  // loads are deterministic simulation outputs.
  int donor = -1, receiver = -1;
  double donor_load = 0.0, receiver_load = 0.0;
  int populated = 0;
  for (int u = 0; u < units; ++u) {
    if (!Serves(u) || placement.PartitionsOn(u) == 0) continue;
    ++populated;
    const double load = scope_.load(u);
    if (donor == -1 || load < donor_load) {
      donor = u;
      donor_load = load;
    }
  }
  if (populated < 2) return;
  for (int u = 0; u < units; ++u) {
    if (u == donor || !Serves(u) || placement.PartitionsOn(u) == 0) continue;
    const double load = scope_.load(u);
    if (receiver == -1 || load > receiver_load) {
      receiver = u;
      receiver_load = load;
    }
  }
  if (donor_load > kDonorLoadMax) return;
  if (receiver_load + donor_load > kTargetLoadCeiling) return;

  const std::vector<PartitionId> parts = placement.PartitionsOf(donor);
  const int moves = std::min<int>(scope_.migrations_per_tick,
                                  static_cast<int>(parts.size()));
  int started = 0;
  for (int i = 0; i < moves; ++i) {
    if (scope_.start_migration(parts[static_cast<size_t>(i)], receiver)) {
      ++consolidation_moves_;
      last_direction_ = Direction::kConsolidate;
      ++started;
    }
  }
  if (started > 0 && scope_.telemetry != nullptr) {
    scope_.telemetry->trace().Instant(
        trace_lane_, scope_.category, "consolidate_batch", simulator_->now(),
        "\"donor\":" + std::to_string(donor) +
            ",\"receiver\":" + std::to_string(receiver) +
            ",\"migrations\":" + std::to_string(started));
  }
}

void ConsolidationPolicy::Spread() {
  engine::PlacementMap& placement = *scope_.placement;
  const int units = placement.num_sockets();

  // Restore capacity: push partitions from the fullest serving unit onto
  // the emptiest one (at node scope typically one just woken, holding
  // nothing), preferring partitions whose initial home was the
  // destination (converging back to the constructed placement).
  int src = -1, dst = -1;
  for (int u = 0; u < units; ++u) {
    if (!Serves(u)) continue;
    if (src == -1 || placement.PartitionsOn(u) > placement.PartitionsOn(src)) {
      src = u;
    }
    if (dst == -1 || placement.PartitionsOn(u) < placement.PartitionsOn(dst)) {
      dst = u;
    }
  }
  if (src == dst ||
      placement.PartitionsOn(src) - placement.PartitionsOn(dst) < 2) {
    return;
  }

  std::vector<PartitionId> candidates = placement.PartitionsOf(src);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](PartitionId a, PartitionId b) {
                     return (placement.InitialHomeOf(a) == dst) >
                            (placement.InitialHomeOf(b) == dst);
                   });
  const int gap = placement.PartitionsOn(src) - placement.PartitionsOn(dst);
  const int moves =
      std::min<int>({scope_.spread_migrations_per_tick, gap / 2,
                     static_cast<int>(candidates.size())});
  int started = 0;
  for (int i = 0; i < moves; ++i) {
    if (scope_.start_migration(candidates[static_cast<size_t>(i)], dst)) {
      ++spread_moves_;
      last_direction_ = Direction::kSpread;
      ++started;
    }
  }
  if (started > 0 && scope_.telemetry != nullptr) {
    scope_.telemetry->trace().Instant(
        trace_lane_, scope_.category, "spread_batch", simulator_->now(),
        "\"src\":" + std::to_string(src) + ",\"dst\":" + std::to_string(dst) +
            ",\"migrations\":" + std::to_string(started));
  }
}

ConsolidationScope SocketScope(engine::Engine* engine,
                               std::function<double(SocketId)> load,
                               std::function<double()> pressure,
                               telemetry::Telemetry* telemetry) {
  ECLDB_CHECK(engine != nullptr);
  ConsolidationScope scope;
  scope.placement = &engine->placement();
  scope.load = std::move(load);
  scope.pressure = std::move(pressure);
  scope.start_migration = [engine](PartitionId p, int to) {
    return engine->migrator().StartMigration(p, to);
  };
  scope.interval = kSocketInterval;
  scope.migrations_per_tick = kSocketMigrationsPerTick;
  scope.spread_migrations_per_tick = kSocketSpreadMigrationsPerTick;
  scope.post_migration_hold = kSocketPostMigrationHold;
  scope.spread_trigger = [](double pressure, bool gated) {
    return pressure >= kSocketSpreadPressureHard ||
           (!gated && pressure >= kSocketSpreadPressureMin);
  };
  scope.telemetry = telemetry;
  scope.name = "ecl/consolidation";
  scope.category = "ecl";
  return scope;
}

}  // namespace ecldb::ecl
