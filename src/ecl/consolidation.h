#ifndef ECLDB_ECL_CONSOLIDATION_H_
#define ECLDB_ECL_CONSOLIDATION_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "engine/engine.h"
#include "engine/placement.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace ecldb::ecl {

/// Load gates shared by every scope. Consolidate only while latency
/// pressure is at or below kConsolidatePressureMax, only from a donor at
/// or below kDonorLoadMax, and only while the receiver's projected load
/// (its own plus the donor's) stays at or below kTargetLoadCeiling.
inline constexpr double kConsolidatePressureMax = 0.15;
inline constexpr double kDonorLoadMax = 0.45;
inline constexpr double kTargetLoadCeiling = 0.6;

/// Socket-scope cadence (the system-level tick).
inline constexpr SimDuration kSocketInterval = Seconds(1);
/// Socket scope spreads partitions back as soon as pressure reaches this.
/// It sits above the pressure band of normal low-load operation (RTI
/// batching alone produces window means of ~0.3-0.45x the limit) or the
/// policy oscillates, yet far enough below 1.0 that capacity is restored
/// before the limit is actually violated.
inline constexpr double kSocketSpreadPressureMin = 0.5;
/// The dwell does not gamble with the latency limit: at or above this
/// pressure the socket scope spreads immediately regardless of the hold.
inline constexpr double kSocketSpreadPressureHard = 0.9;
/// Socket-scope migrations per consolidate tick. Staged small on purpose:
/// the receiver's reactive ECL re-sizes between batches, so absorbing the
/// donor a few partitions at a time never spikes latency the way
/// rehoming a whole socket at once does. (The donor's tail partitions are
/// protected from the shrinking duty cycle by the backlog wake.)
inline constexpr int kSocketMigrationsPerTick = 4;
/// Socket-scope migrations per spread tick. Spreading runs under latency
/// pressure — the consolidated socket is overloaded until capacity is
/// restored — so the whole rebalance batch ships at once; the shard
/// copies are bandwidth-limited and complete within a few hundred ms.
inline constexpr int kSocketSpreadMigrationsPerTick = 24;
/// Socket-scope post-migration hold (see ConsolidationScope).
inline constexpr SimDuration kSocketPostMigrationHold = Seconds(15);

struct ConsolidationParams {
  /// Master switch of the socket scope; default off so every existing
  /// experiment is byte-identical.
  bool enabled = false;
};

/// Everything that differs between the socket and the node scope of the
/// consolidation policy. A "unit" is a socket or a node: the index space
/// of `placement`.
struct ConsolidationScope {
  /// Placement the policy moves partitions in. Its migrating and
  /// completed-migration counts are the ones the policy waits on.
  engine::PlacementMap* placement = nullptr;
  /// Whether a unit may serve (donate, receive, spread). Null: every unit.
  std::function<bool(int)> serves;
  /// Relative load of a unit in [0, 1].
  std::function<double(int)> load;
  /// Latency pressure in [0, 1] that drives the decision.
  std::function<double()> pressure;
  /// Starts migrating a partition to a unit; false if it did not start.
  std::function<bool(PartitionId, int)> start_migration;

  SimDuration interval = 0;
  /// Migrations started per consolidate tick and per spread tick.
  int migrations_per_tick = 0;
  int spread_migrations_per_tick = 0;
  /// Anti-flapping dwell: after a migration completes, the policy holds
  /// off placement changes in the *opposite* direction for this long. A
  /// rehome batch is itself a disturbance (the receiver's ECL needs a few
  /// intervals of demand discovery to re-size), and reacting to that
  /// transient consolidates and spreads in a cycle. Continuing in the
  /// same direction is never dwell-gated — staged consolidation ships its
  /// next batch as soon as the previous one has landed.
  SimDuration post_migration_hold = 0;
  /// Whether to spread at `pressure`; `gated` is true while the dwell
  /// holds reversals of a consolidation.
  std::function<bool(double pressure, bool gated)> spread_trigger;

  /// Optional per-tick steps around the placement decision. `before` runs
  /// first on every tick and returns true to skip the decision; `after`
  /// runs only when the decision ran.
  std::function<bool(double pressure)> before;
  std::function<void(double pressure)> after;

  /// Optional telemetry: "<name>/ticks", "<name>/consolidation_moves" and
  /// "<name>/spread_moves" counters, and a "<name>" lane carrying one
  /// `category` instant per consolidate/spread batch.
  telemetry::Telemetry* telemetry = nullptr;
  const char* name = "";
  const char* category = "";
};

/// The placement layer of the ECL hierarchy, one policy at two scopes.
/// When load is low — latency pressure far from the limit and the
/// least-loaded unit's work fits onto another — it live-migrates
/// partitions off that unit so the emptied unit can be parked (a socket:
/// idle configuration, package C-state, and with every socket idle the
/// uncore halt, the dominant per-socket fixed cost of paper Figs. 3/5) or
/// powered down (a node, see ClusterEcl). When latency pressure rises it
/// spreads partitions back toward the initial placement before the limit
/// is violated.
///
/// Relative load is the ECL's processed performance level over its
/// profile's peak score — NOT worker utilization, which the socket ECL
/// intentionally keeps high by shrinking the active thread set
/// (utilization says "how busy are the awake workers", load says "how
/// much of the capacity is spoken for").
class ConsolidationPolicy {
 public:
  ConsolidationPolicy(sim::Simulator* simulator, ConsolidationScope scope);

  ConsolidationPolicy(const ConsolidationPolicy&) = delete;
  ConsolidationPolicy& operator=(const ConsolidationPolicy&) = delete;

  void Start();
  void Stop() { running_ = false; }

  int64_t consolidation_moves() const { return consolidation_moves_; }
  int64_t spread_moves() const { return spread_moves_; }
  int64_t ticks() const { return ticks_; }
  /// The "<name>" trace lane (0 without telemetry).
  int trace_lane() const { return trace_lane_; }

 private:
  void Tick();
  bool Serves(int unit) const;
  void Consolidate();
  void Spread();

  sim::Simulator* simulator_;
  ConsolidationScope scope_;

  bool running_ = false;
  int64_t ticks_ = 0;
  int64_t consolidation_moves_ = 0;
  int64_t spread_moves_ = 0;
  int trace_lane_ = 0;
  /// Dwell-timer state: completed-migration count last observed, when it
  /// last changed, and which direction the last placement change moved in
  /// (the dwell only gates reversals).
  enum class Direction { kNone, kConsolidate, kSpread };
  int64_t last_completed_seen_ = 0;
  SimTime last_migration_time_ = -1;
  Direction last_direction_ = Direction::kNone;
};

/// The socket scope: every socket of `engine` serves, migrations run
/// through its MigrationCoordinator, at the kSocket* cadence, spreading at
/// kSocketSpreadPressureMin unless the dwell holds, and at
/// kSocketSpreadPressureHard regardless. Telemetry: "ecl/consolidation".
ConsolidationScope SocketScope(engine::Engine* engine,
                               std::function<double(SocketId)> load,
                               std::function<double()> pressure,
                               telemetry::Telemetry* telemetry);

}  // namespace ecldb::ecl

#endif  // ECLDB_ECL_CONSOLIDATION_H_
