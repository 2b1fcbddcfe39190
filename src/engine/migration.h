#ifndef ECLDB_ENGINE_MIGRATION_H_
#define ECLDB_ENGINE_MIGRATION_H_

#include <cstdint>

#include "common/types.h"
#include "engine/database.h"
#include "engine/placement.h"
#include "engine/scheduler.h"
#include "hwsim/machine.h"
#include "msg/message_layer.h"
#include "sim/simulator.h"

namespace ecldb::engine {

struct MigrationParams {
  /// Bytes of shard state copied per fluid operation of the copy query
  /// (one cache line per op).
  double bytes_per_op = 64.0;
  /// Handover poll interval: after the copy query is submitted, the
  /// coordinator checks at this granularity whether it has drained.
  SimDuration check_interval = Millis(10);
  /// First handover check after this long (covers tiny shards).
  SimDuration min_copy_time = Millis(1);
  /// Floor on the modeled shard size. Fluid-only workloads keep no real
  /// table data, so benches set this to model a realistic copy cost;
  /// 0 = use the partition's actual in-memory bytes only.
  double min_shard_bytes = 0.0;
  /// Optional telemetry context: migration counters plus one trace span
  /// per migration (drain+copy through commit) on an "engine/migration"
  /// lane.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Drives the live-migration protocol (drain -> copy -> rehome) on top of
/// the epoch-versioned PlacementMap:
///
///   drain  — an internal shard-copy query is submitted to the partition.
///            It rides the FIFO partition queue, so every message already
///            enqueued executes first (the queue is the drain barrier),
///            and its fluid work charges the bandwidth-limited copy cost
///            to the source socket through the hwsim memory model.
///   copy   — handover polls until the copy query has left the system,
///            i.e. the queue prefix and the copy itself fully executed.
///   rehome — any worker ownership is released (unprocessed batches are
///            requeued), the queue object moves to the destination router
///            with whatever is still queued behind the copy, and the
///            placement commits the new home, bumping the epoch. Messages
///            still in flight toward the old home arrive under the stale
///            epoch and are forwarded by the message layer.
///
/// Everything runs in simulator event context, so each step is atomic
/// with respect to execution slices. Live migration requires the elastic
/// scheduler (static worker-partition binding cannot change homes).
class MigrationCoordinator {
 public:
  MigrationCoordinator(sim::Simulator* simulator, hwsim::Machine* machine,
                       Database* db, PlacementMap* placement,
                       msg::MessageLayer* layer, Scheduler* scheduler,
                       const MigrationParams& params);

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// Starts migrating `p` to socket `to`. Must be called from simulator
  /// event context (or before the run). Returns false (no-op) when the
  /// partition is already migrating or `to` is its current home.
  bool StartMigration(PartitionId p, SocketId to);

  /// Migrations currently in flight.
  int active() const { return placement_->migrating_count(); }
  int64_t started() const { return started_; }
  int64_t completed() const { return placement_->completed_migrations(); }
  /// Total shard bytes copied by completed migrations.
  double bytes_moved() const { return bytes_moved_; }
  /// Queued messages that travelled with rehomed queues.
  int64_t messages_rehomed() const { return messages_rehomed_; }

 private:
  void CheckHandover(PartitionId p, QueryId copy_query, double bytes,
                     SimTime t_start);
  void Handover(PartitionId p, double bytes, SimTime t_start);

  sim::Simulator* simulator_;
  hwsim::Machine* machine_;
  Database* db_;
  PlacementMap* placement_;
  msg::MessageLayer* layer_;
  Scheduler* scheduler_;
  MigrationParams params_;

  int64_t started_ = 0;
  double bytes_moved_ = 0.0;
  int64_t messages_rehomed_ = 0;
  int trace_lane_ = 0;  // "engine/migration" lane when telemetry is attached
};

/// The internal query that drains and copies partition `p`'s shard, as
/// submitted on the engine hosting it. Its modeled size is the partition's
/// in-memory bytes, floored at `params.min_shard_bytes`, charged as
/// max(1, bytes / bytes_per_op) fluid ops of a streaming, bandwidth-bound
/// memcpy through the hwsim memory model, entering at socket `origin`.
struct ShardCopy {
  QuerySpec query;
  double bytes = 0.0;
};
ShardCopy MakeShardCopy(const Database& db, PartitionId p, SocketId origin,
                        const MigrationParams& params);

}  // namespace ecldb::engine

#endif  // ECLDB_ENGINE_MIGRATION_H_
