#include "engine/scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"

namespace ecldb::engine {
namespace {

int64_t EncodeOps(double ops) { return msg::EncodeMessageOps(ops); }
double DecodeOps(int64_t bits) {
  return std::bit_cast<double>(bits);
}

}  // namespace

Scheduler::Scheduler(sim::Simulator* simulator, hwsim::Machine* machine,
                     Database* db, msg::MessageLayer* layer,
                     const PlacementMap* placement,
                     const SchedulerParams& params)
    : simulator_(simulator),
      machine_(machine),
      db_(db),
      layer_(layer),
      placement_(placement),
      params_(params),
      spill_(static_cast<size_t>(db->num_partitions())),
      latency_(params.latency_window),
      outstanding_morsels_(static_cast<size_t>(db->num_partitions()), 0) {
  const hwsim::Topology& topo = machine_->topology();
  ECLDB_CHECK_MSG(!params_.static_binding ||
                      db_->num_partitions() == topo.total_threads(),
                  "static binding requires a 1:1 worker-partition ratio");
  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    Worker w;
    w.id = t;
    w.hw_thread = t;
    w.socket = topo.SocketOfThread(t);
    workers_.push_back(w);
  }
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    const telemetry::HistogramSpec latency_spec{1e-3, 2.0, 32};  // ms
    query_latency_ms_ = telemetry::HistogramHandle(
        reg.AddHistogram("engine/query_latency_ms", latency_spec));
    partition_latency_ms_.reserve(static_cast<size_t>(db_->num_partitions()));
    for (PartitionId p = 0; p < db_->num_partitions(); ++p) {
      partition_latency_ms_.push_back(telemetry::HistogramHandle(
          reg.AddHistogram("engine/partition" + std::to_string(p) +
                               "/latency_ms",
                           latency_spec)));
    }
    reg.AddCounterFn("engine/queries_submitted",
                     [this] { return queries_submitted_; });
    reg.AddCounterFn("engine/queries_completed",
                     [this] { return latency_.completed(); });
    reg.AddGauge("engine/inflight", [this] {
      return static_cast<double>(inflight_.size());
    });
    for (SocketId s = 0; s < topo.num_sockets; ++s) {
      reg.AddGauge("engine/socket" + std::to_string(s) + "/backlog_ops",
                   [this, s] { return BacklogOps(s); });
    }
    reg.AddCounterFn("engine/morsels_dispatched",
                     [this] { return morsels_dispatched_; });
    reg.AddCounterFn("engine/morsels_completed",
                     [this] { return morsels_completed_; });
    for (SocketId s = 0; s < topo.num_sockets; ++s) {
      // Outstanding morsel messages homed on the socket (dispatched minus
      // completed, by the partition's current home).
      reg.AddGauge(
          "engine/socket" + std::to_string(s) + "/morsel_queue_depth",
          [this, s] {
            int64_t depth = 0;
            for (PartitionId p = 0; p < db_->num_partitions(); ++p) {
              if (placement_->HomeOf(p) == s) {
                depth += outstanding_morsels_[static_cast<size_t>(p)];
              }
            }
            return static_cast<double>(depth);
          });
    }
  }
  // Registered after the Machine (which the caller constructs first), so
  // each slice integrates hardware state before work is consumed.
  sim::Advancer advancer;
  advancer.advance = [this](SimTime t0, SimTime t1) { Advance(t0, t1); };
  advancer.stationary_until = [this](SimTime now) { return StationaryUntil(now); };
  advancer.fast_forward = [this](SimTime t0, SimTime t1, SimDuration slice) {
    FastForward(t0, t1, slice);
  };
  simulator_->RegisterAdvancer(std::move(advancer));
}

int Scheduler::RegisterProfile(const hwsim::WorkProfile* profile) {
  ECLDB_CHECK(profile != nullptr);
  for (size_t i = 0; i < profiles_.size(); ++i) {
    if (profiles_[i] == profile) return static_cast<int>(i);
  }
  profiles_.push_back(profile);
  return static_cast<int>(profiles_.size() - 1);
}

int Scheduler::MorselsOf(const PartitionWork& pw) const {
  const bool splittable = pw.type == msg::MessageType::kWorkUnits ||
                          pw.type == msg::MessageType::kScan;
  ECLDB_CHECK_MSG(pw.morsels == 1 || splittable,
                  "only kWorkUnits/kScan tasks can be morselized (other "
                  "types use arg1 for their own arguments)");
  int morsels = std::max(1, pw.morsels);
  if (morsels == 1 && params_.morsel_ops > 0.0 &&
      pw.type == msg::MessageType::kWorkUnits &&
      pw.ops > params_.morsel_ops) {
    morsels = static_cast<int>(std::ceil(pw.ops / params_.morsel_ops));
  }
  // Cap: more morsels than a socket can drain concurrently only adds
  // queue traffic (and a partition ring holds a bounded message count).
  return std::min(morsels, 64);
}

QueryId Scheduler::Submit(const QuerySpec& spec) {
  ECLDB_CHECK(spec.profile != nullptr);
  ECLDB_CHECK(!spec.work.empty());
  steady_ = false;
  const int profile_id = RegisterProfile(spec.profile);
  const QueryId id = next_query_id_++;
  QueryState state;
  state.arrival = simulator_->now();
  state.pending_tasks = 0;
  for (const PartitionWork& pw : spec.work) {
    state.pending_tasks += MorselsOf(pw);
  }
  state.internal = spec.internal;
  state.slo_class = spec.slo_class;
  state.tenant = spec.tenant;
  state.attempt = spec.attempt;
  inflight_.emplace(id, state);
  if (!spec.internal) ++queries_submitted_;

  for (const PartitionWork& pw : spec.work) {
    ECLDB_DCHECK(pw.partition >= 0 && pw.partition < db_->num_partitions());
    ECLDB_DCHECK(pw.ops > 0.0);
    const int morsels = MorselsOf(pw);
    msg::Message m;
    m.query_id = id;
    m.partition = pw.partition;
    m.type = pw.type;
    m.origin_socket = spec.origin_socket;
    m.payload[1] = profile_id;
    m.payload[2] = pw.arg0;
    if (morsels == 1) {
      m.payload[0] = EncodeOps(pw.ops);
      m.payload[3] = pw.arg1;
      if (!layer_->Send(spec.origin_socket, m)) Spill(m);
      continue;
    }
    // Morselized task: equal fluid shares, morsel coordinates in arg1.
    // Workers of the owning socket pick the sub-messages up batch by
    // batch, so several active workers consume one partition's scan
    // within a slice; per-worker credit spending (and thus utilization
    // accounting) is unchanged.
    const double ops_each = pw.ops / morsels;
    for (int i = 0; i < morsels; ++i) {
      m.payload[0] = EncodeOps(ops_each);
      m.payload[3] = msg::EncodeMorsel(i, morsels);
      if (!layer_->Send(spec.origin_socket, m)) Spill(m);
    }
    morsels_dispatched_ += morsels;
    outstanding_morsels_[static_cast<size_t>(pw.partition)] += morsels;
  }
  return id;
}

double Scheduler::TakeUtilization(SocketId socket) {
  double busy = 0.0;
  double active = 0.0;
  for (Worker& w : workers_) {
    if (w.socket != socket) continue;
    busy += w.busy_seconds;
    active += w.active_seconds;
    w.busy_seconds = 0.0;
    w.active_seconds = 0.0;
  }
  if (active <= 0.0) return 0.0;
  return std::min(1.0, busy / active);
}

double Scheduler::BacklogOps(SocketId socket) const {
  double ops = 0.0;
  for (int p = 0; p < db_->num_partitions(); ++p) {
    if (placement_->HomeOf(p) != socket) continue;
    // Queued-but-unowned messages: the queue maintains an exact running
    // ops total on enqueue/dequeue, so no draining is needed.
    ops += layer_->partition_queue(p)->PendingOps();
    for (const msg::Message& m : spill_[static_cast<size_t>(p)]) {
      ops += DecodeOps(m.payload[0]);
    }
  }
  for (const Worker& w : workers_) {
    if (w.socket != socket) continue;
    ops += w.remaining_ops;
    for (size_t i = w.batch_pos + 1; i < w.batch.size(); ++i) {
      ops += DecodeOps(w.batch[i].payload[0]);
    }
    if (w.remaining_ops <= 0.0 && w.batch_pos < w.batch.size()) {
      ops += DecodeOps(w.batch[w.batch_pos].payload[0]);
    }
  }
  return ops;
}

const hwsim::WorkProfile* Scheduler::ProfileOfMessage(const msg::Message& m) const {
  const auto idx = static_cast<size_t>(m.payload[1]);
  ECLDB_DCHECK(idx < profiles_.size());
  return profiles_[idx];
}

void Scheduler::CompleteTask(const msg::Message& m, SimTime now) {
  // Functional messages mutate/read the real partition data exactly when
  // their fluid work completes (the worker owns the partition here).
  if (m.type != msg::MessageType::kWorkUnits && functional_executor_) {
    functional_executor_(m.partition, m);
  }
  if ((m.type == msg::MessageType::kWorkUnits ||
       m.type == msg::MessageType::kScan) &&
      msg::MorselCount(m.payload[3]) > 1) {
    ++morsels_completed_;
    --outstanding_morsels_[static_cast<size_t>(m.partition)];
  }
  auto it = inflight_.find(m.query_id);
  ECLDB_DCHECK(it != inflight_.end());
  if (!it->second.internal && !partition_latency_ms_.empty()) {
    // Per-partition task latency: arrival of the query to completion of
    // this partition's share of it.
    partition_latency_ms_[static_cast<size_t>(m.partition)].Record(
        ToSeconds(now - it->second.arrival) * 1e3);
  }
  if (--it->second.pending_tasks == 0) {
    if (!it->second.internal) {
      latency_.RecordCompletion(it->second.arrival, now);
      query_latency_ms_.Record(ToSeconds(now - it->second.arrival) * 1e3);
      if (completion_callback_) {
        completion_callback_(it->second.slo_class, it->second.arrival, now);
      }
    }
    inflight_.erase(it);
  }
}

void Scheduler::ReleaseOwnership(Worker* w, bool requeue_batch) {
  if (w->owned == nullptr && w->batch.empty()) return;
  // Requeue target: the owned queue, or (for a claimed morsel batch whose
  // queue was already released) the partition's current home queue.
  auto requeue = [this, w](const msg::Message& m) {
    const bool ok =
        w->owned != nullptr
            ? w->owned->Enqueue(m)
            : layer_->router(placement_->HomeOf(m.partition))->Enqueue(m);
    if (!ok) Spill(m);
  };
  if (requeue_batch) {
    // Deactivated mid-batch: push unprocessed work back so other workers
    // can serve the partition (elasticity invariant: partitions never
    // become unavailable when threads are turned off).
    if (w->remaining_ops > 0.0 && w->batch_pos < w->batch.size()) {
      msg::Message m = w->batch[w->batch_pos];
      m.payload[0] = EncodeOps(w->remaining_ops);
      requeue(m);
      w->remaining_ops = 0.0;
      ++w->batch_pos;
    }
    for (size_t i = w->batch_pos; i < w->batch.size(); ++i) {
      requeue(w->batch[i]);
    }
    w->batch.clear();
    w->batch_pos = 0;
  }
  if (w->owned != nullptr) {
    w->owned->Release(w->id);
    w->owned = nullptr;
  }
}

void Scheduler::MaybeReleaseMorselBatch(Worker* w) {
  if (w->owned == nullptr || w->batch.empty()) return;
  for (const msg::Message& m : w->batch) {
    const bool splittable = m.type == msg::MessageType::kScan ||
                            m.type == msg::MessageType::kWorkUnits;
    if (!splittable || msg::MorselCount(m.payload[3]) <= 1) return;
  }
  w->owned->Release(w->id);
  w->owned = nullptr;
}

bool Scheduler::AcquireWork(Worker* w) {
  if (w->remaining_ops > 0.0) return true;
  if (params_.static_binding) {
    // Original architecture: the worker exclusively serves the partition
    // with its own id; nothing else.
    for (;;) {
      if (w->batch_pos < w->batch.size()) {
        w->remaining_ops = DecodeOps(w->batch[w->batch_pos].payload[0]);
        return true;
      }
      if (w->owned == nullptr) {
        msg::PartitionQueue* q = layer_->router(w->socket)->queue(w->id);
        if (!q->TryAcquire(w->id)) return false;
        w->owned = q;
      }
      w->batch.clear();
      w->batch_pos = 0;
      if (w->owned->DequeueBatch(w->id, params_.batch_size, &w->batch) == 0) {
        return false;
      }
    }
  }
  for (;;) {
    // Next message in the current batch?
    if (w->batch_pos < w->batch.size()) {
      const msg::Message& m = w->batch[w->batch_pos];
      w->remaining_ops = DecodeOps(m.payload[0]);
      return true;
    }
    // One batch per ownership stint: after a batch is processed the
    // partition is released, so queued partitions are served round-robin
    // (fairness under backlog). Then acquire the next non-empty queue and
    // pull one batch from it.
    ReleaseOwnership(w, /*requeue_batch=*/false);
    w->batch.clear();
    w->batch_pos = 0;
    msg::IntraSocketRouter* router = layer_->router(w->socket);
    msg::PartitionQueue* q = router->AcquireNonEmpty(w->id, &w->rr_cursor);
    if (q == nullptr) return false;
    w->owned = q;
    if (q->DequeueBatch(w->id, params_.batch_size, &w->batch) == 0) {
      // Raced to empty; try the next queue.
      ReleaseOwnership(w, /*requeue_batch=*/false);
    } else {
      MaybeReleaseMorselBatch(w);
    }
  }
}

void Scheduler::Spill(const msg::Message& m) {
  spill_[static_cast<size_t>(m.partition)].push_back(m);
  ++spilled_;
}

size_t Scheduler::RetrySpill() {
  if (spilled_ == 0) return 0;
  size_t moved = 0;
  for (int p = 0; p < db_->num_partitions(); ++p) {
    auto& dq = spill_[static_cast<size_t>(p)];
    while (!dq.empty()) {
      // Spilled messages go directly to the partition's current home
      // queue (which may have moved since the spill).
      if (!layer_->router(placement_->HomeOf(p))->Enqueue(dq.front())) break;
      dq.pop_front();
      --spilled_;
      ++moved;
    }
  }
  return moved;
}

int64_t Scheduler::FailAllInflight(FailReason reason) {
  // Discard queued work everywhere it can hide. Worker state first (that
  // releases queue ownership, a precondition of the layer drain), then the
  // layer's queues and channels, then the spill buffers.
  for (Worker& w : workers_) {
    w.batch.clear();
    w.batch_pos = 0;
    w.remaining_ops = 0.0;
    if (w.owned != nullptr) {
      w.owned->Release(w.id);
      w.owned = nullptr;
    }
    machine_->SetThreadLoad(w.hw_thread, nullptr, 0.0);
    (void)machine_->TakeCompletedOps(w.hw_thread);
  }
  (void)layer_->DrainAllQueues();
  for (auto& dq : spill_) dq.clear();
  spilled_ = 0;
  std::fill(outstanding_morsels_.begin(), outstanding_morsels_.end(), 0);

  // Fail in submission order so the client sees a deterministic, ordered
  // error stream (query ids are assigned monotonically).
  std::vector<QueryId> ids;
  ids.reserve(inflight_.size());
  for (const auto& [id, state] : inflight_) {
    if (!state.internal) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const QueryId id : ids) {
    const QueryState& state = inflight_.at(id);
    if (failure_callback_) {
      failure_callback_(state.slo_class, state.tenant, state.attempt,
                        state.arrival, reason);
    }
  }
  queries_failed_ += static_cast<int64_t>(ids.size());
  inflight_.clear();
  steady_ = false;
  return static_cast<int64_t>(ids.size());
}

void Scheduler::PrepareRehome(PartitionId p) {
  msg::PartitionQueue* queue = layer_->partition_queue(p);
  for (Worker& w : workers_) {
    if (w.owned == queue) {
      // Requeue the unprocessed remainder of the batch (including a
      // partially-consumed head) so it travels with the queue.
      ReleaseOwnership(&w, /*requeue_batch=*/true);
    }
  }
  steady_ = false;
}

void Scheduler::Advance(SimTime t0, SimTime t1) {
  const SimTime now = t1;
  const double dt_s = ToSeconds(t1 - t0);
  const hwsim::Topology& topo = machine_->topology();

  // Settled-slice detection: true while nothing moved this slice, so every
  // following slice would repeat only the active/busy-seconds additions.
  bool settled = true;

  // Communication threads move inter-socket messages once per slice
  // (the slice length models the transfer hop).
  size_t moved = 0;
  for (SocketId s = 0; s < topo.num_sockets; ++s) moved += layer_->PumpComm(s);
  moved += RetrySpill();
  if (moved > 0) settled = false;

  if (machine_->config_writes() != visit_config_writes_) {
    // The active-thread set may have changed: visit every worker again.
    visit_.resize(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) visit_[i] = static_cast<int>(i);
    visit_config_writes_ = machine_->config_writes();
  }
#ifndef NDEBUG
  AuditParkedWorkers();
#endif

  // Compacts `visit_` in place: a worker stays unless it is parked below.
  size_t kept = 0;
  for (size_t i = 0; i < visit_.size(); ++i) {
    const int id = visit_[i];
    Worker& w = workers_[static_cast<size_t>(id)];
    const hwsim::SocketConfig& cfg = machine_->requested_config(w.socket);
    const bool active =
        cfg.ThreadActive(topo.LocalThreadOfThread(w.hw_thread));
    if (!active) {
      if (w.owned != nullptr || w.batch_pos < w.batch.size() ||
          w.remaining_ops > 0.0) {
        settled = false;
      }
      // Hardware thread is in a sleep state: give the partition back.
      ReleaseOwnership(&w, /*requeue_batch=*/true);
      machine_->SetThreadLoad(w.hw_thread, nullptr, 0.0);
      // The worker now holds no work and its thread is unloaded, so the
      // machine credits it nothing. Once a visit also took no credit, the
      // worker is parked: every later visit would change nothing until a
      // config write rebuilds the list.
      if (machine_->TakeCompletedOps(w.hw_thread) != 0.0) visit_[kept++] = id;
      continue;
    }
    visit_[kept++] = id;
    w.active_seconds += dt_s;

    if (synthetic_load_ != nullptr) {
      // Saturation mode: full-intensity synthetic work, results discarded.
      (void)machine_->TakeCompletedOps(w.hw_thread);
      w.busy_seconds += dt_s;
      machine_->SetThreadLoad(w.hw_thread, synthetic_load_, 1.0);
      continue;
    }

    double credit = machine_->TakeCompletedOps(w.hw_thread);
    const double rate = machine_->CurrentRate(w.hw_thread);
    const double full_credit = credit;
    if (full_credit != 0.0) settled = false;
    while (credit > 1e-9) {
      if (!AcquireWork(&w)) break;
      const double spend = std::min(credit, w.remaining_ops);
      w.remaining_ops -= spend;
      credit -= spend;
      if (w.remaining_ops <= 1e-9) {
        w.remaining_ops = 0.0;
        CompleteTask(w.batch[w.batch_pos], now);
        ++w.batch_pos;
      }
    }
    if (rate > 0.0 && full_credit > 0.0) {
      const double consumed = full_credit - credit;
      w.busy_seconds += std::min(dt_s, consumed / rate);
    }

    // Offer next-slice work to the machine. PeekProfile may shift work
    // around (pull a batch, change ownership); any such movement — or a
    // non-null offer, which makes the machine accrue credit — unsettles.
    const msg::PartitionQueue* owned_before = w.owned;
    const size_t pos_before = w.batch_pos;
    const size_t size_before = w.batch.size();
    const hwsim::WorkProfile* next = PeekProfile(&w);
    if (next != nullptr || w.owned != owned_before ||
        w.batch_pos != pos_before || w.batch.size() != size_before) {
      settled = false;
    }
    machine_->SetThreadLoad(w.hw_thread, next, next != nullptr ? 1.0 : 0.0);
  }
  visit_.resize(kept);

  steady_ = settled;
  steady_config_writes_ = machine_->config_writes();
}

SimTime Scheduler::StationaryUntil(SimTime now) const {
  // A config write after the settled slice may have changed the
  // active-thread set, which this scheduler reacts to per slice.
  if (!steady_ || machine_->config_writes() != steady_config_writes_) {
    return now;
  }
  return kSimTimeNever;
}

#ifndef NDEBUG
void Scheduler::AuditParkedWorkers() const {
  // A parked worker is skipped on the promise that a visit would change
  // nothing. A caller that loads a sleeping thread without a config write
  // breaks that promise, and the credit the machine then accrues would be
  // lost silently; abort instead.
  const hwsim::Topology& topo = machine_->topology();
  size_t k = 0;
  for (const Worker& w : workers_) {
    if (k < visit_.size() && visit_[k] == w.id) {
      ++k;
      continue;
    }
    ECLDB_CHECK_MSG(!machine_->requested_config(w.socket).ThreadActive(
                        topo.LocalThreadOfThread(w.hw_thread)),
                    "parked worker's hardware thread is active");
    ECLDB_CHECK_MSG(w.owned == nullptr && w.batch.empty() &&
                        w.remaining_ops == 0.0,
                    "parked worker holds work");
    ECLDB_CHECK_MSG(machine_->thread_load(w.hw_thread).profile == nullptr &&
                        machine_->PeekCompletedOps(w.hw_thread) == 0.0,
                    "parked worker's sleeping thread was loaded without a "
                    "config write");
  }
}
#endif

void Scheduler::FastForward(SimTime t0, SimTime t1, SimDuration slice) {
  const hwsim::Topology& topo = machine_->topology();
  for (const int id : visit_) {
    Worker& w = workers_[static_cast<size_t>(id)];
    const hwsim::SocketConfig& cfg = machine_->requested_config(w.socket);
    if (!cfg.ThreadActive(topo.LocalThreadOfThread(w.hw_thread))) continue;
    // Replay the per-slice accumulations on the same slice grid (sums of
    // doubles are order-dependent, so the additions must match 1:1).
    SimTime cur = t0;
    while (cur < t1) {
      const SimTime end = std::min(t1, cur + slice);
      const double dt_s = ToSeconds(end - cur);
      w.active_seconds += dt_s;
      if (synthetic_load_ != nullptr) w.busy_seconds += dt_s;
      cur = end;
    }
    // Synthetic credit is discarded anyway; draining once at the end of
    // the window leaves the same all-zero credit as draining per slice.
    if (synthetic_load_ != nullptr) (void)machine_->TakeCompletedOps(w.hw_thread);
  }
}

const hwsim::WorkProfile* Scheduler::PeekProfile(Worker* w) {
  if (w->remaining_ops > 0.0 || w->batch_pos < w->batch.size()) {
    return ProfileOfMessage(w->batch[w->batch_pos < w->batch.size()
                                         ? w->batch_pos
                                         : w->batch.size() - 1]);
  }
  if (params_.static_binding) {
    // Only the worker's own partition can supply work.
    if (AcquireWork(w)) {
      return ProfileOfMessage(w->batch[w->batch_pos]);
    }
    return nullptr;
  }
  // Work pending anywhere on this socket? The worker will grab it next
  // slice; intensity 1 with the socket's dominant pending profile.
  if (w->owned != nullptr && !w->owned->EmptyApprox()) {
    // Peek by dequeuing into the batch now.
    w->batch.clear();
    w->batch_pos = 0;
    if (w->owned->DequeueBatch(w->id, params_.batch_size, &w->batch) > 0) {
      MaybeReleaseMorselBatch(w);
      return ProfileOfMessage(w->batch[0]);
    }
  }
  msg::IntraSocketRouter* router = layer_->router(w->socket);
  if (router->PendingApprox() > 0) {
    // Some queue on the socket has work; report generic readiness using
    // the first registered profile if we cannot see the message itself.
    msg::PartitionQueue* q = router->AcquireNonEmpty(w->id, &w->rr_cursor);
    if (q != nullptr) {
      ReleaseOwnership(w, false);
      w->owned = q;
      w->batch.clear();
      w->batch_pos = 0;
      if (q->DequeueBatch(w->id, params_.batch_size, &w->batch) > 0) {
        MaybeReleaseMorselBatch(w);
        return ProfileOfMessage(w->batch[0]);
      }
      ReleaseOwnership(w, false);
    }
  }
  return nullptr;
}

}  // namespace ecldb::engine
