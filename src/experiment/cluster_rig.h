#ifndef ECLDB_EXPERIMENT_CLUSTER_RIG_H_
#define ECLDB_EXPERIMENT_CLUSTER_RIG_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "ecl/cluster_ecl.h"
#include "ecl/ecl.h"
#include "engine/cluster_engine.h"
#include "experiment/cluster_trace.h"
#include "hwsim/cluster.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace ecldb::experiment {

/// The shared cluster test rig: N machines + network, the cluster engine,
/// one full per-node ECL stack, and the cluster ECL on top — everything a
/// cluster experiment constructs before any load arrives. Extracted from
/// RunClusterExperiment so the classic trace runner and the loadgen/SLO
/// runner build byte-identical systems; construction order is load-bearing
/// (advancer and event registration order fix the simulation).
class ClusterRig {
 public:
  ClusterRig(const ClusterWorkloadFactory& factory,
             const ClusterRunOptions& options);

  /// Primes every node's energy profiles under synthetic saturation and
  /// resets the per-node latency run stats (measurement starts clean).
  void Prime();

  /// Stops the cluster ECL (if any) and every node ECL.
  void StopEcls();

  /// Entry node for one query under the options' routing mode. Draws from
  /// the entry Rng only in any-node mode, so home routing never perturbs a
  /// seeded stream.
  NodeId EntryNodeFor(const engine::QuerySpec& spec);

  /// Max over the per-node system-ECL pressures (the admission
  /// controller's cluster-scope pressure signal).
  double MaxNodePressure() const;

  sim::Simulator& simulator() { return simulator_; }
  hwsim::Cluster& cluster() { return *cluster_; }
  engine::ClusterEngine& cengine() { return *cengine_; }
  workload::Workload& workload() { return *workload_; }
  double capacity() const { return capacity_; }
  int num_nodes() const { return cluster_->num_nodes(); }
  ecl::EnergyControlLoop& node_ecl(NodeId n) {
    return *node_ecls_[static_cast<size_t>(n)];
  }
  telemetry::Telemetry* telemetry() { return tel_; }

 private:
  ClusterRunOptions options_;
  sim::Simulator simulator_;
  telemetry::Telemetry* tel_ = nullptr;
  hwsim::ClusterParams cluster_params_;
  std::unique_ptr<hwsim::Cluster> cluster_;
  std::unique_ptr<engine::ClusterEngine> cengine_;
  std::unique_ptr<workload::Workload> workload_;
  double capacity_ = 0.0;
  std::vector<std::unique_ptr<ecl::EnergyControlLoop>> node_ecls_;
  std::unique_ptr<ecl::ClusterEcl> cluster_ecl_;
  Rng entry_rng_;
};

}  // namespace ecldb::experiment

#endif  // ECLDB_EXPERIMENT_CLUSTER_RIG_H_
