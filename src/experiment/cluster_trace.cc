#include "experiment/cluster_trace.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "experiment/cluster_rig.h"
#include "experiment/drain.h"

namespace ecldb::experiment {

ClusterRunResult RunClusterExperiment(const ClusterWorkloadFactory& factory,
                                      const workload::LoadProfile& profile,
                                      const ClusterRunOptions& options) {
  ClusterRig rig(factory, options);
  sim::Simulator& simulator = rig.simulator();
  hwsim::Cluster& cluster = rig.cluster();
  engine::ClusterEngine& cengine = rig.cengine();
  telemetry::Telemetry* const tel = rig.telemetry();
  const int num_nodes = rig.num_nodes();
  const double capacity = rig.capacity();

  rig.Prime();

  workload::DriverParams driver_params;
  driver_params.capacity_qps = capacity;
  driver_params.seed = options.driver_seed;
  // Each query enters through the rig's routing mode: at its home node by
  // default (partition-aware clients know the placement the way the
  // paper's clients know the socket of a partition), or at a random
  // powered-on node in any-node mode. Work for partitions that moved
  // since the routing table was read still crosses the network as a stale
  // forward.
  workload::LoadDriver driver(
      &simulator, &rig.workload(), &profile, driver_params,
      [&rig, &cengine](const engine::QuerySpec& spec) {
        if (spec.work.empty()) return false;
        cengine.Submit(rig.EntryNodeFor(spec), spec);
        return true;
      });

  ClusterRunResult result;
  result.capacity_qps = capacity;
  const SimTime run_start = simulator.now();
  const double e0 = cluster.TotalEnergyJoules();
  driver.Start();

  const SimTime run_end = run_start + profile.duration();
  double sampler_last_energy = cluster.TotalEnergyJoules();
  std::vector<double> sampler_last_node_e(static_cast<size_t>(num_nodes));
  for (NodeId n = 0; n < num_nodes; ++n) {
    sampler_last_node_e[static_cast<size_t>(n)] = cluster.NodeEnergyJoules(n);
  }
  if (tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    const SimDuration period = options.sample_period;
    reg.AddGauge("exp/cluster/offered_qps", [&driver, &simulator] {
      return driver.OfferedQps(simulator.now());
    });
    auto last_energy = std::make_shared<double>(cluster.TotalEnergyJoules());
    reg.AddGauge("exp/cluster/power_w", [&cluster, last_energy, period] {
      const double e = cluster.TotalEnergyJoules();
      const double w = (e - *last_energy) / ToSeconds(period);
      *last_energy = e;
      return w;
    });
    reg.AddGauge("exp/cluster/nodes_on", [&cluster] {
      return static_cast<double>(cluster.NodesOn());
    });
    tel->StartSampler(run_start);
  }
  for (SimTime t = run_start + options.sample_period; t <= run_end;
       t += options.sample_period) {
    simulator.Schedule(t, [&, t] {
      ClusterSample s;
      s.t_s = ToSeconds(t - run_start);
      s.offered_qps = driver.OfferedQps(t);
      const double e = cluster.TotalEnergyJoules();
      s.power_w = (e - sampler_last_energy) / ToSeconds(options.sample_period);
      sampler_last_energy = e;
      s.nodes_on = cluster.NodesOn();
      for (NodeId n = 0; n < num_nodes; ++n) {
        const double ne = cluster.NodeEnergyJoules(n);
        s.node_power_w.push_back(
            (ne - sampler_last_node_e[static_cast<size_t>(n)]) /
            ToSeconds(options.sample_period));
        sampler_last_node_e[static_cast<size_t>(n)] = ne;
        s.partitions_on_node.push_back(cengine.placement().PartitionsOn(n));
        s.latency_window_ms =
            std::max(s.latency_window_ms,
                     cengine.node_engine(n).latency().WindowMeanMs());
      }
      result.series.push_back(s);
    });
  }

  simulator.RunUntil(run_end);
  if (tel != nullptr) tel->StopSampler();
  const double e1 = cluster.TotalEnergyJoules();
  DrainToCompletion(
      simulator, [&cengine] { return cengine.CompletedQueries(); },
      driver.submitted());

  result.duration_s = ToSeconds(profile.duration());
  result.energy_j = e1 - e0;
  result.avg_power_w = result.energy_j / result.duration_s;
  result.submitted = driver.submitted();
  result.completed = cengine.CompletedQueries();
  const double limit_ms = options.node_ecl.system.latency_limit_ms;
  double mean_weighted = 0.0;
  double violation_weighted = 0.0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const engine::LatencyTracker& lt = cengine.node_engine(n).latency();
    const double w = static_cast<double>(lt.completed());
    mean_weighted += w * lt.all().Mean();
    violation_weighted += w * lt.all().FractionAbove(limit_ms);
    result.p99_ms = std::max(result.p99_ms, lt.all().Percentile(99));
    result.max_ms = std::max(result.max_ms, lt.all().Max());
  }
  if (result.completed > 0) {
    mean_weighted /= static_cast<double>(result.completed);
    violation_weighted /= static_cast<double>(result.completed);
  }
  result.mean_ms = mean_weighted;
  result.violation_frac = violation_weighted;
  result.power_downs = cluster.power_downs();
  result.wakes = cluster.power_ups();
  result.node_migrations = cengine.migrations_completed();
  result.cancelled_migrations = cengine.migrations_cancelled();
  result.remote_sends = cengine.remote_sends();
  result.stale_forwards = cengine.stale_forwards();

  rig.StopEcls();
  if (tel != nullptr) result.telemetry_dump = tel->registry().Dump();
  return result;
}

}  // namespace ecldb::experiment
