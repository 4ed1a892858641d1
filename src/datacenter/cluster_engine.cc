// The cluster engine: builds the parts of a cluster run and runs it, plus
// the RunCluster / RunServing entry points.
// See cluster.h for the architecture overview and DESIGN.md §12 for which
// part owns which decision.
//
// Compatibility contract: with num_nodes == 1 the network is not modeled and
// every code path reduces, event for event and float for float, to the
// pre-split single-node serving engine — RunServing's results are unchanged.
// The datacenter_test N=1 equivalence test pins this down field by field.
#include "src/datacenter/cluster.h"

#include <memory>

#include "src/common/check.h"
#include "src/datacenter/cluster_engine.h"

namespace orion {
namespace datacenter {

ClusterContext::ClusterContext(const ClusterConfig& cluster_config)
    : config(cluster_config.serving),
      spec(cluster_config.cluster),
      topo(cluster_config.cluster),
      horizon(config.warmup_us + config.duration_us),
      attribution(config.telemetry != nullptr && config.telemetry->attribution_enabled()) {
  ORION_CHECK(config.max_replicas_per_gpu >= 1);
  ORION_CHECK_MSG(!config.models.empty(), "serving needs at least one model service");
  services.reserve(config.models.size());
  for (const serving::ModelServiceConfig& cfg : config.models) {
    ORION_CHECK(cfg.rps > 0.0);
    ORION_CHECK(cfg.slo_us > 0.0);
    ORION_CHECK(cfg.initial_replicas >= 1);
    ORION_CHECK(cfg.max_replicas >= cfg.initial_replicas);
    Service& service = services.emplace_back(Service{
        cfg,
        serving::BatchCostModel(config.device, cfg.workload,
                                cfg.tier == serving::PriorityTier::kLatencyCritical),
        nullptr,
        {}});
    if (cfg.llm.enabled) {
      ORION_CHECK_MSG(cfg.workload.model == workloads::ModelId::kLlmDecode,
                      "LLM serving requires the kLlmDecode workload");
      // The cost model's constructor validates the LLM shape parameters.
      service.llm_cost = std::make_unique<serving::LlmCostModel>(config.device, cfg.llm);
      // Replica state = the weights; the KV cache is carved separately out
      // of whatever device memory remains at placement (node_engine.cc).
      service.cost.OverrideStateBytes(workloads::LlmWeightBytes(cfg.llm.model));
    }
  }
}

namespace {

// One run's parts, built in this order: the accounting registers its trace
// tracks before the network's fabrics do.
struct ClusterRun {
  explicit ClusterRun(const ClusterConfig& config)
      : ctx(config),
        accounting(&ctx, &network),
        network(&ctx),
        control(&ctx, &accounting, &network) {}

  ClusterContext ctx;
  Accounting accounting;
  Network network;
  ControlPlane control;
};

}  // namespace

ClusterResult RunCluster(const ClusterConfig& config) {
  ClusterRun run(config);
  run.control.Start();
  run.ctx.sim.RunUntil(run.ctx.horizon);
  ClusterResult result;
  result.serving.window_us = config.serving.duration_us;
  run.control.Finish(&result);
  run.accounting.Finish(&result);
  run.network.AddBytesMoved(&result);
  return result;
}

}  // namespace datacenter

namespace serving {

ServingResult RunServing(const ServingConfig& config) {
  datacenter::ClusterConfig cluster_config;
  cluster_config.cluster.num_nodes = 1;
  cluster_config.cluster.gpus_per_node = config.num_gpus;
  cluster_config.serving = config;
  return datacenter::RunCluster(cluster_config).serving;
}

}  // namespace serving
}  // namespace orion
