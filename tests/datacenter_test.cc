// Datacenter subsystem tests (src/datacenter): cluster topology arithmetic,
// N=1 equivalence with the single-node serving engine, multi-node serving
// over the NIC/ToR network, node-granularity faults with cross-node
// failover, and the request accounting identity under all of it. The golden
// tests pin a 64-bit digest of every result field ClusterResultsBitIdentical
// compares, one per engine regime, so any moved output bit shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/datacenter/cluster.h"
#include "src/datacenter/cluster_topology.h"
#include "src/fault/fault_plan.h"
#include "src/serving/serving.h"
#include "src/telemetry/exporters.h"
#include "src/workloads/models.h"
#include "tests/test_util.h"

namespace orion {
namespace datacenter {
namespace {

using serving::LlmServiceConfig;
using serving::ModelServiceConfig;
using serving::ModelServingResult;
using serving::PriorityTier;
using serving::ServingConfig;
using serving::ServingResult;
using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ModelServiceConfig Service(ModelId model, PriorityTier tier, double rps, DurationUs slo_us,
                           int initial_replicas = 1, int max_replicas = 8) {
  ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(model, TaskType::kInference);
  cfg.tier = tier;
  cfg.rps = rps;
  cfg.slo_us = slo_us;
  cfg.initial_replicas = initial_replicas;
  cfg.max_replicas = max_replicas;
  return cfg;
}

ServingConfig BaseServing() {
  ServingConfig config;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  config.models = {Service(ModelId::kResNet50, PriorityTier::kLatencyCritical, 200.0,
                           MsToUs(50.0), 2)};
  return config;
}

void ExpectModelResultsEqual(const ModelServingResult& a, const ModelServingResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.failed_over, b.failed_over);
  EXPECT_DOUBLE_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  ASSERT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
  EXPECT_DOUBLE_EQ(a.queueing.mean(), b.queueing.mean());
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_DOUBLE_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.final_replicas, b.final_replicas);
  EXPECT_EQ(a.total_offered, b.total_offered);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_shed, b.total_shed);
  EXPECT_EQ(a.total_dropped, b.total_dropped);
  EXPECT_EQ(a.left_in_system, b.left_in_system);
}

void ExpectServingResultsEqual(const ServingResult& a, const ServingResult& b) {
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    ExpectModelResultsEqual(a.models[m], b.models[m]);
  }
  EXPECT_EQ(a.scale_ups, b.scale_ups);
  EXPECT_EQ(a.scale_downs, b.scale_downs);
  EXPECT_EQ(a.scale_failures, b.scale_failures);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_skipped, b.faults_skipped);
  EXPECT_EQ(a.replicas_lost, b.replicas_lost);
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.replacement_failures, b.replacement_failures);
  EXPECT_EQ(a.gpus_alive_end, b.gpus_alive_end);
  EXPECT_DOUBLE_EQ(a.replica_seconds, b.replica_seconds);
}

// --- Topology arithmetic. ---

TEST(ClusterTopologyTest, NodeMajorGpuIndexing) {
  ClusterSpec spec;
  spec.num_nodes = 3;
  spec.gpus_per_node = 4;
  const ClusterTopology topo(spec);
  EXPECT_EQ(topo.total_gpus(), 12);
  EXPECT_EQ(topo.GlobalGpu(0, 0), 0);
  EXPECT_EQ(topo.GlobalGpu(1, 0), 4);
  EXPECT_EQ(topo.GlobalGpu(2, 3), 11);
  for (int g = 0; g < topo.total_gpus(); ++g) {
    EXPECT_EQ(topo.GlobalGpu(topo.NodeOfGpu(g), topo.LocalGpu(g)), g);
  }
  EXPECT_EQ(topo.NodeOfGpu(7), 1);
  EXPECT_EQ(topo.LocalGpu(7), 3);
}

// --- N=1 equivalence: the compatibility contract of the engine split. ---

TEST(DatacenterTest, SingleNodeClusterReproducesRunServingExactly) {
  // A config that exercises autoscaling, admission shedding AND failover.
  ServingConfig config = BaseServing();
  config.num_gpus = 3;
  config.models[0].rps = 350.0;
  config.autoscaler.enabled = true;
  config.autoscaler.eval_period_us = SecToUs(0.25);
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = SecToUs(2.0);
  death.gpu = 0;
  config.fault_plan.events.push_back(death);

  const ServingResult direct = serving::RunServing(config);

  ClusterConfig cluster_config;
  cluster_config.cluster.num_nodes = 1;
  cluster_config.cluster.gpus_per_node = config.num_gpus;
  cluster_config.serving = config;
  const ClusterResult via_cluster = RunCluster(cluster_config);

  ExpectServingResultsEqual(direct, via_cluster.serving);
  ASSERT_EQ(via_cluster.nodes.size(), 1u);
  EXPECT_EQ(via_cluster.nodes_alive_end, 1u);
  EXPECT_EQ(via_cluster.node_faults, 0u);
  // N=1 never touches a network.
  EXPECT_EQ(via_cluster.requests_forwarded, 0u);
  EXPECT_DOUBLE_EQ(via_cluster.request_bytes_moved, 0.0);
}

// --- Multi-node serving. ---

ClusterConfig SmallCluster(int num_nodes, int gpus_per_node) {
  ClusterConfig config;
  config.cluster.num_nodes = num_nodes;
  config.cluster.gpus_per_node = gpus_per_node;
  config.serving = BaseServing();
  config.serving.models[0].initial_replicas = num_nodes;  // one per node
  config.serving.models[0].max_replicas = 2 * num_nodes;
  return config;
}

TEST(DatacenterTest, MultiNodeClusterServesOverTheNetwork) {
  const ClusterResult result = RunCluster(SmallCluster(4, 2));
  const ModelServingResult& model = result.serving.models[0];
  EXPECT_GT(model.offered, 600u);
  EXPECT_GE(model.slo_attainment, 0.9);
  EXPECT_EQ(model.dropped, 0u);
  // Every admitted request crossed the network, and both legs moved bytes.
  EXPECT_GE(result.requests_forwarded, model.total_completed);
  EXPECT_GT(result.request_bytes_moved, 0.0);
  EXPECT_GT(result.response_bytes_moved, result.request_bytes_moved);
  ASSERT_EQ(result.nodes.size(), 4u);
  EXPECT_EQ(result.nodes_alive_end, 4u);
  std::size_t total_requests = 0;
  for (const NodeSummary& node : result.nodes) {
    EXPECT_TRUE(node.alive_end);
    total_requests += node.requests;
  }
  EXPECT_EQ(total_requests, model.total_completed);
}

TEST(DatacenterTest, LeastOutstandingSpreadsLoadAcrossNodes) {
  // Fill every GPU (placement tie-breaks stack replicas on the lowest node
  // first, so one-replica-per-node needs a full fleet) and check every node
  // serves a non-trivial share.
  ClusterConfig config = SmallCluster(3, 2);
  config.serving.models[0].initial_replicas = 6;
  config.serving.models[0].max_replicas = 8;
  const ClusterResult result = RunCluster(config);
  for (const NodeSummary& node : result.nodes) {
    EXPECT_GT(node.requests, result.serving.models[0].total_completed / 10)
        << "node " << node.node;
  }
}

TEST(DatacenterTest, NetworkLatencyShowsUpInEndToEndLatency) {
  ClusterConfig fast_nic = SmallCluster(2, 2);
  ClusterConfig slow_nic = SmallCluster(2, 2);
  slow_nic.cluster.nic_gbps = 0.5;
  const ClusterResult fast = RunCluster(fast_nic);
  const ClusterResult slow = RunCluster(slow_nic);
  // Both NIC legs cross the wire: at 0.5 GB/s the 32 KiB request and
  // 128 KiB response add ~0.3 ms of wire time to every request.
  EXPECT_GT(fast.requests_forwarded, 0u);
  EXPECT_GT(slow.serving.models[0].latency.mean(),
            fast.serving.models[0].latency.mean() + 250.0);
}

// --- Node-granularity faults. ---

ClusterConfig FailoverCluster() {
  ClusterConfig config = SmallCluster(3, 2);
  config.serving.models[0].rps = 240.0;
  fault::FaultEvent down;
  down.kind = fault::FaultKind::kNodeDown;
  down.at_us = SecToUs(2.0);
  down.node = 0;
  config.serving.fault_plan.events.push_back(down);
  return config;
}

TEST(DatacenterTest, NodeDownKillsItsReplicasAndFailsOverToSurvivors) {
  const ClusterResult result = RunCluster(FailoverCluster());
  const ModelServingResult& model = result.serving.models[0];
  EXPECT_EQ(result.node_faults, 1u);
  EXPECT_EQ(result.nodes_alive_end, 2u);
  EXPECT_EQ(result.serving.faults_injected, 1u);
  EXPECT_GE(result.serving.replicas_lost, 1u);
  // Every lost replica re-homed onto a surviving node's free GPU.
  EXPECT_EQ(result.serving.replacements, result.serving.replicas_lost);
  EXPECT_EQ(result.serving.replacement_failures, 0u);
  EXPECT_FALSE(result.nodes[0].alive_end);
  EXPECT_GT(model.failed_over, 0u);
  // Survivors plus the replacement absorb the full stream.
  EXPECT_EQ(model.total_dropped, 0u);
  EXPECT_GT(model.completed + model.left_in_system, model.offered * 9 / 10);
  // The dead node's GPUs are gone from the fleet.
  EXPECT_EQ(result.serving.gpus_alive_end, 4u);
}

TEST(DatacenterTest, SloAttainmentRecoversAfterNodeDeath) {
  // Compare the fault run against a fault-free twin: the post-failover
  // cluster keeps serving (attainment degrades boundedly, not to zero).
  ClusterConfig faulty = FailoverCluster();
  ClusterConfig healthy = FailoverCluster();
  healthy.serving.fault_plan.events.clear();
  const ClusterResult with_fault = RunCluster(faulty);
  const ClusterResult without = RunCluster(healthy);
  EXPECT_GE(without.serving.models[0].slo_attainment, 0.95);
  EXPECT_GE(with_fault.serving.models[0].slo_attainment, 0.5);
  EXPECT_GT(with_fault.serving.models[0].completed,
            without.serving.models[0].completed / 2);
}

TEST(DatacenterTest, AccountingIdentityHoldsThroughNodeDeath) {
  const ClusterResult result = RunCluster(FailoverCluster());
  const ModelServingResult& model = result.serving.models[0];
  // The engine CHECKs the identity internally (including requests cut off
  // mid-network by the NIC going dark); assert it end-to-end here too.
  EXPECT_EQ(model.total_offered, model.total_completed + model.total_shed +
                                     model.total_dropped + model.left_in_system);
}

TEST(DatacenterTest, NodeDownOnDeadNodeIsSkipped) {
  ClusterConfig config = FailoverCluster();
  fault::FaultEvent again = config.serving.fault_plan.events[0];
  again.at_us = SecToUs(3.0);  // second kill of the same node
  config.serving.fault_plan.events.push_back(again);
  const ClusterResult result = RunCluster(config);
  EXPECT_EQ(result.node_faults, 1u);
  EXPECT_EQ(result.serving.faults_injected, 1u);
  EXPECT_EQ(result.serving.faults_skipped, 1u);
}

TEST(DatacenterTest, SameSeedClusterRunsAreIdentical) {
  const ClusterConfig config = FailoverCluster();
  const ClusterResult a = RunCluster(config);
  const ClusterResult b = RunCluster(config);
  EXPECT_TRUE(testutil::ClusterResultsBitIdentical(a, b));
}

// --- Golden digests, one per engine regime. ---

// Every field ClusterResultsBitIdentical compares, in its order.
std::uint64_t ClusterDigest(const ClusterResult& result) {
  testutil::BitDigest d;
  const ServingResult& s = result.serving;
  d.U64(s.models.size());
  d.F64(s.window_us);
  for (const std::size_t v : {s.scale_ups, s.scale_downs, s.scale_failures, s.faults_injected,
                              s.faults_skipped, s.replicas_lost, s.replacements,
                              s.replacement_failures, s.gpus_alive_end}) {
    d.U64(v);
  }
  d.F64(s.replica_seconds);
  for (const ModelServingResult& m : s.models) {
    d.Str(m.name);
    d.U64(static_cast<std::uint64_t>(m.tier));
    for (const std::size_t v : {m.offered, m.completed, m.slo_met, m.shed, m.dropped,
                                m.failed_over}) {
      d.U64(v);
    }
    d.F64(m.slo_attainment);
    d.F64(m.throughput_rps);
    d.U64(m.batches);
    d.F64(m.mean_batch_size);
    d.U64(static_cast<std::uint64_t>(m.final_replicas));
    for (const std::size_t v : {m.tokens, m.prefills, m.decode_steps, m.kv_evictions,
                                m.total_offered, m.total_completed, m.total_shed,
                                m.total_dropped, m.left_in_system}) {
      d.U64(v);
    }
    d.Samples(m.latency);
    d.Samples(m.queueing);
    d.Samples(m.ttft);
    d.Samples(m.tpot);
  }
  d.U64(result.nodes.size());
  d.U64(result.nodes_alive_end);
  d.U64(result.node_faults);
  d.U64(result.requests_forwarded);
  d.F64(result.request_bytes_moved);
  d.F64(result.response_bytes_moved);
  for (const NodeSummary& n : result.nodes) {
    d.U64(static_cast<std::uint64_t>(n.node));
    d.U64(n.alive_end ? 1u : 0u);
    for (const std::size_t v : {n.replicas_created, n.replicas_killed, n.batches, n.requests}) {
      d.U64(v);
    }
  }
  return d.value();
}

// Runs `config` and checks its digest against the pinned value. A change
// here means some output bit moved.
ClusterResult ExpectGolden(const ClusterConfig& config, std::uint64_t pinned) {
  ClusterResult result = RunCluster(config);
  const std::uint64_t digest = ClusterDigest(result);
  EXPECT_EQ(digest, pinned) << "seed " << config.serving.seed << std::hex << " digest 0x"
                            << digest;
  return result;
}

ClusterConfig GoldenServing(int num_nodes, std::uint64_t seed) {
  ClusterConfig config;
  config.cluster.num_nodes = num_nodes;
  config.cluster.gpus_per_node = 2;
  config.serving.seed = seed;
  config.serving.warmup_us = SecToUs(0.5);
  config.serving.duration_us = SecToUs(2.5);
  config.serving.models = {Service(ModelId::kResNet50, PriorityTier::kLatencyCritical, 200.0,
                                   MsToUs(50.0), num_nodes, 2 * num_nodes)};
  return config;
}

ClusterConfig GoldenLlm(int num_nodes, std::uint64_t seed) {
  ClusterConfig config;
  config.cluster.num_nodes = num_nodes;
  config.cluster.gpus_per_node = 1;
  config.serving.seed = seed;
  config.serving.warmup_us = SecToUs(0.5);
  config.serving.duration_us = SecToUs(2.5);
  ModelServiceConfig cfg = Service(ModelId::kLlmDecode, PriorityTier::kLatencyCritical,
                                   40.0 * num_nodes, MsToUs(200.0), num_nodes, num_nodes);
  LlmServiceConfig& llm = cfg.llm;
  llm.enabled = true;
  llm.continuous = true;
  llm.model.layers = 4;
  llm.model.hidden = 1024;
  llm.model.heads = 8;
  llm.prompt_tokens = 64;
  llm.min_decode_tokens = 4;
  llm.max_decode_tokens = 16;
  llm.ttft_slo_us = MsToUs(50.0);
  llm.tpot_slo_us = MsToUs(5.0);
  config.serving.models = {cfg};
  return config;
}

ClusterConfig GoldenNodeDown(std::uint64_t seed) {
  ClusterConfig config = GoldenServing(3, seed);
  config.serving.models[0].rps = 240.0;
  fault::FaultEvent down;
  down.kind = fault::FaultKind::kNodeDown;
  down.at_us = SecToUs(1.5);
  down.node = 0;
  config.serving.fault_plan.events.push_back(down);
  return config;
}

TEST(DatacenterGoldenTest, ServingAcrossSeeds) {
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {
      {1u, 0x6871ce55325480e2ULL}, {7u, 0xf7b753fe64582c70ULL}, {42u, 0x124a91859b1bb9e6ULL}};
  for (const auto& [seed, pinned] : golden) {
    const ClusterResult result = ExpectGolden(GoldenServing(4, seed), pinned);
    EXPECT_GT(result.requests_forwarded, 0u);  // the network path ran
  }
}

TEST(DatacenterGoldenTest, ServingWithAutoscaler) {
  ClusterConfig config = GoldenServing(3, 11u);
  config.serving.models[0].rps = 320.0;
  config.serving.autoscaler.enabled = true;
  config.serving.autoscaler.eval_period_us = SecToUs(0.25);
  ExpectGolden(config, 0x6fbe92aefbb94059ULL);
}

TEST(DatacenterGoldenTest, LlmContinuousBatching) {
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {{3u, 0x4ed889ce29e5f398ULL},
                                                             {42u, 0xa47cd94adb2663bcULL}};
  for (const auto& [seed, pinned] : golden) {
    const ClusterResult result = ExpectGolden(GoldenLlm(3, seed), pinned);
    EXPECT_GT(result.serving.models[0].decode_steps, 0u);
  }
}

TEST(DatacenterGoldenTest, OversubscribedKvPaging) {
  ClusterConfig config = GoldenLlm(2, 42u);
  LlmServiceConfig& llm = config.serving.models[0].llm;
  // A cache sized for ~2 join-time footprints with long generations:
  // sequences overflow mid-decode and the engine preempts with recompute.
  llm.max_decode_tokens = 48;
  llm.kv_capacity_bytes =
      workloads::LlmKvBytesPerToken(llm.model) *
      static_cast<std::size_t>(2.2 * (llm.prompt_tokens + llm.max_decode_tokens));
  config.serving.models[0].rps = 150.0;
  const ClusterResult result = ExpectGolden(config, 0x3f790a7eaa031f4fULL);
  EXPECT_GT(result.serving.models[0].kv_evictions, 0u);
}

TEST(DatacenterGoldenTest, NodeDownFailover) {
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {{1u, 0xc0a84420daa8efc1ULL},
                                                             {2u, 0x100e7b735878683dULL}};
  for (const auto& [seed, pinned] : golden) {
    const ClusterResult result = ExpectGolden(GoldenNodeDown(seed), pinned);
    EXPECT_EQ(result.node_faults, 1u);
    EXPECT_GT(result.serving.models[0].failed_over, 0u);
  }
}

// Two node deaths mid-run: every offered request is still accounted for
// (the engine CHECKs the identity too).
TEST(DatacenterGoldenTest, NoRequestLostUnderNodeFaultChurn) {
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {{5u, 0xe03ba3a22476517dULL},
                                                             {17u, 0xd40989be5d026426ULL}};
  for (const auto& [seed, pinned] : golden) {
    ClusterConfig config = GoldenServing(4, seed);
    config.serving.models[0].rps = 240.0;
    for (int i = 0; i < 2; ++i) {
      fault::FaultEvent down;
      down.kind = fault::FaultKind::kNodeDown;
      down.at_us = SecToUs(1.0 + 0.7 * i);
      down.node = i;  // nodes 0 then 1 die mid-run
      config.serving.fault_plan.events.push_back(down);
    }
    const ClusterResult result = ExpectGolden(config, pinned);
    EXPECT_EQ(result.node_faults, 2u);
    const ModelServingResult& m = result.serving.models[0];
    EXPECT_EQ(m.total_offered,
              m.total_completed + m.total_shed + m.total_dropped + m.left_in_system);
  }
}

// A traced, attribution-enabled 3-node run with an LLM service beside a
// fixed-cost one and a node death. The digest covers the exported Chrome
// trace, metrics snapshot and attribution CSV, so a change that reorders
// spans, counters or blame rows shows up even when ClusterResult does not
// move.
TEST(DatacenterGoldenTest, NetworkedTelemetryExports) {
  ClusterConfig config = GoldenNodeDown(3u);
  ModelServiceConfig llm = GoldenLlm(3, 3u).serving.models[0];
  llm.rps = 60.0;
  llm.initial_replicas = 2;
  llm.max_replicas = 3;
  config.serving.models.push_back(llm);
  telemetry::Hub hub;
  hub.EnableTracing();
  hub.EnableAttribution();
  config.serving.telemetry = &hub;
  const ClusterResult result = RunCluster(config);
  EXPECT_EQ(result.node_faults, 1u);
  EXPECT_GT(result.serving.models[0].failed_over, 0u);
  EXPECT_GT(result.serving.models[1].decode_steps, 0u);

  std::ostringstream trace;
  std::ostringstream metrics;
  std::ostringstream blame;
  telemetry::WriteChromeTrace(hub, trace);
  telemetry::WriteMetricsCsv(hub.metrics(), metrics);
  attribution::WriteAttributionCsv(hub.attribution(), blame);
  testutil::BitDigest d;
  d.Str(trace.str());
  d.Str(metrics.str());
  d.Str(blame.str());
  EXPECT_EQ(d.value(), 0x8078b0215b2289a9ULL) << std::hex << "digest 0x" << d.value();
}

// --- Trace shape. ---

// An autoscaler evaluating in the middle of a batch must not move where the
// batch's trace slice starts: every `batch:` slice starts where the
// `execute` spans of the requests it served start, and every flow arrow
// ends at the instant it started.
TEST(DatacenterTest, BatchSlicesStartAtDispatchUnderFastAutoscaler) {
  ClusterConfig config = SmallCluster(1, 2);
  config.serving.models[0].rps = 400.0;
  config.serving.batching.max_batch_size = 16;
  config.serving.autoscaler.enabled = true;
  // Far shorter than one batch of 16 ResNet50 requests.
  config.serving.autoscaler.eval_period_us = 100.0;
  telemetry::Hub hub;
  hub.EnableTracing();
  config.serving.telemetry = &hub;
  RunCluster(config);

  struct Slice {
    TimeUs start = 0.0;
    TimeUs end = 0.0;
  };
  // Without a network a request's execute span ends with its batch, so
  // (replica, end) names the batch.
  std::map<std::pair<std::int64_t, TimeUs>, TimeUs> batch_start;
  std::map<std::int64_t, Slice> execute;       // by request id
  std::map<std::int64_t, std::int64_t> server;  // request id -> replica id
  std::map<std::uint64_t, TimeUs> flow_start;
  std::map<std::uint64_t, TimeUs> flow_end;
  for (const telemetry::TraceEvent& e : hub.spans().events()) {
    if (e.kind == telemetry::TraceEventKind::kFlowStart) {
      flow_start[e.id] = e.ts;
    } else if (e.kind == telemetry::TraceEventKind::kFlowEnd) {
      flow_end[e.id] = e.ts;
    } else if (e.kind != telemetry::TraceEventKind::kComplete) {
      continue;
    } else if (e.name.rfind("batch:", 0) == 0) {
      batch_start[{e.tid, e.ts + e.dur}] = e.ts;
    } else if (e.name == "execute") {
      execute[e.tid] = {e.ts, e.ts + e.dur};
    } else if (e.name == "request") {
      for (const auto& [key, value] : e.args) {
        if (key == "replica") {
          server[e.tid] = std::stoll(value);
        }
      }
    }
  }
  ASSERT_GT(execute.size(), 100u);
  for (const auto& [request, span] : execute) {
    const auto it = batch_start.find({server.at(request), span.end});
    ASSERT_NE(it, batch_start.end()) << "request " << request;
    EXPECT_EQ(it->second, span.start) << "request " << request;
  }
  ASSERT_EQ(flow_start.size(), flow_end.size());
  for (const auto& [id, ts] : flow_start) {
    EXPECT_EQ(flow_end.at(id), ts) << "flow " << id;
  }
}

}  // namespace
}  // namespace datacenter
}  // namespace orion
