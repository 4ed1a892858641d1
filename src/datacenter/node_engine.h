// Per-node serving engine: one node's GPUs and batch dispatch.
//
// The node engine is the lower half of the split single-node serving engine:
// it owns within-node placement (least added interference via
// cluster::PlacementEngine::BestGpuFor), the batcher/linger machinery and
// batch service timing with interference slowdown for the replicas on its
// GPUs — everything whose scope is one node. The ControlPlane
// (cluster_engine.h) owns arrivals, admission, node selection, limbo,
// autoscaling and faults and calls in here; the node reports its batch
// events straight to the Accounting (cluster_engine.h).
//
// Replicas live in one store on the ClusterContext, indexed by their global
// id (creation order across the cluster); a node addresses its replicas by
// that id too. Event ordering and arithmetic on the single-node path are
// bit-identical to the pre-split engine — that is the N=1 compatibility
// contract the datacenter tests pin down.
#ifndef SRC_DATACENTER_NODE_ENGINE_H_
#define SRC_DATACENTER_NODE_ENGINE_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/placement.h"
#include "src/datacenter/cluster.h"
#include "src/datacenter/cluster_topology.h"
#include "src/serving/batch_cost.h"
#include "src/serving/batcher.h"
#include "src/serving/kv_cache.h"
#include "src/serving/llm_cost.h"
#include "src/serving/request.h"
#include "src/sim/simulator.h"

namespace orion {
namespace datacenter {

// One replica process of a model service, resident on one GPU of one node.
// Same lifecycle as the pre-split engine's ReplicaState.
struct Replica {
  explicit Replica(const serving::BatchingConfig& batching) : batcher(batching) {}

  // Per-replica LLM serving state (services with llm.enabled). The KV cache
  // is carved out of the replica's GPU memory at creation; `in_flight` then
  // doubles as the RUNNING SET of the continuous-batching iteration (join
  // order = age order; the newest sequence is the eviction victim).
  struct LlmState {
    explicit LlmState(const serving::KvCacheConfig& kv_config) : kv(kv_config) {}
    serving::KvCacheAllocator kv;
    std::size_t kv_reserved_bytes = 0;  // counted against the GPU shard
    int joined_this_step = 0;  // trailing in_flight entries that prefilled this step
  };

  // Provisioning replicas hold memory but run no kernels yet; dead ones
  // hold nothing.
  bool running() const { return state == State::kActive || state == State::kDraining; }

  int id = -1;        // global replica id (creation order across the cluster)
  std::size_t model = 0;
  int node = -1;
  int gpu = -1;       // local GPU index within the node
  enum class State { kProvisioning, kActive, kDraining, kDead } state = State::kProvisioning;
  serving::DynamicBatcher batcher;
  std::vector<serving::Request> in_flight;
  std::unique_ptr<LlmState> llm;  // null for fixed-cost services
  bool busy = false;
  TimeUs busy_until = 0.0;
  TimeUs batch_start = 0.0;
  serving::DispatchReason dispatch_reason = serving::DispatchReason::kFullBatch;
  EventHandle completion;
  EventHandle linger;
  TimeUs active_since = 0.0;
  // Autoscaler utilization signal: busy time in the current evaluation
  // window, and how far into the running batch it has been counted (an
  // evaluation in mid-batch counts the elapsed part and moves the cursor).
  double busy_in_eval_window_us = 0.0;
  TimeUs eval_counted_to = 0.0;

  // Latency-attribution bookkeeping (only maintained when the run has
  // attribution on — zero work otherwise). batch_iso_us is the in-flight
  // batch/step's isolated-roofline cost (pre-slowdown), the kExecute price;
  // idle_accum_us/idle_since integrate the replica's idle time so the ledger
  // can split queue wait into capacity-bound kQueue vs linger (DESIGN.md §15).
  double batch_iso_us = 0.0;
  double idle_accum_us = 0.0;
  TimeUs idle_since = 0.0;
};

// One model service as every part of a cluster run reads it.
struct Service {
  serving::ModelServiceConfig cfg;
  serving::BatchCostModel cost;
  // Per-phase LLM costs; null unless cfg.llm.enabled (its presence is the
  // engine-wide "is this an LLM service" predicate).
  std::unique_ptr<serving::LlmCostModel> llm_cost;
  // Ids of the service's live (not dead or retired) replicas, in creation
  // order. The node engines add and remove them; the control plane scans
  // them on every arrival.
  std::vector<int> replicas;
};

// What every part of a cluster run shares: the clock, the run config, the
// service table and the replica store. Built once by the engine.
struct ClusterContext {
  explicit ClusterContext(const ClusterConfig& cluster_config);

  bool InWindow(TimeUs t) const { return t >= config.warmup_us && t <= horizon; }
  bool network_on() const { return spec.num_nodes > 1; }
  int GlobalGpu(const Replica& r) const { return topo.GlobalGpu(r.node, r.gpu); }
  // The most requests one dispatch takes.
  int batch_limit() const { return config.batching.enabled ? config.batching.max_batch_size : 1; }

  Simulator sim;
  serving::ServingConfig config;
  ClusterSpec spec;
  ClusterTopology topo;
  TimeUs horizon;
  // Per-request latency attribution (a hub with EnableAttribution). When
  // false no part touches a request's ledger.
  bool attribution;
  std::vector<Service> services;
  std::deque<Replica> replicas;  // by global id; stable addresses
};

struct GpuShard {
  bool alive = true;
  std::size_t used_bytes = 0;
  std::vector<int> replicas;  // ids of resident (non-dead) replicas
};

class Accounting;  // cluster_engine.h: handles the node's batch events

class NodeEngine {
 public:
  NodeEngine(int node_id, int num_gpus, ClusterContext* ctx, Accounting* accounting);
  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  bool alive() const { return summary_.alive_end; }
  // Marks the node and every GPU on it dead. Replicas are killed separately
  // (KillReplica per id) so the control plane can account each one.
  void MarkDead();

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  GpuShard& gpu(int local) { return gpus_[static_cast<std::size_t>(local)]; }
  const GpuShard& gpu(int local) const { return gpus_[static_cast<std::size_t>(local)]; }

  // Least-interference GPU for a new replica of `job` on this node, with the
  // (added interference, resident count) score for cross-node comparison.
  // nullopt when nothing fits (or the node is dead).
  std::optional<int> BestPlacement(const cluster::JobSignature& job,
                                   cluster::PlacementEngine::PlacementScore* score) const;

  // Appends a replica of `model` on `local_gpu` to the store; its id is its
  // index there. Active immediately when `active`, else left provisioning
  // until the control plane calls Activate.
  void CreateReplica(std::size_t model, int local_gpu, bool active);
  void Activate(int id) {
    Replica& r = replica(id);
    r.state = Replica::State::kActive;
    r.active_since = ctx_->sim.now();
    r.idle_since = ctx_->sim.now();  // the idle clock starts with the replica
  }

  // Queues a routed request at replica `id` and dispatches if a batch is ready.
  void EnqueueAt(int id, serving::Request request);

  // Stops routing to `id`; the replica retires once idle and empty.
  void DrainReplica(int id);

  // Kills `id` (fault path): cancels its events, releases its GPU, and
  // returns the orphaned requests (in-flight batch first, then the queue)
  // for the control plane to re-route.
  std::vector<serving::Request> KillReplica(int id);

  // Predicted time to drain everything ahead of a new arrival at `r`.
  DurationUs OutstandingUs(const Replica& r) const;

  // This node's activity so far; alive_end is its current liveness.
  const NodeSummary& summary() const { return summary_; }

 private:
  Replica& replica(int id) { return ctx_->replicas[static_cast<std::size_t>(id)]; }
  const Replica& replica(int id) const { return ctx_->replicas[static_cast<std::size_t>(id)]; }
  const Service& service(const Replica& r) const { return ctx_->services[r.model]; }

  void TryDispatch(int id);
  void StartBatch(int id);
  void OnBatchComplete(int id);
  // Puts `r` to work for `iso_us` of isolated service time scaled by
  // `slowdown`, then calls `done(r.id)`.
  void Occupy(Replica& r, DurationUs iso_us, double slowdown, void (NodeEngine::*done)(int));
  // Ends `r`'s batch or step: the autoscaler window takes the rest of its
  // busy time and the idle clock restarts.
  void Vacate(Replica& r);
  // Continuous (iteration-level) batching, Orca-style: one decode step at a
  // time; sequences join/leave between steps (DESIGN.md §13).
  void TryStepLlm(int id);
  void OnLlmStepComplete(int id);
  // Frees the newest running sequence's KV and requeues it (preemption with
  // recompute under KV pressure, vLLM-style).
  void PreemptNewestLlm(Replica& r);
  void RetireReplica(Replica& r);
  // Frees `r`'s GPU memory and drops it from its GPU's and its service's
  // replica lists (retirement and death).
  void Release(const Replica& r);
  // Folds [idle_since, now] into idle_accum_us for an idle running replica
  // (attribution only; a no-op when it is off).
  void SyncIdle(Replica& r);
  // Interference slowdown from `r`'s running GPU co-residents.
  double Slowdown(const Replica& r) const;

  ClusterContext* ctx_;
  Accounting* accounting_;
  bool attr_;  // ctx_->attribution
  std::vector<GpuShard> gpus_;
  NodeSummary summary_;  // the node's id, liveness and counters
};

}  // namespace datacenter
}  // namespace orion

#endif  // SRC_DATACENTER_NODE_ENGINE_H_
