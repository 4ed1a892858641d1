// Per-node serving engine: one node's GPUs, replicas and batch dispatch.
//
// The node engine is the lower half of the split single-node serving engine:
// it owns replica state, within-node placement (least added interference via
// cluster::PlacementEngine::BestGpuFor), the batcher/linger machinery and
// batch service timing with interference slowdown — everything whose scope
// is one node. The global control plane (cluster_engine.cc) owns arrivals,
// admission, node selection, limbo, autoscaling, faults and ALL request
// accounting; it reaches in through the NodeHost interface the engine calls
// back on, and through replica slot accessors when it needs to iterate the
// fleet (views for routing, autoscaler signals, finalization).
//
// Replica ids are allocated globally by the control plane (creation order
// across the cluster, as before the split); a node addresses its own
// replicas by slot. Event ordering and arithmetic on the single-node path
// are bit-identical to the pre-split engine — that is the N=1 compatibility
// contract the datacenter tests pin down.
#ifndef SRC_DATACENTER_NODE_ENGINE_H_
#define SRC_DATACENTER_NODE_ENGINE_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/placement.h"
#include "src/serving/batch_cost.h"
#include "src/serving/batcher.h"
#include "src/serving/kv_cache.h"
#include "src/serving/llm_cost.h"
#include "src/serving/request.h"
#include "src/sim/simulator.h"

namespace orion {
namespace datacenter {

class NodeEngine;

// One replica process of a model service, resident on one of the node's
// GPUs. Same lifecycle as the pre-split engine's ReplicaState.
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
  double busy_in_eval_window_us = 0.0;  // autoscaler utilization signal

  // Latency-attribution bookkeeping (only maintained when the host reports
  // attribution() — zero work otherwise). batch_iso_us is the in-flight
  // batch/step's isolated-roofline cost (pre-slowdown), the kExecute price;
  // idle_accum_us/idle_since integrate the replica's idle time so the ledger
  // can split queue wait into capacity-bound kQueue vs linger (DESIGN.md §15).
  double batch_iso_us = 0.0;
  double idle_accum_us = 0.0;
  TimeUs idle_since = 0.0;
};

struct GpuShard {
  bool alive = true;
  std::size_t used_bytes = 0;
  std::vector<int> replicas;  // slots of resident (non-dead) replicas
};

// What the node engine needs from the global control plane.
class NodeHost {
 public:
  virtual ~NodeHost() = default;

  virtual Simulator& sim() = 0;
  virtual const serving::BatchingConfig& batching_config() const = 0;
  virtual const serving::BatchCostModel& model_cost(std::size_t model) const = 0;
  virtual serving::PriorityTier model_tier(std::size_t model) const = 0;

  // LLM serving hooks. model_llm returns null for fixed-cost services;
  // model_llm_cost may only be called for models where it is non-null.
  virtual const serving::LlmServiceConfig* model_llm(std::size_t model) const = 0;
  virtual const serving::LlmCostModel& model_llm_cost(std::size_t model) const = 0;
  // Per-GPU device memory, the budget replica state + KV caches carve from.
  virtual std::size_t gpu_memory_bytes() const = 0;

  // A batch just finished on `replica` (its in_flight holds the batch, its
  // batch_start/dispatch_reason describe it). The host owns per-request
  // completion accounting, spans, and the response network leg.
  virtual void OnBatchServed(NodeEngine& node, Replica& replica) = 0;

  // One continuous-batching decode step finished on `replica`: `batch`
  // sequences each emitted one token between `start` and `end`, of which
  // `prefills` joined (and prefilled) this step. Fires before sequence
  // completions, so the host sees the step that produced them.
  virtual void OnDecodeStep(NodeEngine& node, Replica& replica, int batch, int prefills,
                            TimeUs start, TimeUs end) = 0;

  // `request` finished its generation during the step [step_start, step_end].
  // The host owns completion accounting (TTFT/TPOT) and the response leg.
  virtual void OnSequenceFinished(NodeEngine& node, Replica& replica,
                                  const serving::Request& request, TimeUs step_start,
                                  TimeUs step_end) = 0;

  // `request` was preempted for KV-cache pressure and requeued; it will
  // recompute its context from the prompt when it rejoins.
  virtual void OnKvEviction(NodeEngine& node, Replica& replica,
                            const serving::Request& request) = 0;

  // A replica stopped running (retired or killed) after being active since
  // `active_since`; the host integrates replica-seconds.
  virtual void AccountReplicaTime(TimeUs active_since) = 0;

  // Whether per-request latency attribution is enabled for this run
  // (telemetry hub with EnableAttribution). Constant over the engine's
  // lifetime; when false the engine never touches request ledgers.
  virtual bool attribution() const = 0;
};

class NodeEngine {
 public:
  NodeEngine(int node_id, int num_gpus, NodeHost* host);
  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  int node_id() const { return node_id_; }
  bool alive() const { return alive_; }
  // Marks the node and every GPU on it dead. Replicas are killed separately
  // (KillReplica per slot) so the control plane can account each one.
  void MarkDead();

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  GpuShard& gpu(int local) { return gpus_[static_cast<std::size_t>(local)]; }
  const GpuShard& gpu(int local) const { return gpus_[static_cast<std::size_t>(local)]; }

  Replica& replica(int slot) { return replicas_[static_cast<std::size_t>(slot)]; }
  const Replica& replica(int slot) const { return replicas_[static_cast<std::size_t>(slot)]; }

  // Least-interference GPU for a new replica of `job` on this node, with the
  // (added interference, resident count) score for cross-node comparison.
  // nullopt when nothing fits (or the node is dead).
  std::optional<int> BestPlacement(const cluster::JobSignature& job,
                                   std::size_t gpu_memory_bytes, int max_replicas_per_gpu,
                                   cluster::PlacementEngine::PlacementScore* score) const;

  // Creates a replica with global id `id` on `local_gpu`; returns its slot.
  // Active immediately when `active`, else left provisioning (the control
  // plane schedules activation).
  int CreateReplica(int id, std::size_t model, int local_gpu, bool active, TimeUs now);

  // Queues a routed request at `slot` and dispatches if a batch is ready.
  void EnqueueAt(int slot, serving::Request request);

  // Stops routing to `slot`; the replica retires once idle and empty.
  void DrainReplica(int slot);

  // Kills `slot` (fault path): cancels its events, releases its GPU, and
  // returns the orphaned requests (in-flight batch first, then the queue)
  // for the control plane to re-route.
  std::vector<serving::Request> KillReplica(int slot);

  // Predicted time to drain everything ahead of a new arrival at `r`.
  DurationUs OutstandingUs(const Replica& r) const;
  // Interference slowdown from `r`'s running GPU co-residents.
  double Slowdown(const Replica& r) const;

  std::size_t batches_served() const { return batches_served_; }
  std::size_t requests_served() const { return requests_served_; }
  std::size_t replicas_created() const { return replicas_.size(); }
  std::size_t replicas_killed() const { return replicas_killed_; }

 private:
  void TryDispatch(int slot);
  void StartBatch(int slot);
  void OnBatchComplete(int slot);
  // Continuous (iteration-level) batching, Orca-style: one decode step at a
  // time; sequences join/leave between steps (DESIGN.md §13).
  void TryStepLlm(int slot);
  void OnLlmStepComplete(int slot);
  // Frees the newest running sequence's KV and requeues it (preemption with
  // recompute under KV pressure, vLLM-style).
  void PreemptNewestLlm(int slot);
  // Request-level LLM batching (llm.continuous off): the baseline where a
  // batch decodes to its longest target before anything completes.
  void StartLlmBatch(int slot);
  void RetireReplica(int slot);
  void ReleaseFromGpu(int slot);
  // Folds [idle_since, now] into idle_accum_us for a non-busy replica.
  // Attribution-only bookkeeping; callers guard on attr_.
  void SyncIdle(Replica& r);

  int node_id_;
  bool alive_ = true;
  NodeHost* host_;
  bool attr_ = false;  // host_->attribution(), cached at construction
  std::vector<GpuShard> gpus_;
  std::deque<Replica> replicas_;  // stable addresses; indexed by slot
  std::size_t batches_served_ = 0;
  std::size_t requests_served_ = 0;
  std::size_t replicas_killed_ = 0;
};

}  // namespace datacenter
}  // namespace orion

#endif  // SRC_DATACENTER_NODE_ENGINE_H_
