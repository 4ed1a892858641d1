#include "src/datacenter/node_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/datacenter/cluster_engine.h"

namespace orion {
namespace datacenter {

NodeEngine::NodeEngine(int node_id, int num_gpus, ClusterContext* ctx, Accounting* accounting)
    : ctx_(ctx), accounting_(accounting), attr_(ctx->attribution) {
  ORION_CHECK(num_gpus >= 1);
  ORION_CHECK(accounting != nullptr);
  gpus_.resize(static_cast<std::size_t>(num_gpus));
  summary_.node = node_id;
}

void NodeEngine::SyncIdle(Replica& r) {
  if (attr_ && !r.busy && r.running()) {
    const TimeUs now = ctx_->sim.now();
    r.idle_accum_us += now - r.idle_since;
    r.idle_since = now;
  }
}

void NodeEngine::MarkDead() {
  summary_.alive_end = false;
  for (GpuShard& gpu : gpus_) {
    gpu.alive = false;
  }
}

std::optional<int> NodeEngine::BestPlacement(
    const cluster::JobSignature& job, cluster::PlacementEngine::PlacementScore* score) const {
  std::vector<cluster::GpuResidents> residents(gpus_.size());
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    residents[g].alive = gpus_[g].alive;
    residents[g].used_bytes = gpus_[g].used_bytes;
    for (const int id : gpus_[g].replicas) {
      residents[g].jobs.push_back(service(replica(id)).cost.signature());
    }
  }
  return cluster::PlacementEngine::BestGpuFor(job, residents, ctx_->config.device.memory_bytes,
                                              ctx_->config.max_replicas_per_gpu, score);
}

void NodeEngine::CreateReplica(std::size_t model, int local_gpu, bool active) {
  ORION_CHECK(local_gpu >= 0 && local_gpu < num_gpus());
  const int id = static_cast<int>(ctx_->replicas.size());
  Replica& r = ctx_->replicas.emplace_back(ctx_->config.batching);
  ++summary_.replicas_created;
  r.id = id;
  r.model = model;
  r.node = summary_.node;
  r.gpu = local_gpu;
  GpuShard& shard = gpus_[static_cast<std::size_t>(local_gpu)];
  shard.used_bytes += service(r).cost.state_bytes();
  shard.replicas.push_back(id);
  ctx_->services[model].replicas.push_back(id);
  if (service(r).llm_cost != nullptr) {
    const serving::LlmServiceConfig& llm = service(r).cfg.llm;
    // Carve the replica's KV cache out of whatever device memory remains
    // free on its GPU (vLLM-style), optionally capped by the service config.
    const std::size_t memory = ctx_->config.device.memory_bytes;
    const std::size_t free = memory > shard.used_bytes ? memory - shard.used_bytes : 0;
    const std::size_t capacity =
        llm.kv_capacity_bytes > 0 ? std::min(llm.kv_capacity_bytes, free) : free;
    serving::KvCacheConfig kv_config;
    kv_config.bytes_per_token = service(r).llm_cost->kv_bytes_per_token();
    kv_config.capacity_bytes = capacity;
    r.llm = std::make_unique<Replica::LlmState>(kv_config);
    r.llm->kv_reserved_bytes = capacity;
    shard.used_bytes += capacity;
    // Progress guarantee for the eviction loop: a lone sequence must always
    // fit, or it could be preempted forever without finishing.
    const int worst = llm.prompt_tokens + std::max(1, llm.max_decode_tokens);
    ORION_CHECK_MSG(static_cast<std::size_t>(r.llm->kv.BlocksForTokens(worst)) <=
                        r.llm->kv.total_blocks(),
                    "LLM replica KV cache cannot hold one full sequence");
  }
  if (active) {
    Activate(id);
  }
}


void NodeEngine::EnqueueAt(int id, serving::Request request) {
  Replica& r = replica(id);
  if (attr_) {
    // Close the wire (or failover) interval and open kQueue; the idle
    // snapshot lets LeaveQueue split the wait into linger vs capacity.
    SyncIdle(r);
    request.ledger.EnterQueue(ctx_->sim.now(), r.idle_accum_us);
  }
  r.batcher.Enqueue(std::move(request), ctx_->sim.now());
  TryDispatch(id);
}

void NodeEngine::TryDispatch(int id) {
  Replica& r = replica(id);
  if (r.busy || r.batcher.empty() || !r.running()) {
    return;
  }
  if (r.llm != nullptr && service(r).cfg.llm.continuous) {
    // Iteration-level batching has no linger: a free LLM replica starts its
    // next step immediately and arrivals join running iterations as steps
    // complete.
    TryStepLlm(id);
    return;
  }
  Simulator& sim = ctx_->sim;
  sim.Cancel(r.linger);
  if (r.batcher.ShouldDispatch(sim.now())) {
    r.dispatch_reason = r.state == Replica::State::kDraining
                            ? serving::DispatchReason::kDrain
                            : r.batcher.WhyDispatch(sim.now());
    StartBatch(id);
    return;
  }
  // Linger for more requests: wake at the oldest request's delay bound.
  r.linger = sim.ScheduleAt(r.batcher.LingerDeadline(), [this, id] { TryDispatch(id); });
}

void NodeEngine::StartBatch(int id) {
  Replica& r = replica(id);
  const TimeUs now = ctx_->sim.now();
  SyncIdle(r);
  if (r.llm == nullptr) {
    r.batcher.TakeBatchInto(&r.in_flight);  // reuses the replica's buffer
  } else {
    // Request-level LLM batching (llm.continuous off), the baseline where a
    // batch decodes to its longest target before anything completes. It
    // reserves each sequence's FULL KV footprint up front (no mid-batch
    // eviction); the batch is capped by what fits.
    r.in_flight.clear();
    while (static_cast<int>(r.in_flight.size()) < ctx_->batch_limit() && !r.batcher.empty()) {
      const serving::Request& head = r.batcher.Front();
      if (!r.llm->kv.TryReserve(head.id, head.prompt_tokens + std::max(1, head.target_tokens))) {
        break;
      }
      r.in_flight.push_back(r.batcher.PopFront());
    }
    // A free replica's cache is empty, and one full sequence always fits.
    ORION_CHECK(!r.in_flight.empty());
  }
  for (serving::Request& request : r.in_flight) {
    request.start_service_us = now;
    if (attr_) {
      request.ledger.LeaveQueue(now, r.idle_accum_us, attribution::Phase::kExecute);
    }
  }
  if (r.llm == nullptr) {
    const int batch = static_cast<int>(r.in_flight.size());
    Occupy(r, service(r).cost.BatchServiceUs(batch), Slowdown(r), &NodeEngine::OnBatchComplete);
    return;
  }
  const serving::LlmBatchBreakdown breakdown =
      service(r).llm_cost->RequestLevelBatchUs(r.in_flight);
  const double slowdown = Slowdown(r);
  for (serving::Request& seq : r.in_flight) {
    // All prefills run up front; every first token lands when they finish.
    // A first token already delivered (failover orphan re-served after its
    // replica died mid-decode) stays delivered: re-prefilling recomputes
    // context the client has already streamed past.
    if (seq.first_token_us < 0.0) {
      seq.first_token_us = now + breakdown.prefill_us * slowdown;
    }
    seq.generated = seq.target_tokens;  // the batch runs to completion
  }
  Occupy(r, breakdown.total_us, slowdown, &NodeEngine::OnBatchComplete);
}

void NodeEngine::Occupy(Replica& r, DurationUs iso_us, double slowdown,
                        void (NodeEngine::*done)(int)) {
  const TimeUs now = ctx_->sim.now();
  const DurationUs busy_us = iso_us * slowdown;
  if (attr_) {
    r.batch_iso_us = iso_us;
  }
  r.busy = true;
  r.batch_start = now;
  r.eval_counted_to = now;
  r.busy_until = now + busy_us;
  const int id = r.id;
  r.completion = ctx_->sim.ScheduleAfter(busy_us, [this, id, done] { (this->*done)(id); });
}

void NodeEngine::Vacate(Replica& r) {
  const TimeUs now = ctx_->sim.now();
  r.busy_in_eval_window_us += now - r.eval_counted_to;
  r.busy = false;
  if (attr_) {
    r.idle_since = now;
  }
}

void NodeEngine::OnBatchComplete(int id) {
  Replica& r = replica(id);
  const TimeUs now = ctx_->sim.now();
  ++summary_.batches;
  summary_.requests += r.in_flight.size();
  if (attr_) {
    // Split the batch's service time into its isolated price (kExecute) and
    // the collocation stall (kInterference) before the accounting finalizes.
    for (serving::Request& request : r.in_flight) {
      request.ledger.ChargeExecStep(now, r.batch_iso_us);
    }
  }
  accounting_->OnBatchServed(r);  // reads r.in_flight / batch_start / reason
  if (r.llm != nullptr) {
    // Request-level LLM baseline: the whole batch's KV lives until the
    // longest generation finished, i.e. right now.
    for (const serving::Request& seq : r.in_flight) {
      r.llm->kv.Free(seq.id);
    }
  }
  r.in_flight.clear();
  Vacate(r);
  if (r.state == Replica::State::kDraining && r.batcher.empty()) {
    RetireReplica(r);
    return;
  }
  TryDispatch(id);
}

// --- Continuous (iteration-level) LLM batching. -----------------------------

void NodeEngine::TryStepLlm(int id) {
  Replica& r = replica(id);
  ORION_CHECK(!r.busy && r.running());
  Replica::LlmState& st = *r.llm;
  const serving::LlmCostModel& cost = *service(r).llm_cost;
  const TimeUs now = ctx_->sim.now();
  SyncIdle(r);

  // 1. Reserve KV for the token every running sequence produces this step,
  //    preempting the newest sequence (possibly the one being extended) on
  //    allocation failure. The creation-time capacity check guarantees a
  //    lone sequence always fits, so this loop terminates with progress.
  std::size_t i = 0;
  while (i < r.in_flight.size()) {
    serving::Request& seq = r.in_flight[i];
    if (st.kv.TryReserve(seq.id, seq.prompt_tokens + seq.generated + 1)) {
      ++i;
      continue;
    }
    PreemptNewestLlm(r);
  }

  // 2. Join sequences from the queue head while batch slots and KV capacity
  //    allow; stop at the first that does not fit (head-of-line order is
  //    the batcher's FIFO order).
  st.joined_this_step = 0;
  DurationUs prefill_us = 0.0;
  while (static_cast<int>(r.in_flight.size()) < ctx_->batch_limit() && !r.batcher.empty()) {
    const serving::Request& head = r.batcher.Front();
    if (!st.kv.TryReserve(head.id, head.prompt_tokens + head.generated + 1)) {
      break;
    }
    serving::Request seq = r.batcher.PopFront();
    seq.start_service_us = now;
    if (attr_) {
      // Fresh joiners close kQueue (split against linger); evicted rejoiners
      // close kPreempt — their whole rejoin wait is recompute, not queueing.
      seq.ledger.LeaveQueue(now, r.idle_accum_us, attribution::Phase::kExecute);
    }
    // Fresh sequences prefill their prompt; evicted rejoiners recompute
    // prompt + generated (preemption with recompute).
    prefill_us += cost.PrefillUs(seq.prompt_tokens + seq.generated);
    r.in_flight.push_back(std::move(seq));
    ++st.joined_this_step;
  }
  if (r.in_flight.empty()) {
    if (r.state == Replica::State::kDraining && r.batcher.empty()) {
      RetireReplica(r);
    }
    return;
  }

  // 3. One iteration: every joiner's prefill plus one decode step for the
  //    sequences that were already running.
  const int decoding = static_cast<int>(r.in_flight.size()) - st.joined_this_step;
  DurationUs step_us = prefill_us;
  if (decoding > 0) {
    long context_sum = 0;
    for (int d = 0; d < decoding; ++d) {
      const serving::Request& seq = r.in_flight[static_cast<std::size_t>(d)];
      context_sum += seq.prompt_tokens + seq.generated;
    }
    step_us += cost.DecodeStepUs(decoding, static_cast<int>(context_sum / decoding));
  }
  r.dispatch_reason = serving::DispatchReason::kContinuous;
  Occupy(r, step_us, Slowdown(r), &NodeEngine::OnLlmStepComplete);
}

void NodeEngine::OnLlmStepComplete(int id) {
  Replica& r = replica(id);
  Replica::LlmState& st = *r.llm;
  const TimeUs now = ctx_->sim.now();
  const TimeUs start = r.batch_start;
  ++summary_.batches;
  if (attr_) {
    // Charge the step to every participant before tokens are assigned, so a
    // first-token snapshot below sums exactly to TTFT.
    for (serving::Request& seq : r.in_flight) {
      seq.ledger.ChargeExecStep(now, r.batch_iso_us);
    }
  }
  // Every sequence in the step emitted exactly one token: joiners their
  // first (from the prefill; rejoiners their next, the recompute re-derived
  // the earlier ones), running sequences their next from the decode step.
  const std::size_t n = r.in_flight.size();
  for (std::size_t i = 0; i < n; ++i) {
    serving::Request& seq = r.in_flight[i];
    const bool joined = i >= n - static_cast<std::size_t>(st.joined_this_step);
    if (joined && seq.first_token_us < 0.0) {
      seq.first_token_us = now;
      if (attr_) {
        seq.ledger.MarkFirstToken();
      }
    } else {
      ++seq.generated;
    }
  }
  accounting_->OnDecodeStep(r, static_cast<int>(n), st.joined_this_step, start, now);
  st.joined_this_step = 0;
  Vacate(r);
  // Finished sequences leave the iteration and release their KV.
  for (std::size_t i = 0; i < r.in_flight.size();) {
    if (r.in_flight[i].generated >= r.in_flight[i].target_tokens) {
      serving::Request seq = std::move(r.in_flight[i]);
      r.in_flight.erase(r.in_flight.begin() + static_cast<long>(i));
      st.kv.Free(seq.id);
      ++summary_.requests;
      accounting_->OnSequenceFinished(r, seq, start, now);
    } else {
      ++i;
    }
  }
  if (r.state == Replica::State::kDraining && r.in_flight.empty() && r.batcher.empty()) {
    RetireReplica(r);
    return;
  }
  TryStepLlm(id);
}

void NodeEngine::PreemptNewestLlm(Replica& r) {
  ORION_CHECK(!r.in_flight.empty());
  serving::Request seq = std::move(r.in_flight.back());
  r.in_flight.pop_back();
  if (r.llm->kv.Holds(seq.id)) {
    r.llm->kv.Free(seq.id);
  }
  ++seq.evictions;
  if (attr_) {
    // Requeue bypasses EnqueueAt, so the rejoin wait stays open on kPreempt
    // until the sequence rejoins a step (recompute wait, not queueing).
    seq.ledger.Advance(ctx_->sim.now(), attribution::Phase::kPreempt);
  }
  accounting_->OnKvEviction(r, seq);
  r.batcher.Requeue(std::move(seq));
}

void NodeEngine::DrainReplica(int id) {
  Replica& r = replica(id);
  r.state = Replica::State::kDraining;
  if (!r.busy && r.batcher.empty() && r.in_flight.empty()) {
    RetireReplica(r);
  }
}

void NodeEngine::Release(const Replica& r) {
  GpuShard& shard = gpus_[static_cast<std::size_t>(r.gpu)];
  shard.used_bytes -= service(r).cost.state_bytes();
  if (r.llm != nullptr) {
    shard.used_bytes -= r.llm->kv_reserved_bytes;
  }
  shard.replicas.erase(std::find(shard.replicas.begin(), shard.replicas.end(), r.id));
  std::vector<int>& live = ctx_->services[r.model].replicas;
  live.erase(std::find(live.begin(), live.end(), r.id));
}

void NodeEngine::RetireReplica(Replica& r) {
  ORION_CHECK(!r.busy && r.batcher.empty());
  ORION_CHECK_MSG(r.llm == nullptr || r.llm->kv.used_blocks() == 0,
                  "retiring LLM replica leaks KV-cache blocks");
  ctx_->sim.Cancel(r.linger);
  accounting_->AccountReplicaTime(r.active_since);
  Release(r);
  r.state = Replica::State::kDead;
}

std::vector<serving::Request> NodeEngine::KillReplica(int id) {
  Replica& r = replica(id);
  ORION_CHECK(r.state != Replica::State::kDead);
  Simulator& sim = ctx_->sim;
  const TimeUs now = sim.now();
  sim.Cancel(r.completion);
  sim.Cancel(r.linger);
  if (attr_) {
    SyncIdle(r);
    // In-flight work dies with the replica: the partial batch/step time the
    // orphans already spent is wasted, so it reclassifies as kPreempt (not
    // execute), and the open phase stays kPreempt through re-routing.
    for (serving::Request& request : r.in_flight) {
      request.ledger.AdvanceInto(now, attribution::Phase::kPreempt,
                                 attribution::Phase::kPreempt);
    }
  }
  std::vector<serving::Request> orphans = std::move(r.in_flight);  // leaves it empty
  for (serving::Request& request : r.batcher.Drain()) {
    if (attr_) {
      // Queued orphans close their queue wait here; the re-route leg that
      // follows is preemption fallout, not fresh queueing.
      request.ledger.LeaveQueue(now, r.idle_accum_us, attribution::Phase::kPreempt);
    }
    orphans.push_back(std::move(request));
  }
  if (r.llm != nullptr) {
    // The KV cache died with the replica: orphaned sequences recompute from
    // their prompt wherever they rehome. A first token that had genuinely
    // been delivered stays delivered; one merely scheduled (request-level
    // batch still running) is lost with the batch.
    for (serving::Request& request : orphans) {
      request.generated = 0;
      if (request.first_token_us > now) {
        request.first_token_us = -1.0;
      }
    }
  }
  if (r.running()) {
    accounting_->AccountReplicaTime(r.active_since);
  }
  r.busy = false;
  Release(r);
  r.state = Replica::State::kDead;
  ++summary_.replicas_killed;
  return orphans;
}

DurationUs NodeEngine::OutstandingUs(const Replica& r) const {
  const TimeUs now = ctx_->sim.now();
  DurationUs work = r.busy ? std::max(0.0, r.busy_until - now) : 0.0;
  const std::size_t queued = r.batcher.size();
  if (queued == 0) {
    return work;
  }
  const int max_batch = ctx_->batch_limit();
  const auto cap = static_cast<std::size_t>(max_batch);
  if (r.llm != nullptr) {
    // Predicted TTFT contribution of routing a new sequence here: the
    // running step's remainder, plus the queue ahead of it, plus its own
    // prefill. With continuous batching at most max_batch sequences join
    // per step, so the queue costs one typical step per join round; the
    // request-level baseline pays whole straggler-padded batches instead.
    const serving::LlmCostModel& cost = *service(r).llm_cost;
    const serving::LlmServiceConfig& llm = service(r).cfg.llm;
    const double slowdown = Slowdown(r);
    if (llm.continuous) {
      const std::size_t rounds = queued / cap;
      work += static_cast<double>(rounds) * cost.TypicalStepUs(max_batch) * slowdown;
      work += cost.PrefillUs(llm.prompt_tokens) * slowdown;
    } else {
      const int est = std::min<int>(max_batch, static_cast<int>(queued));
      const int mean_target = (llm.min_decode_tokens + llm.max_decode_tokens) / 2;
      const DurationUs batch_us =
          static_cast<double>(est) * cost.PrefillUs(llm.prompt_tokens) +
          static_cast<double>(mean_target) * cost.TypicalStepUs(est);
      const std::size_t batches = (queued + cap - 1) / cap;
      work += static_cast<double>(batches) * batch_us * slowdown;
    }
    return work;
  }
  const int batch = std::min<int>(max_batch, static_cast<int>(queued));
  work += static_cast<double>(queued) * service(r).cost.PerRequestUs(batch) * Slowdown(r);
  return work;
}

double NodeEngine::Slowdown(const Replica& r) const {
  const GpuShard& shard = gpus_[static_cast<std::size_t>(r.gpu)];
  double pressure = 0.0;
  for (const int id : shard.replicas) {
    const Replica& other = replica(id);
    if (other.id == r.id || !other.running()) {
      continue;  // provisioning replicas hold memory but run no kernels yet
    }
    pressure += cluster::PairInterference(service(r).cost.signature(),
                                          service(other).cost.signature());
  }
  return serving::InterferenceSlowdown(service(r).cfg.tier, pressure);
}

}  // namespace datacenter
}  // namespace orion
