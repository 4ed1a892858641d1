#include "src/datacenter/cluster_engine.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/trace/diurnal.h"

namespace orion {
namespace datacenter {

namespace {

using serving::Request;
using serving::RouteReason;

std::unique_ptr<trace::ArrivalProcess> MakeArrivals(const serving::ModelServiceConfig& cfg) {
  switch (cfg.arrivals) {
    case serving::ArrivalKind::kPoisson:
      return trace::MakePoisson(cfg.rps);
    case serving::ArrivalKind::kApollo:
      return trace::MakeApollo(cfg.rps);
    case serving::ArrivalKind::kDiurnal: {
      trace::DiurnalConfig diurnal = cfg.diurnal;
      if (diurnal.mean_rps <= 0.0) {
        diurnal.mean_rps = cfg.rps;
      }
      return trace::MakeDiurnal(diurnal);
    }
  }
  ORION_CHECK_MSG(false, "unknown arrival kind");
  return nullptr;
}

}  // namespace

ControlPlane::ControlPlane(ClusterContext* ctx, Accounting* accounting, Network* network)
    : ctx_(ctx),
      acct_(accounting),
      network_(network),
      router_(ctx->config.policy, ctx->services.size()),
      admission_(ctx->config.admission) {
  for (int n = 0; n < ctx->spec.num_nodes; ++n) {
    nodes_.emplace_back(n, ctx->spec.gpus_per_node, ctx, accounting);
  }
  Rng root(ctx->config.seed);
  for (std::size_t m = 0; m < ctx->services.size(); ++m) {
    services_.push_back({MakeArrivals(ctx->services[m].cfg), root.Fork(m), {}});
  }
}

void ControlPlane::Start() {
  for (std::size_t m = 0; m < services_.size(); ++m) {
    for (int i = 0; i < ctx_->services[m].cfg.initial_replicas; ++i) {
      ORION_CHECK_MSG(AddReplica(m, /*immediate=*/true),
                      "initial serving fleet does not fit on the cluster");
    }
    ScheduleArrival(m);
  }
  for (const fault::FaultEvent& event : ctx_->config.fault_plan.events) {
    const fault::FaultKind kind = event.kind;
    if (kind == fault::FaultKind::kGpuDown || kind == fault::FaultKind::kClientCrash ||
        kind == fault::FaultKind::kNodeDown) {
      ctx_->sim.ScheduleAt(event.at_us, [this, event] { ApplyFault(event); });
    } else {
      // Device/link/profile faults act below this abstraction level.
      acct_->Count(Accounting::kFaultSkipped);
    }
  }
  if (ctx_->config.autoscaler.enabled) {
    ctx_->sim.ScheduleAfter(ctx_->config.autoscaler.eval_period_us, [this] { EvalAutoscaler(); });
  }
}

// --- Arrivals, admission, two-level routing. ---

void ControlPlane::ScheduleArrival(std::size_t m) {
  ServiceState& service = services_[m];
  const DurationUs dt = service.arrivals->NextInterarrival(service.rng);
  ctx_->sim.ScheduleAfter(dt, [this, m] {
    OnArrival(m);
    ScheduleArrival(m);
  });
}

void ControlPlane::OnArrival(std::size_t m) {
  const Service& service = ctx_->services[m];
  const TimeUs now = ctx_->sim.now();
  Request request;
  request.id = next_request_id_++;
  request.model = static_cast<int>(m);
  request.arrival_us = now;
  request.deadline_us = now + service.cfg.slo_us;
  if (service.llm_cost != nullptr) {
    const serving::LlmServiceConfig& llm = service.cfg.llm;
    request.prompt_tokens = llm.prompt_tokens;
    request.target_tokens =
        llm.max_decode_tokens > llm.min_decode_tokens
            ? static_cast<int>(services_[m].rng.UniformInt(llm.min_decode_tokens,
                                                           llm.max_decode_tokens))
            : llm.min_decode_tokens;
    // Per-token SLOs supersede slo_us: the deadline admission gates on is
    // the TTFT deadline.
    request.deadline_us = now + llm.ttft_slo_us;
  }
  if (ctx_->attribution) {
    request.ledger.Begin(now);
  }
  acct_->Tally(m, Accounting::kOffered, now);

  // Admission against the least-loaded replica, which also picks the node.
  const auto [best, best_wait] = PickReplica(m);
  if (best < 0) {
    Strand(m, std::move(request), /*replacement_coming=*/false);
    return;
  }
  const Replica& r = replica(best);
  // Batch size the next dispatch will likely use: the queue ahead plus this
  // request, capped by the batcher.
  const int est_batch = std::min(ctx_->batch_limit(), static_cast<int>(r.batcher.size()) + 1);
  // LLM admission gates the TTFT deadline: the work between dispatch and
  // the first token is the prefill (the queue ahead is in best_wait).
  const DurationUs work = service.llm_cost != nullptr
                              ? service.llm_cost->PrefillUs(request.prompt_tokens)
                              : service.cost.BatchServiceUs(est_batch);
  if (!admission_.Admit(request, service.cfg.tier, best_wait, work)) {
    acct_->Tally(m, Accounting::kShed, now);
    acct_->Mark("shed", {{"service", acct_->label(m)}});
    return;
  }
  Route(r.node, std::move(request), std::nullopt);
}

std::pair<int, DurationUs> ControlPlane::PickReplica(std::size_t m) const {
  int best = -1;
  int best_node = -1;
  DurationUs best_us = std::numeric_limits<double>::infinity();
  for (const int id : ctx_->services[m].replicas) {
    const Replica& r = ctx_->replicas[static_cast<std::size_t>(id)];
    const NodeEngine& node = nodes_[static_cast<std::size_t>(r.node)];
    if (r.state != Replica::State::kActive || !node.alive()) {
      continue;
    }
    const DurationUs us = node.OutstandingUs(r);
    if (best < 0 || us < best_us || (us == best_us && r.node < best_node)) {
      best = id;
      best_node = r.node;
      best_us = us;
    }
  }
  return {best, best_us};
}

void ControlPlane::Route(int node, Request request, std::optional<RouteReason> forced) {
  if (!ctx_->network_on()) {
    Deliver(node, std::move(request), forced);
    return;
  }
  acct_->Count(Accounting::kRequestForwarded);
  request.node = node;
  if (ctx_->attribution) {
    // Closes whatever came before (fresh admission: a zero-width kQueue;
    // limbo drain: the limbo wait; failover: kPreempt) and opens the wire.
    request.ledger.Advance(ctx_->sim.now(), attribution::Phase::kNetRequest);
  }
  // A leg cut by the node's death finds no replica there and rehomes.
  const int m = request.model;
  network_->Send(node, /*to_node=*/true, kRequestBytes, m,
                 [this, node, forced, request = std::move(request)]() mutable {
                   Deliver(node, std::move(request), forced);
                 });
}

void ControlPlane::Deliver(int node, Request request, std::optional<RouteReason> forced) {
  const auto m = static_cast<std::size_t>(request.model);
  // Active replicas of `m` on `node`, sorted by global id (creation order).
  std::vector<serving::ReplicaView> views;
  const NodeEngine& engine = nodes_[static_cast<std::size_t>(node)];
  for (const int id : ctx_->services[m].replicas) {
    const Replica& r = replica(id);
    if (r.node != node || r.state != Replica::State::kActive) {
      continue;
    }
    views.push_back({id, r.batcher.size(), r.in_flight.size(), engine.OutstandingUs(r)});
  }
  if (views.empty()) {
    // The node lost its replicas while the request was on the wire
    // (network path only; the synchronous path routes against live views).
    Rehome(m, std::move(request), /*was_running=*/true);
    return;
  }
  const std::size_t idx = router_.Pick(m, views);
  request.node = node;
  request.route_reason =
      forced.has_value() ? *forced : PickReason(router_.policy(), views.size());
  nodes_[static_cast<std::size_t>(node)].EnqueueAt(views[idx].replica_id, std::move(request));
}

void ControlPlane::Strand(std::size_t m, Request request, bool replacement_coming) {
  if (replacement_coming || PendingReplicas(m) > 0) {
    services_[m].limbo.push_back(std::move(request));
  } else {
    acct_->Tally(m, Accounting::kDropped, ctx_->sim.now());
    acct_->Mark("drop", {{"service", acct_->label(m)}});
  }
}

// --- Replica lifecycle and placement. ---

bool ControlPlane::AddReplica(std::size_t m, bool immediate) {
  const Service& service = ctx_->services[m];
  int best_node = -1;
  int best_gpu = -1;
  auto best_score = std::make_pair(std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<std::size_t>::max());
  for (int n = 0; n < ctx_->spec.num_nodes; ++n) {
    const NodeEngine& node = nodes_[static_cast<std::size_t>(n)];
    if (!node.alive()) {
      continue;
    }
    cluster::PlacementEngine::PlacementScore score;
    const auto local = node.BestPlacement(service.cost.signature(), &score);
    if (!local.has_value()) {
      continue;
    }
    // Strict < with ascending node order: equivalent to the flat
    // BestGpuFor over the node-major global GPU list.
    if (score < best_score) {
      best_score = score;
      best_node = n;
      best_gpu = *local;
    }
  }
  if (best_node < 0) {
    return false;
  }
  const int id = static_cast<int>(ctx_->replicas.size());
  nodes_[static_cast<std::size_t>(best_node)].CreateReplica(m, best_gpu, immediate);
  if (!immediate && !ctx_->network_on()) {
    Provision(id);
  } else if (!immediate) {
    // Ship the model state to the node first; the provisioning delay starts
    // when the weights arrive (a leg cut by the node's death finds the
    // replica dead).
    network_->Send(best_node, /*to_node=*/true, service.cost.state_bytes(), /*service=*/-1,
                   [this, id] { Provision(id); });
  }
  return true;
}

void ControlPlane::Provision(int id) {
  const Replica& r = replica(id);
  if (r.state == Replica::State::kProvisioning) {
    ctx_->sim.ScheduleAfter(ctx_->services[r.model].cost.ProvisionUs(),
                            [this, id] { ActivateReplica(id); });
  }
}

void ControlPlane::ActivateReplica(int id) {
  Replica& r = replica(id);
  if (r.state != Replica::State::kProvisioning) {
    return;  // killed while provisioning
  }
  node_of(r).Activate(id);
  acct_->Mark("replica-active",
              {{"service", acct_->label(r.model)},
               {"replica", std::to_string(id)},
               {"gpu", std::to_string(ctx_->GlobalGpu(r))}});
  std::deque<Request>& limbo = services_[r.model].limbo;
  while (!limbo.empty()) {
    Request request = std::move(limbo.front());
    limbo.pop_front();
    const int best = PickReplica(r.model).first;
    ORION_CHECK(best >= 0);  // this replica just activated
    Route(replica(best).node, std::move(request), RouteReason::kLimboDrain);
  }
}

bool ControlPlane::RemoveOneReplica(std::size_t m) {
  int victim = -1;
  std::size_t victim_load = 0;
  for (const int id : ctx_->services[m].replicas) {
    const Replica& r = replica(id);
    if (r.state != Replica::State::kActive) {
      continue;
    }
    const std::size_t load = r.batcher.size() + r.in_flight.size();
    if (victim < 0 || load < victim_load) {
      victim = id;
      victim_load = load;
    }
  }
  if (victim < 0) {
    return false;
  }
  node_of(replica(victim)).DrainReplica(victim);
  return true;
}

int ControlPlane::PendingReplicas(std::size_t m) const {
  const std::vector<int>& ids = ctx_->services[m].replicas;
  return static_cast<int>(std::count_if(ids.begin(), ids.end(), [this](int id) {
    return ctx_->replicas[static_cast<std::size_t>(id)].state == Replica::State::kProvisioning;
  }));
}

// --- Faults and failover. ---

// A GPU, replica or node death. Faults that hit nothing alive are skipped;
// the others kill their victims in GPU order.
void ControlPlane::ApplyFault(const fault::FaultEvent& event) {
  const ClusterTopology& topo = ctx_->topo;
  std::vector<int> victims;
  switch (event.kind) {
    case fault::FaultKind::kGpuDown: {
      const int g = event.gpu;
      GpuShard* shard = nullptr;
      if (g >= 0 && g < topo.total_gpus()) {
        shard = &nodes_[static_cast<std::size_t>(topo.NodeOfGpu(g))].gpu(topo.LocalGpu(g));
      }
      if (shard == nullptr || !shard->alive) {
        acct_->Count(Accounting::kFaultSkipped);
        return;
      }
      acct_->Mark("gpu-down", {{"gpu", std::to_string(event.gpu)}});
      shard->alive = false;
      victims = shard->replicas;
      break;
    }
    case fault::FaultKind::kClientCrash:
      if (event.client < 0 || event.client >= static_cast<int>(ctx_->replicas.size()) ||
          replica(event.client).state == Replica::State::kDead) {
        acct_->Count(Accounting::kFaultSkipped);
        return;
      }
      victims = {event.client};
      break;
    default: {  // kNodeDown, the last kind Start arms
      const int n = event.node;
      if (n < 0 || n >= ctx_->spec.num_nodes || !nodes_[static_cast<std::size_t>(n)].alive()) {
        acct_->Count(Accounting::kFaultSkipped);
        return;
      }
      acct_->Count(Accounting::kNodeFault);
      acct_->Mark("node-down", {{"node", std::to_string(n)}});
      NodeEngine& node = nodes_[static_cast<std::size_t>(n)];
      node.MarkDead();
      if (ctx_->network_on()) {
        network_->Cut(n);
      }
      // Replacements never land on the dead node, so the victims are known
      // up front.
      for (int local = 0; local < node.num_gpus(); ++local) {
        const std::vector<int>& on_gpu = node.gpu(local).replicas;
        victims.insert(victims.end(), on_gpu.begin(), on_gpu.end());
      }
      break;
    }
  }
  acct_->Count(Accounting::kFaultInjected);
  for (const int id : victims) {
    KillAndRehome(id);
  }
}

// Replica death: orphaned requests re-route to surviving replicas of the
// model (or limbo/drop), and a replacement is provisioned on a surviving
// GPU. The batch on the device at the instant of death is lost with it —
// its requests restart from the queue of whichever replica inherits them.
void ControlPlane::KillAndRehome(int id) {
  Replica& r = replica(id);
  const std::size_t m = r.model;
  const bool was_running = r.running();
  std::vector<Request> orphans = node_of(r).KillReplica(id);
  acct_->Count(Accounting::kReplicaLost);
  acct_->Mark("replica-killed", {{"service", acct_->label(m)},
                                 {"replica", std::to_string(id)},
                                 {"gpu", std::to_string(ctx_->GlobalGpu(r))}});
  for (Request& request : orphans) {
    Rehome(m, std::move(request), was_running);
  }
  acct_->Count(AddReplica(m) ? Accounting::kReplacement : Accounting::kReplacementFailure);
}

void ControlPlane::Rehome(std::size_t m, Request request, bool was_running) {
  ++request.failovers;
  if (ctx_->attribution) {
    // Whatever leg the orphan was on when its replica/node died (wire,
    // queue already closed by KillReplica) ends here; everything until it
    // lands somewhere new — re-forward, limbo — is preemption fallout.
    request.ledger.Advance(ctx_->sim.now(), attribution::Phase::kPreempt);
  }
  acct_->Tally(m, Accounting::kFailedOver, ctx_->sim.now());
  const int best = PickReplica(m).first;
  if (best < 0) {
    // Failover provisions a replacement for every running replica it
    // kills, so their orphans wait in limbo for it.
    Strand(m, std::move(request), /*replacement_coming=*/was_running);
    return;
  }
  Route(replica(best).node, std::move(request), RouteReason::kFailoverRehome);
}

// --- Autoscaling. ---

void ControlPlane::EvalAutoscaler() {
  const TimeUs now = ctx_->sim.now();
  const serving::AutoscalerConfig& autoscaler = ctx_->config.autoscaler;
  for (std::size_t m = 0; m < services_.size(); ++m) {
    serving::ModelWindowSignals signals = acct_->TakeEvalWindow(m);
    signals.max_replicas = ctx_->services[m].cfg.max_replicas;
    signals.pending_replicas = PendingReplicas(m);
    double busy = 0.0;
    int active = 0;
    for (const int id : ctx_->services[m].replicas) {
      Replica& r = replica(id);
      if (!r.running()) {
        continue;
      }
      if (r.busy) {  // count the running batch's elapsed part
        r.busy_in_eval_window_us += now - r.eval_counted_to;
        r.eval_counted_to = now;
      }
      busy += r.busy_in_eval_window_us;
      r.busy_in_eval_window_us = 0.0;
      ++active;
    }
    signals.active_replicas = active;
    signals.utilization =
        active > 0 ? busy / (autoscaler.eval_period_us * static_cast<double>(active)) : 0.0;

    serving::ScaleReason reason = serving::ScaleReason::kNone;
    switch (serving::DecideWithReason(autoscaler, signals, &reason)) {
      case serving::ScaleDecision::kUp:
        if (AddReplica(m)) {
          acct_->Count(Accounting::kScaleUp);
          acct_->Mark("scale-up", {{"service", acct_->label(m)},
                                   {"reason", serving::ScaleReasonName(reason)}});
        } else {
          acct_->Count(Accounting::kScaleFailure);
          acct_->Mark("scale-failure", {{"service", acct_->label(m)}});
        }
        break;
      case serving::ScaleDecision::kDown:
        if (RemoveOneReplica(m)) {
          acct_->Count(Accounting::kScaleDown);
          acct_->Mark("scale-down", {{"service", acct_->label(m)},
                                     {"reason", serving::ScaleReasonName(reason)}});
        }
        break;
      case serving::ScaleDecision::kHold:
        break;
    }
  }
  ctx_->sim.ScheduleAfter(autoscaler.eval_period_us, [this] { EvalAutoscaler(); });
}

// --- Results. ---

void ControlPlane::Finish(ClusterResult* result) {
  for (std::size_t m = 0; m < services_.size(); ++m) {
    const ServiceState& service = services_[m];
    std::size_t left = service.limbo.size() + network_->in_flight(m);
    int final_replicas = 0;
    for (const int id : ctx_->services[m].replicas) {
      const Replica& r = replica(id);
      left += r.batcher.size() + r.in_flight.size();
      if (r.state == Replica::State::kActive) {
        ++final_replicas;
      }
      if (r.running()) {
        acct_->AccountReplicaTime(r.active_since);
      }
    }
    result->serving.models.push_back(acct_->Close(m, left, final_replicas));
  }
  for (const NodeEngine& node : nodes_) {
    for (int local = 0; local < node.num_gpus(); ++local) {
      if (node.gpu(local).alive) {
        ++result->serving.gpus_alive_end;
      }
    }
    result->nodes.push_back(node.summary());
    if (node.alive()) {
      ++result->nodes_alive_end;
    }
  }
}

}  // namespace datacenter
}  // namespace orion
