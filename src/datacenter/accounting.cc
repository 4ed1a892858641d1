#include "src/datacenter/cluster_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace datacenter {

using serving::Request;

namespace {

// Registry names of the fleet-level events, by Accounting::Event.
constexpr const char* kEventNames[Accounting::kNumEvents] = {
    "serving.scale_ups",      "serving.scale_downs",          "serving.scale_failures",
    "serving.faults_injected", "serving.faults_skipped",       "serving.replicas_lost",
    "serving.replacements",   "serving.replacement_failures", "datacenter.node_faults",
    "datacenter.requests_forwarded"};

std::size_t count(const telemetry::Counter* counter) {
  return static_cast<std::size_t>(counter->AsCount());
}

}  // namespace

Accounting::Accounting(ClusterContext* ctx, Network* network)
    : ctx_(ctx),
      network_(network),
      hub_(ctx->config.telemetry),
      metrics_(hub_ != nullptr ? &hub_->metrics() : &local_metrics_),
      services_(ctx->services.size()) {
  const bool tracing = hub_ != nullptr && hub_->tracing();
  for (std::size_t m = 0; m < services_.size(); ++m) {
    ServiceMetrics& sm = services_[m];
    const serving::ModelServiceConfig& cfg = ctx->services[m].cfg;
    sm.label = workloads::WorkloadName(cfg.workload);
    for (std::size_t prev = 0; prev < m; ++prev) {
      if (services_[prev].label == sm.label) {
        sm.label.append("#").append(std::to_string(m));
        break;
      }
    }
    const telemetry::Labels by_service = {{"service", sm.label}};
    const auto bind = [&](Outcome outcome, const char* window, const char* total) {
      sm.outcomes[outcome].window = metrics_->GetCounter(window, by_service);
      if (total != nullptr) {
        sm.outcomes[outcome].total = metrics_->GetCounter(total, by_service);
      }
    };
    bind(kOffered, "serving.offered", "serving.offered_total");
    bind(kShed, "serving.shed", "serving.shed_total");
    bind(kDropped, "serving.dropped", "serving.dropped_total");
    bind(kCompleted, "serving.completed", "serving.completed_total");
    bind(kSloMet, "serving.slo_met", nullptr);
    bind(kFailedOver, "serving.failed_over", nullptr);
    sm.batches = metrics_->GetCounter("serving.batches", by_service);
    sm.batched_requests = metrics_->GetCounter("serving.batched_requests", by_service);
    sm.latency = metrics_->GetHistogram("serving.latency_us", by_service);
    sm.queueing = metrics_->GetHistogram("serving.queueing_us", by_service);
    if (llm(m)) {
      sm.tokens = metrics_->GetCounter("serving.tokens", by_service);
      sm.prefills = metrics_->GetCounter("serving.prefills", by_service);
      sm.decode_steps = metrics_->GetCounter("serving.decode_steps", by_service);
      sm.kv_evictions = metrics_->GetCounter("serving.kv_evictions", by_service);
      sm.ttft = metrics_->GetHistogram("serving.ttft_us", by_service);
      sm.tpot = metrics_->GetHistogram("serving.tpot_us", by_service);
    }
    if (tracing) {
      sm.track = hub_->spans().Track("service:" + sm.label);
    }
    if (ctx->attribution) {
      sm.attr = &hub_->attribution().Service(sm.label);
      sm.attr->set_tier(serving::PriorityTierName(cfg.tier));
    }
  }
  for (int e = 0; e < kNumEvents; ++e) {
    // Datacenter-level instruments go to the private registry at N=1 so the
    // run exports exactly the single-node engine's metric set.
    const bool private_registry = e >= kNodeFault && !ctx->network_on();
    events_[e] = (private_registry ? local_metrics_ : *metrics_).GetCounter(kEventNames[e]);
  }
  replica_seconds_ = metrics_->GetCounter("serving.replica_seconds");
  if (tracing) {
    const ClusterTopology& topo = ctx->topo;
    control_track_ = hub_->spans().Track("serving-control");
    gpu_tracks_.reserve(static_cast<std::size_t>(topo.total_gpus()));
    for (int g = 0; g < topo.total_gpus(); ++g) {
      // Built by appending: GCC 12's -Wrestrict misfires on an inlined
      // operator+(const char*, std::string&&) at -O3.
      std::string name;
      if (ctx->network_on()) {
        name.append("n").append(std::to_string(topo.NodeOfGpu(g))).append("/");
      }
      name.append("gpu").append(std::to_string(ctx->network_on() ? topo.LocalGpu(g) : g));
      gpu_tracks_.push_back(hub_->spans().Track(name));
    }
  }
}

void Accounting::Tally(std::size_t m, Outcome outcome, TimeUs at) {
  OutcomeCounters& counters = services_[m].outcomes[outcome];
  if (counters.total != nullptr) {
    counters.total->Inc();
  }
  ++counters.eval;
  if (ctx_->InWindow(at)) {
    counters.window->Inc();
  }
}

serving::ModelWindowSignals Accounting::TakeEvalWindow(std::size_t m) {
  std::array<OutcomeCounters, kNumOutcomes>& outcomes = services_[m].outcomes;
  serving::ModelWindowSignals signals;
  signals.arrivals = outcomes[kOffered].eval;
  signals.completions = outcomes[kCompleted].eval;
  signals.slo_met = outcomes[kSloMet].eval;
  signals.shed = outcomes[kShed].eval;
  for (OutcomeCounters& counters : outcomes) {
    counters.eval = 0;
  }
  return signals;
}

void Accounting::Mark(const std::string& name, telemetry::Labels args) {
  if (control_track_ >= 0) {
    hub_->spans().Instant(control_track_, name, ctx_->sim.now(), std::move(args));
  }
}

void Accounting::OnBatchServed(Replica& r) {
  const TimeUs now = ctx_->sim.now();
  for (const Request& request : r.in_flight) {
    Respond(r, r.batch_start, now, request);
  }
  ServiceMetrics& sm = services_[r.model];
  const int batch_size = static_cast<int>(r.in_flight.size());
  if (sm.track >= 0) {
    hub_->spans().Complete(gpu_track(ctx_->GlobalGpu(r)), r.id, "batch:" + sm.label,
                           r.batch_start, now,
                           {{"batch_size", std::to_string(batch_size)},
                            {"replica", std::to_string(r.id)},
                            {"reason", serving::DispatchReasonName(r.dispatch_reason)}},
                           "batch");
  }
  if (ctx_->InWindow(now)) {
    sm.batches->Inc();
    sm.batched_requests->Inc(static_cast<double>(batch_size));
    if (llm(r.model)) {
      // Request-level LLM baseline: the batch prefilled every sequence and
      // decoded each to completion (one token from prefill + target more).
      double tokens = 0.0;
      for (const Request& request : r.in_flight) {
        tokens += 1.0 + static_cast<double>(request.target_tokens);
      }
      sm.tokens->Inc(tokens);
      sm.prefills->Inc(static_cast<double>(batch_size));
    }
  }
}

void Accounting::OnDecodeStep(Replica& r, int batch, int prefills, TimeUs start,
                              TimeUs end) {
  ServiceMetrics& sm = services_[r.model];
  if (sm.track >= 0) {
    hub_->spans().Complete(gpu_track(ctx_->GlobalGpu(r)), r.id, "step:" + sm.label, start, end,
                           {{"batch_size", std::to_string(batch)},
                            {"prefills", std::to_string(prefills)},
                            {"kv_blocks", std::to_string(r.llm->kv.used_blocks())},
                            {"replica", std::to_string(r.id)}},
                           "decode-step");
  }
  if (ctx_->InWindow(end)) {
    sm.decode_steps->Inc();
    sm.tokens->Inc(static_cast<double>(batch));  // one token per sequence
    if (prefills > 0) {
      sm.prefills->Inc(static_cast<double>(prefills));
    }
    // A step is the device-batch unit of continuous batching: count it so
    // mean_batch_size reports the mean iteration width.
    sm.batches->Inc();
    sm.batched_requests->Inc(static_cast<double>(batch));
  }
}

void Accounting::OnSequenceFinished(Replica& r, const Request& request, TimeUs step_start,
                                    TimeUs step_end) {
  Respond(r, step_start, step_end, request);
}

void Accounting::OnKvEviction(Replica& r, const Request& request) {
  ServiceMetrics& sm = services_[r.model];
  if (ctx_->InWindow(ctx_->sim.now())) {
    sm.kv_evictions->Inc();
  }
  Mark("kv-evict", {{"service", sm.label},
                    {"replica", std::to_string(r.id)},
                    {"request", std::to_string(request.id)}});
}

void Accounting::AccountReplicaTime(TimeUs active_since) {
  const TimeUs start = std::max(active_since, ctx_->config.warmup_us);
  const TimeUs end = std::min(ctx_->sim.now(), ctx_->horizon);
  if (end > start) {
    replica_seconds_->Inc(UsToSec(end - start));
  }
}

void Accounting::Respond(const Replica& r, TimeUs batch_start, TimeUs exec_end,
                         const Request& request) {
  const int gpu = ctx_->GlobalGpu(r);
  if (!ctx_->network_on()) {
    Complete(request, r.id, gpu, batch_start, exec_end, exec_end);
    return;
  }
  Request response = request;
  if (ctx_->attribution) {
    response.ledger.Advance(ctx_->sim.now(), attribution::Phase::kNetResponse);
  }
  network_->Send(r.node, /*to_node=*/false, kResponseBytes, request.model,
                 [this, response = std::move(response), id = r.id, gpu, batch_start,
                  exec_end] {
                   Complete(response, id, gpu, batch_start, exec_end, ctx_->sim.now());
                 });
}

void Accounting::Complete(const Request& request, int replica_id, int gpu_global,
                          TimeUs batch_start, TimeUs exec_end, TimeUs complete_us) {
  const auto m = static_cast<std::size_t>(request.model);
  ServiceMetrics& sm = services_[m];
  const serving::LlmServiceConfig& llm_cfg = ctx_->services[m].cfg.llm;
  Tally(m, kCompleted, complete_us);
  bool met = complete_us <= request.deadline_us;
  DurationUs ttft = 0.0;
  DurationUs tpot = 0.0;
  if (llm(m)) {
    // Per-token SLOs: time-to-first-token and time-per-output-token both
    // have to hold. TPOT averages the post-first-token stream over the
    // decode length (a zero-length generation trivially meets it).
    ORION_CHECK(request.first_token_us >= request.arrival_us);
    ttft = request.first_token_us - request.arrival_us;
    tpot = request.target_tokens > 0 ? (complete_us - request.first_token_us) /
                                           static_cast<double>(request.target_tokens)
                                     : 0.0;
    met = ttft <= llm_cfg.ttft_slo_us && tpot <= llm_cfg.tpot_slo_us;
  }
  if (ctx_->attribution && request.ledger.active()) {
    // Finalize a local copy (the caller's request is const): close the open
    // phase at completion and enforce the sum identity. Every interval
    // between ledger marks was charged to exactly one phase, so the
    // residual is FP rounding only — a violation means an engine path
    // dropped or double-counted time.
    attribution::LatencyLedger ledger = request.ledger;
    const DurationUs e2e = complete_us - request.arrival_us;
    const DurationUs residual = ledger.Finalize(request.arrival_us, complete_us);
    ORION_CHECK_MSG(std::abs(residual) <= 1e-3 + 1e-6 * e2e,
                    "latency ledger identity violated: residual "
                        << residual << "us over e2e " << e2e << "us (request "
                        << request.id << ")");
    if (llm(m) && !ledger.ttft_marked()) {
      // Request-level LLM batching delivers the batch at once; interpolate
      // the first token inside the execute span, mirroring first_token_us.
      const TimeUs exec_begin = request.start_service_us;
      const DurationUs exec_span = exec_end - exec_begin;
      const double frac =
          exec_span > 0.0 ? (request.first_token_us - exec_begin) / exec_span : 1.0;
      ledger.SynthesizeFirstToken(frac);
    }
    if (ctx_->InWindow(complete_us)) {
      sm.attr->RecordE2e(ledger.phases(), e2e, !met);
      if (llm(m)) {
        double ttft_phases[attribution::kNumPhases];
        double tpot_phases[attribution::kNumPhases];
        ledger.SplitTtft(ttft_phases, tpot_phases);
        sm.attr->RecordTtft(ttft_phases, ttft, ttft > llm_cfg.ttft_slo_us);
        sm.attr->RecordTpot(tpot_phases, complete_us - request.first_token_us,
                            tpot > llm_cfg.tpot_slo_us);
      }
    }
  }
  if (met) {
    Tally(m, kSloMet, complete_us);
  }
  if (ctx_->InWindow(complete_us)) {
    sm.latency->Add(complete_us - request.arrival_us);
    sm.queueing->Add(request.start_service_us - request.arrival_us);
    if (llm(m)) {
      sm.ttft->Add(ttft);
      sm.tpot->Add(tpot);
    }
  }
  if (sm.track >= 0) {
    // Request lifecycle: a "request" slice enclosing nested queue, execute
    // and (networked runs) respond phases, one virtual-thread row per
    // request, plus a flow arrow from the execute phase to the device
    // batch that served it.
    const auto row = static_cast<std::int64_t>(request.id);
    telemetry::Labels attrs = {
        {"slo_met", met ? "1" : "0"},
        {"failovers", std::to_string(request.failovers)},
        {"node", std::to_string(request.node)},
        {"replica", std::to_string(replica_id)},
        {"route_reason", serving::RouteReasonName(request.route_reason)}};
    if (llm(m)) {
      attrs.emplace_back("tokens", std::to_string(1 + request.target_tokens));
      attrs.emplace_back("kv_evictions", std::to_string(request.evictions));
    }
    telemetry::SpanTracer& spans = hub_->spans();
    spans.Complete(sm.track, row, "request", request.arrival_us, complete_us,
                   std::move(attrs), "request");
    spans.Complete(sm.track, row, "queue", request.arrival_us, request.start_service_us, {},
                   "queue");
    spans.Complete(sm.track, row, "execute", request.start_service_us, exec_end, {},
                   "execute");
    if (complete_us > exec_end) {
      spans.Complete(sm.track, row, "respond", exec_end, complete_us, {}, "respond");
    }
    spans.FlowStart(sm.track, row, request.id, request.start_service_us);
    spans.FlowEnd(gpu_track(gpu_global), replica_id, request.id, batch_start);
  }
}

serving::ModelServingResult Accounting::Close(std::size_t m, std::size_t left,
                                              int final_replicas) {
  const ServiceMetrics& sm = services_[m];
  const serving::ModelServiceConfig& cfg = ctx_->services[m].cfg;
  serving::ModelServingResult out;
  out.name = workloads::WorkloadName(cfg.workload);
  out.tier = cfg.tier;
  out.offered = count(sm.outcomes[kOffered].window);
  out.completed = count(sm.outcomes[kCompleted].window);
  out.slo_met = count(sm.outcomes[kSloMet].window);
  out.shed = count(sm.outcomes[kShed].window);
  out.dropped = count(sm.outcomes[kDropped].window);
  out.failed_over = count(sm.outcomes[kFailedOver].window);
  // Clamped: completions of pre-window arrivals can push the windowed
  // ratio a hair over 1 at light load.
  out.slo_attainment = out.offered > 0 ? std::min(1.0, static_cast<double>(out.slo_met) /
                                                           static_cast<double>(out.offered))
                                       : 1.0;
  out.throughput_rps =
      static_cast<double>(out.completed) / UsToSec(ctx_->config.duration_us);
  out.latency = sm.latency->recorder();
  out.queueing = sm.queueing->recorder();
  out.batches = count(sm.batches);
  out.mean_batch_size =
      out.batches > 0 ? sm.batched_requests->value() / static_cast<double>(out.batches) : 0.0;
  if (llm(m)) {
    out.tokens = count(sm.tokens);
    out.prefills = count(sm.prefills);
    out.decode_steps = count(sm.decode_steps);
    out.kv_evictions = count(sm.kv_evictions);
    out.ttft = sm.ttft->recorder();
    out.tpot = sm.tpot->recorder();
  }
  out.total_offered = count(sm.outcomes[kOffered].total);
  out.total_completed = count(sm.outcomes[kCompleted].total);
  out.total_shed = count(sm.outcomes[kShed].total);
  out.total_dropped = count(sm.outcomes[kDropped].total);
  out.final_replicas = final_replicas;
  out.left_in_system = left;
  // Export the closing term of the accounting identity so a metrics
  // snapshot alone can verify
  //   offered_total == completed_total + shed_total + dropped_total
  //                    + left_in_system.
  metrics_->GetGauge("serving.left_in_system", {{"service", sm.label}})
      ->Set(static_cast<double>(left));
  metrics_->GetGauge("serving.final_replicas", {{"service", sm.label}})
      ->Set(static_cast<double>(final_replicas));
  ORION_CHECK_MSG(out.total_offered == out.total_completed + out.total_shed +
                                           out.total_dropped + out.left_in_system,
                  "request accounting identity violated for " << out.name);
  return out;
}

void Accounting::Finish(ClusterResult* result) {
  serving::ServingResult& serving = result->serving;
  serving.scale_ups = count(events_[kScaleUp]);
  serving.scale_downs = count(events_[kScaleDown]);
  serving.scale_failures = count(events_[kScaleFailure]);
  serving.faults_injected = count(events_[kFaultInjected]);
  serving.faults_skipped = count(events_[kFaultSkipped]);
  serving.replicas_lost = count(events_[kReplicaLost]);
  serving.replacements = count(events_[kReplacement]);
  serving.replacement_failures = count(events_[kReplacementFailure]);
  serving.replica_seconds = replica_seconds_->value();
  result->node_faults = count(events_[kNodeFault]);
  result->requests_forwarded = count(events_[kRequestForwarded]);
  metrics_->GetGauge("serving.gpus_alive")->Set(static_cast<double>(serving.gpus_alive_end));
  if (ctx_->network_on()) {
    metrics_->GetGauge("datacenter.nodes_alive")
        ->Set(static_cast<double>(result->nodes_alive_end));
  }
}

}  // namespace datacenter
}  // namespace orion
