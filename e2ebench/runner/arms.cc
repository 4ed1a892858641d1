#include "e2ebench/runner/arms.h"

#include <cmath>
#include <memory>

#include "e2ebench/runner/digest.h"
#include "src/profiler/profiler.h"
#include "src/trace/request_rates.h"
#include "src/workloads/models.h"

namespace e2e {

using namespace orion;
using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

namespace {

// Simulated windows: the paper benches' own (1 s warm-up + 15 s window; the
// oversubscribed training mix stretched 4x as in ext_memory_oversub), so
// per-arm fixed costs such as the profiling inside RunExperiment, and state
// that grows with simulated time, weigh what they weigh in those benches.
constexpr DurationUs kCollocWarmupUs = SecToUs(1.0);
constexpr DurationUs kCollocDurationUs = SecToUs(15.0);
constexpr DurationUs kOversubWarmupUs = SecToUs(1.0);
constexpr DurationUs kOversubDurationUs = SecToUs(15.0);
constexpr DurationUs kDcWarmupUs = SecToUs(1.0);
constexpr DurationUs kDcDurationUs = SecToUs(20.0);

constexpr double kOversubFactor = 2.0;
constexpr std::size_t kPageBytes = std::size_t{2} * 1024 * 1024;
// The oversub_paging hp tenant's Poisson rate, as a share of the rate it
// reaches closed-loop on a dedicated GPU (1 / its profiled request latency).
// Below 1 so that its queue stays stable in the dedicated arm.
constexpr double kOversubHpLoad = 0.8;

// Set-up work: one ProfileWorkload and one BuildKernels per distinct
// workload, folded into the set-up digest.
class SetupWork {
 public:
  SetupWork(SpanRecorder* spans, Setup* setup) : spans_(spans), setup_(setup) {}

  profiler::WorkloadProfile Profile(const workloads::WorkloadSpec& spec) {
    profiler::WorkloadProfile profile;
    {
      SpanRecorder::Scope span(spans_, "profile", -1);
      profile = profiler::ProfileWorkload(device_, spec);
    }
    digest_.U64(DigestOf(profile));
    return profile;
  }

  void Build(const workloads::WorkloadSpec& spec) {
    std::vector<gpusim::KernelDesc> kernels;
    {
      SpanRecorder::Scope span(spans_, "build", -1);
      kernels = workloads::BuildKernels(device_, spec);
    }
    digest_.U64(kernels.size());
    for (const gpusim::KernelDesc& k : kernels) {
      digest_.U64(k.kernel_id);
      digest_.F64(k.duration_us);
      digest_.F64(k.compute_util);
      digest_.F64(k.membw_util);
    }
    setup_->kernels[workloads::WorkloadName(spec)] = std::move(kernels);
  }

  std::uint64_t digest() const { return digest_.value(); }

 private:
  SpanRecorder* spans_;
  Setup* setup_;
  Digest digest_;
  const gpusim::DeviceSpec device_ = gpusim::DeviceSpec::V100_16GB();
};

harness::ClientConfig Client(const workloads::WorkloadSpec& spec, bool high_priority) {
  harness::ClientConfig client;
  client.workload = spec;
  client.high_priority = high_priority;
  return client;
}

std::size_t RoundUpToPages(std::size_t bytes) {
  return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

void BuildColloc(std::uint64_t seed, Setup* setup, SetupWork* work) {
  std::vector<harness::ClientConfig> hps;
  std::vector<harness::ClientConfig> bes;
  for (const ModelId model : workloads::kAllModels) {
    harness::ClientConfig hp = Client(MakeWorkload(model, TaskType::kInference), true);
    hp.arrivals = harness::ClientConfig::Arrivals::kApollo;
    hp.rps = trace::RequestsPerSecond(model, trace::CollocationCase::kInfTrainPoisson);
    hps.push_back(hp);
    bes.push_back(Client(MakeWorkload(model, TaskType::kTraining), false));
  }
  for (std::size_t i = 0; i < hps.size(); ++i) {
    work->Profile(hps[i].workload);
    work->Profile(bes[i].workload);
    work->Build(hps[i].workload);
    work->Build(bes[i].workload);
  }

  auto Base = [&](const harness::ClientConfig& hp, const harness::ClientConfig& be,
                  harness::SchedulerKind kind) {
    harness::ExperimentConfig config;
    config.scheduler = kind;
    config.warmup_us = kCollocWarmupUs;
    config.duration_us = kCollocDurationUs;
    config.seed = seed;
    config.clients = {hp, be};
    return config;
  };
  // Dedicated arm i runs hp model i and trainer i, each on its own GPU, so
  // it is the reference for both.
  for (std::size_t i = 0; i < hps.size(); ++i) {
    Arm arm;
    arm.name = "ideal/" + workloads::WorkloadName(hps[i].workload);
    arm.role = ArmRole::kIdeal;
    arm.ideal_hp = arm.ideal_be = static_cast<int>(i);
    arm.experiment = Base(hps[i], bes[i], harness::SchedulerKind::kDedicated);
    setup->arms.push_back(std::move(arm));
  }
  for (std::size_t i = 0; i < hps.size(); ++i) {
    for (std::size_t j = 0; j < bes.size(); ++j) {
      Arm arm;
      arm.name = "orion/" + workloads::WorkloadName(hps[i].workload) + "+" +
                 workloads::WorkloadName(bes[j].workload);
      arm.role = ArmRole::kOrion;
      arm.ideal_hp = static_cast<int>(i);
      arm.ideal_be = static_cast<int>(j);
      arm.experiment = Base(hps[i], bes[j], harness::SchedulerKind::kOrion);
      setup->arms.push_back(std::move(arm));
    }
  }
  // Recorded for the kernel replay: ResNet50 inference beside BERT training,
  // two models whose kernel ids cannot collide.
  const std::size_t hp_resnet50 = 0;
  const std::size_t be_bert = 3;
  setup->replay_arm = static_cast<int>(hps.size() + hp_resnet50 * bes.size() + be_bert);
}

struct Mix {
  const char* name;
  harness::ClientConfig hp;
  harness::ClientConfig be;
  double window_scale;
};

// The three ext_memory_oversub mixes: each tenant's hot set fits the device
// alone but not jointly.
std::vector<Mix> OversubMixes() {
  std::vector<Mix> mixes;
  {
    Mix mix{"train", Client(MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining, 32), true),
            Client(MakeWorkload(ModelId::kResNet101, TaskType::kTraining, 32), false), 4.0};
    mix.be.paging_ws_fraction = 0.58;
    mixes.push_back(mix);
  }
  {
    Mix mix{"infer", Client(MakeWorkload(ModelId::kMobileNetV2, TaskType::kInference), true),
            Client(MakeWorkload(ModelId::kResNet101, TaskType::kInference, 16), false), 1.0};
    mix.be.paging_ws_fraction = 0.60;
    mixes.push_back(mix);
  }
  {
    Mix mix{"llm", Client(MakeWorkload(ModelId::kTransformer, TaskType::kInference), true),
            Client(MakeWorkload(ModelId::kTransformer, TaskType::kTraining, 2), false), 1.0};
    mix.be.paging_ws_fraction = 0.58;
    mixes.push_back(mix);
  }
  return mixes;
}

void BuildOversub(std::uint64_t seed, Setup* setup, SetupWork* work) {
  for (Mix mix : OversubMixes()) {
    const profiler::WorkloadProfile hp_profile = work->Profile(mix.hp.workload);
    work->Profile(mix.be.workload);
    work->Build(mix.hp.workload);
    work->Build(mix.be.workload);
    mix.hp.arrivals = harness::ClientConfig::Arrivals::kPoisson;
    mix.hp.rps = kOversubHpLoad * 1e6 / hp_profile.request_latency_us;

    const std::size_t aggregate = RoundUpToPages(workloads::ApproxModelStateBytes(mix.hp.workload)) +
                                  RoundUpToPages(workloads::ApproxModelStateBytes(mix.be.workload));
    const std::size_t memory =
        static_cast<std::size_t>(static_cast<double>(aggregate) / kOversubFactor) / kPageBytes *
        kPageBytes;
    harness::ExperimentConfig base;
    base.seed = seed;
    base.warmup_us = mix.window_scale * kOversubWarmupUs;
    base.duration_us = mix.window_scale * kOversubDurationUs;
    base.clients = {mix.hp, mix.be};

    const int ideal = static_cast<int>(setup->arms.size());
    Arm dedicated;
    dedicated.name = std::string("ideal/") + mix.name;
    dedicated.role = ArmRole::kIdeal;
    dedicated.ideal_hp = dedicated.ideal_be = ideal;
    dedicated.experiment = base;
    dedicated.experiment.scheduler = harness::SchedulerKind::kDedicated;
    setup->arms.push_back(dedicated);

    for (const harness::SchedulerKind kind :
         {harness::SchedulerKind::kTimeQuantum, harness::SchedulerKind::kOrion}) {
      Arm arm;
      arm.name = std::string(harness::SchedulerKindName(kind)) + "/" + mix.name;
      arm.role = kind == harness::SchedulerKind::kOrion ? ArmRole::kOrion : ArmRole::kTimeQuantum;
      arm.ideal_hp = arm.ideal_be = ideal;
      arm.experiment = base;
      arm.experiment.scheduler = kind;
      arm.experiment.device.memory_bytes = memory;
      arm.experiment.paging.enabled = true;
      if (kind == harness::SchedulerKind::kOrion) {
        arm.experiment.paging.pin_high_priority = true;
        arm.experiment.pcie_priority_scheduling = true;
      }
      setup->arms.push_back(std::move(arm));
    }
  }
  // Recorded for the copy replay: the inference mix under Orion, whose
  // clients copy inputs and outputs beside the pager's traffic.
  const int infer_mix = 1;
  const int orion_arm_in_mix = 2;  // ideal, nvshare-tq, orion
  setup->replay_arm = infer_mix * 3 + orion_arm_in_mix;
}

serving::ModelServiceConfig ResNetService(double rps) {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  cfg.tier = serving::PriorityTier::kLatencyCritical;
  cfg.slo_us = MsToUs(60.0);
  cfg.arrivals = serving::ArrivalKind::kPoisson;
  cfg.rps = rps;
  cfg.initial_replicas = 10;
  cfg.max_replicas = 12;
  return cfg;
}

serving::ModelServiceConfig LlmService(double rps) {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kLlmDecode, TaskType::kInference);
  cfg.tier = serving::PriorityTier::kLatencyCritical;
  cfg.arrivals = serving::ArrivalKind::kPoisson;
  cfg.rps = rps;
  cfg.llm.enabled = true;
  cfg.llm.continuous = true;
  cfg.llm.model.layers = 4;
  cfg.llm.model.hidden = 1024;
  cfg.llm.model.heads = 8;
  cfg.llm.ttft_slo_us = MsToUs(100.0);
  cfg.llm.tpot_slo_us = MsToUs(5.0);
  cfg.initial_replicas = 4;
  cfg.max_replicas = 4;
  return cfg;
}

void BuildDc(std::uint64_t seed, Setup* setup, SetupWork* work) {
  // The serving engine prices a batch of b requests with BuildKernels at
  // b times the workload's batch size; set-up builds that table once.
  const serving::ServingConfig defaults;
  for (const serving::ModelServiceConfig& service : {ResNetService(0.0), LlmService(0.0)}) {
    for (int b = 1; b <= defaults.batching.max_batch_size; ++b) {
      workloads::WorkloadSpec batched = service.workload;
      batched.batch_size *= b;
      work->Build(batched);
    }
  }

  struct Load {
    double resnet_rps;
    double llm_rps;
  };
  for (const Load load : {Load{1200.0, 60.0}, Load{1600.0, 80.0}, Load{2000.0, 100.0}}) {
    // The engine's defaults run the cluster sequentially on this thread.
    datacenter::ClusterConfig base;
    base.cluster.num_nodes = 8;
    base.cluster.gpus_per_node = 2;
    base.serving.warmup_us = kDcWarmupUs;
    base.serving.duration_us = kDcDurationUs;
    base.serving.seed = seed;

    const std::string tag = std::to_string(static_cast<int>(load.resnet_rps)) + "rps";
    const int ideal = static_cast<int>(setup->arms.size());
    Arm alone;
    alone.name = "ideal/" + tag;
    alone.role = ArmRole::kIdeal;
    alone.ideal_hp = alone.ideal_be = ideal;
    alone.is_cluster = true;
    alone.cluster = base;
    alone.cluster.serving.models = {ResNetService(load.resnet_rps)};
    setup->arms.push_back(alone);

    Arm full;
    full.name = "cluster/" + tag;
    full.role = ArmRole::kCluster;
    full.ideal_hp = full.ideal_be = ideal;
    full.is_cluster = true;
    full.cluster = base;
    full.cluster.serving.models = {ResNetService(load.resnet_rps), LlmService(load.llm_rps)};
    fault::FaultEvent death;
    death.kind = fault::FaultKind::kNodeDown;
    death.at_us = base.serving.warmup_us + base.serving.duration_us / 3.0;
    death.node = 1;
    full.cluster.serving.fault_plan.events.push_back(death);
    setup->arms.push_back(std::move(full));
  }
}

std::map<std::string, double> SumCounters(const telemetry::Hub& hub) {
  std::map<std::string, double> sums;
  for (const telemetry::MetricRow& row : hub.metrics().Snapshot()) {
    if (row.kind != telemetry::MetricKind::kHistogram) {
      sums[row.name] += row.value;
    }
  }
  return sums;
}

void Fail(ArmOutput* out, const std::string& why) {
  if (out->invariants_ok) {
    out->invariants_ok = false;
    out->invariant_error = why;
  }
}

void Extract(const harness::ExperimentResult& result, ArmOutput* out) {
  const harness::ClientResult& hp = result.hp();
  out->hp_p99_us = hp.latency.p99();
  for (const harness::ClientResult& client : result.clients) {
    if (!client.high_priority) {
      out->be_tput += client.throughput_rps;
    }
    out->requests += client.completed_total;
    out->client_requests.push_back(client.completed_total);
    if (client.latency.count() != client.completed) {
      Fail(out, client.name + ": latency samples != completions");
    }
    if (client.completed > client.completed_total) {
      Fail(out, client.name + ": window completions > run completions");
    }
  }
  out->paging = result.paging;
  if (hp.completed == 0 || !std::isfinite(out->hp_p99_us) || out->hp_p99_us <= 0.0) {
    Fail(out, "high-priority client completed nothing");
  }
  if (!(out->be_tput > 0.0)) {
    Fail(out, "best-effort client made no progress");
  }
  if (result.paging.faults * kPageBytes != result.paging.fault_bytes_h2d ||
      result.paging.writebacks * kPageBytes != result.paging.writeback_bytes_d2h) {
    Fail(out, "paging bytes are not whole pages");
  }
}

void Extract(const datacenter::ClusterResult& result, const datacenter::ClusterConfig& config,
             ArmOutput* out) {
  const std::vector<serving::ModelServingResult>& models = result.serving.models;
  if (models.size() != config.serving.models.size()) {
    Fail(out, "one result per service expected");
    return;
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    const serving::ModelServingResult& m = models[i];
    out->offered += m.offered;
    out->slo_met += m.slo_met;
    out->requests += m.total_offered;
    if (m.total_offered != m.total_completed + m.total_shed + m.total_dropped + m.left_in_system) {
      Fail(out, m.name + ": offered != completed + shed + dropped + in-system");
    }
    if (m.slo_met > m.completed) {
      Fail(out, m.name + ": slo_met > completed");
    }
    if (config.serving.models[i].llm.enabled) {
      out->ttft_us.insert(out->ttft_us.end(), m.ttft.samples().begin(), m.ttft.samples().end());
    }
  }
  if (models.empty() || models[0].completed == 0) {
    Fail(out, "latency-critical service completed nothing");
    return;
  }
  out->hp_p99_us = models[0].latency.p99();
  out->bytes_moved = result.request_bytes_moved + result.response_bytes_moved;
}

}  // namespace

const char* WorkloadName(WorkloadId workload) {
  switch (workload) {
    case WorkloadId::kCollocApollo:
      return "colloc_apollo";
    case WorkloadId::kOversubPaging:
      return "oversub_paging";
    case WorkloadId::kDcServing:
      return "dc_serving";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, WorkloadId* workload) {
  for (const WorkloadId w : kAllWorkloads) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

Setup BuildSetup(WorkloadId workload, std::uint64_t seed, SpanRecorder* spans) {
  SpanRecorder::Scope span(spans, "setup", -1);
  Setup setup;
  SetupWork work(spans, &setup);
  switch (workload) {
    case WorkloadId::kCollocApollo:
      BuildColloc(seed, &setup, &work);
      break;
    case WorkloadId::kOversubPaging:
      BuildOversub(seed, &setup, &work);
      break;
    case WorkloadId::kDcServing:
      BuildDc(seed, &setup, &work);
      break;
  }
  setup.digest = work.digest();
  return setup;
}

ArmOutput RunArm(const Arm& arm, int arm_index, ArmMode mode, SpanRecorder* spans) {
  SpanRecorder::Scope arm_span(spans, "arm", arm_index);
  ArmOutput out;
  std::unique_ptr<telemetry::Hub> hub;
  if (mode != ArmMode::kUntraced) {
    hub = std::make_unique<telemetry::Hub>();
    if (mode == ArmMode::kRecorded) {
      hub->EnableTracing();
    }
  }
  if (arm.is_cluster) {
    datacenter::ClusterConfig config = arm.cluster;
    config.serving.telemetry = hub.get();
    datacenter::ClusterResult result;
    {
      SpanRecorder::Scope span(spans, "run.cluster", arm_index);
      const std::int64_t start = NowNs();
      result = datacenter::RunCluster(config);
      out.host_ms = static_cast<double>(NowNs() - start) / 1e6;
    }
    {
      SpanRecorder::Scope span(spans, "digest", arm_index);
      out.digest = DigestOf(result);
    }
    Extract(result, config, &out);
  } else {
    harness::ExperimentConfig config = arm.experiment;
    config.telemetry = hub.get();
    harness::ExperimentResult result;
    {
      SpanRecorder::Scope span(spans, "run.experiment", arm_index);
      const std::int64_t start = NowNs();
      result = harness::RunExperiment(config);
      out.host_ms = static_cast<double>(NowNs() - start) / 1e6;
    }
    {
      SpanRecorder::Scope span(spans, "digest", arm_index);
      out.digest = DigestOf(result);
    }
    Extract(result, &out);
  }
  if (hub != nullptr) {
    out.counters = SumCounters(*hub);
    if (mode == ArmMode::kRecorded) {
      for (const gpusim::TraceCollector::Entry& entry : hub->kernels().entries()) {
        out.kernel_records.push_back(entry.record);
      }
    }
  }
  return out;
}

}  // namespace e2e
