#include "src/fault/fault_injector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace orion {
namespace fault {

FaultInjector::FaultInjector(Simulator* sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {
  ORION_CHECK(sim_ != nullptr);
  BindInstruments();
}

void FaultInjector::set_telemetry(telemetry::Hub* hub) {
  ORION_CHECK_MSG(!armed_, "set_telemetry must be called before Arm");
  hub_ = hub;
  BindInstruments();
}

void FaultInjector::BindInstruments() {
  telemetry::MetricRegistry& reg = hub_ != nullptr ? hub_->metrics() : local_metrics_;
  injected_ = reg.GetCounter("fault.injected");
  skipped_ = reg.GetCounter("fault.skipped");
  trace_track_ = hub_ != nullptr && hub_->tracing() ? hub_->spans().Track("faults") : -1;
}

void FaultInjector::MarkFault(const FaultEvent& event) {
  injected_->Inc();
  if (trace_track_ < 0) {
    return;
  }
  telemetry::Labels args;
  switch (event.kind) {
    case FaultKind::kDeviceDegrade:
    case FaultKind::kGpuDown:
      args.emplace_back("gpu", std::to_string(event.gpu));
      break;
    case FaultKind::kLinkDown:
      args.emplace_back("link", std::to_string(event.link));
      break;
    case FaultKind::kClientCrash:
    case FaultKind::kClientHang:
      args.emplace_back("client", std::to_string(event.client));
      break;
    case FaultKind::kProfilePoison:
      args.emplace_back("drop_fraction", std::to_string(event.drop_fraction));
      break;
    case FaultKind::kNodeDown:
      args.emplace_back("node", std::to_string(event.node));
      break;
  }
  hub_->spans().Instant(trace_track_, FaultKindName(event.kind), sim_->now(),
                        std::move(args));
}

void FaultInjector::RegisterDevice(int gpu, gpusim::Device* device) {
  ORION_CHECK(!armed_ && device != nullptr);
  devices_[gpu] = device;
}

void FaultInjector::RegisterFabric(interconnect::Fabric* fabric) {
  ORION_CHECK(!armed_ && fabric != nullptr);
  fabric_ = fabric;
}

void FaultInjector::RegisterScheduler(core::Scheduler* scheduler) {
  ORION_CHECK(!armed_ && scheduler != nullptr);
  schedulers_.push_back(scheduler);
}

void FaultInjector::RegisterProfile(profiler::WorkloadProfile* profile) {
  ORION_CHECK(!armed_ && profile != nullptr);
  profiles_.push_back(profile);
}

void FaultInjector::set_client_fault_handler(ClientFaultHandler handler) {
  ORION_CHECK(!armed_);
  client_handler_ = std::move(handler);
}

void FaultInjector::Arm() {
  ORION_CHECK_MSG(!armed_, "FaultInjector::Arm called twice");
  armed_ = true;
  for (const FaultEvent& event : plan_.events) {
    ORION_CHECK_MSG(event.at_us >= sim_->now(),
                    "fault event in the past: at_us=" << event.at_us);
    sim_->ScheduleAt(event.at_us, [this, event]() { Apply(event); });
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kDeviceDegrade:
      ApplyDeviceDegrade(event);
      return;
    case FaultKind::kLinkDown:
      ApplyLinkFault(event);
      return;
    case FaultKind::kGpuDown:
      ApplyGpuDown(event);
      return;
    case FaultKind::kClientCrash:
    case FaultKind::kClientHang:
      ApplyClientFault(event);
      return;
    case FaultKind::kProfilePoison:
      ApplyProfilePoison(event);
      return;
    case FaultKind::kNodeDown:
      // Node-granularity faults act at the datacenter control plane
      // (src/datacenter); a single-node injector has no whole-node target.
      skipped_->Inc();
      return;
  }
  ORION_CHECK_MSG(false, "unhandled fault kind");
}

void FaultInjector::ApplyDeviceDegrade(const FaultEvent& event) {
  const auto it = devices_.find(event.gpu);
  if (it == devices_.end()) {
    skipped_->Inc();
    return;
  }
  if (event.sms_lost > 0) {
    it->second->DegradeSms(event.sms_lost);
  }
  if (event.membw_factor < 1.0) {
    it->second->ScaleMembw(event.membw_factor);
  }
  // The degradation response above the device: SM_THRESHOLD re-resolves
  // against the shrunken SM pool (Orion), other policies ignore the hook.
  for (core::Scheduler* scheduler : schedulers_) {
    scheduler->OnDeviceDegraded();
  }
  MarkFault(event);
}

void FaultInjector::SetLinkFactor(int link, double factor) {
  fabric_->SetLinkFactor(link, /*forward=*/true, factor);
  fabric_->SetLinkFactor(link, /*forward=*/false, factor);
}

void FaultInjector::ApplyLinkFault(const FaultEvent& event) {
  if (fabric_ == nullptr ||
      event.link < 0 ||
      event.link >= static_cast<int>(fabric_->topology().links().size())) {
    skipped_->Inc();
    return;
  }
  SetLinkFactor(event.link, 0.0);
  if (event.duration_us > 0.0) {
    // A flap: the link returns to full speed after the interval.
    const int link = event.link;
    sim_->ScheduleAfter(event.duration_us, [this, link]() { SetLinkFactor(link, 1.0); });
  }
  MarkFault(event);
}

void FaultInjector::ApplyGpuDown(const FaultEvent& event) {
  if (fabric_ == nullptr || event.gpu < 0 ||
      event.gpu >= fabric_->topology().num_gpus()) {
    skipped_->Inc();
    return;
  }
  // The GPU fell off the bus: every link touching it goes down, both
  // directions, permanently. Ring re-formation is the collective engine's
  // job; it detects the dead GPU via Fabric::GpuAlive.
  for (const interconnect::Link& link : fabric_->topology().links()) {
    if (link.node_a == event.gpu || link.node_b == event.gpu) {
      SetLinkFactor(link.id, 0.0);
    }
  }
  MarkFault(event);
}

void FaultInjector::ApplyClientFault(const FaultEvent& event) {
  // Driver-side first (a hang submits its runaway kernel through the live
  // scheduler path), then scheduler-side cleanup for crashes: quarantine the
  // dead client's queues. A hung client stays attached — detecting it is the
  // scheduler watchdog's job.
  if (!client_handler_ || !client_handler_(event)) {
    skipped_->Inc();
    return;
  }
  if (event.kind == FaultKind::kClientCrash) {
    for (core::Scheduler* scheduler : schedulers_) {
      scheduler->OnClientCrash(event.client);
    }
  }
  MarkFault(event);
}

void FaultInjector::ApplyProfilePoison(const FaultEvent& event) {
  if (profiles_.empty()) {
    skipped_->Inc();
    return;
  }
  std::uint64_t stream = 0;
  for (profiler::WorkloadProfile* profile : profiles_) {
    Rng rng = Rng(event.seed).Fork(++stream);
    std::vector<profiler::KernelProfile> kept;
    kept.reserve(profile->kernels.size());
    for (profiler::KernelProfile& kernel : profile->kernels) {
      if (rng.NextDouble() < event.drop_fraction) {
        continue;  // entry lost: the scheduler will miss on this kernel id
      }
      kernel.duration_us *= event.perturb_factor;
      kept.push_back(kernel);
    }
    profile->kernels = std::move(kept);
    profile->RebuildIndex();
  }
  MarkFault(event);
}

}  // namespace fault
}  // namespace orion
