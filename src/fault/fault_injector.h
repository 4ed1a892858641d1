// Fault injector: schedules a FaultPlan on the discrete-event clock.
//
// The injector is the glue between a pure-data FaultPlan and the live
// simulation objects: harnesses register the targets they built (devices,
// the link fabric, schedulers, mutable workload profiles, and a handler for
// client-level faults), then Arm() schedules one simulator event per fault.
// Everything is deterministic: events fire at their planned virtual times in
// plan order, and profile poisoning draws from the event's own seed.
//
// Link faults with duration_us > 0 schedule a matching restore event that
// returns the link to full speed — the "flap" shape the collective engine's
// timeout policy waits out.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "src/core/scheduler.h"
#include "src/fault/fault_plan.h"
#include "src/gpusim/device.h"
#include "src/interconnect/fabric.h"
#include "src/profiler/profiler.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace fault {

class FaultInjector {
 public:
  // Called for kClientCrash / kClientHang events; the harness owns the
  // client drivers, so it supplies the behaviour (stop the driver, make it
  // submit the runaway kernel, ...) and returns false when it has no such
  // client (the event is then skipped). Scheduler-side quarantine is invoked
  // by the injector itself via Scheduler::OnClientCrash.
  using ClientFaultHandler = std::function<bool(const FaultEvent&)>;

  FaultInjector(Simulator* sim, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Target registration. All optional: events whose target is missing are
  // counted in skipped() instead of firing (a plan written for a 4-GPU node
  // can run against a single-device harness).
  void RegisterDevice(int gpu, gpusim::Device* device);
  void RegisterFabric(interconnect::Fabric* fabric);
  void RegisterScheduler(core::Scheduler* scheduler);
  void RegisterProfile(profiler::WorkloadProfile* profile);
  void set_client_fault_handler(ClientFaultHandler handler);

  // Telemetry (src/telemetry): injected/skipped become "fault.*" registry
  // counters and, with tracing on, every applied fault is an instant marker
  // on a "faults" track (named by FaultKindName, with the target as args).
  // Call before Arm.
  void set_telemetry(telemetry::Hub* hub);

  // Schedules every plan event. Call exactly once, after registration and
  // before running the simulator.
  void Arm();

  std::size_t injected() const { return CounterCount(injected_); }
  std::size_t skipped() const { return CounterCount(skipped_); }

 private:
  void Apply(const FaultEvent& event);
  void ApplyDeviceDegrade(const FaultEvent& event);
  void ApplyLinkFault(const FaultEvent& event);
  void ApplyGpuDown(const FaultEvent& event);
  void ApplyClientFault(const FaultEvent& event);
  void ApplyProfilePoison(const FaultEvent& event);
  // Sets the bandwidth factor of both directions of one link.
  void SetLinkFactor(int link, double factor);

  Simulator* sim_;
  FaultPlan plan_;
  std::map<int, gpusim::Device*> devices_;
  interconnect::Fabric* fabric_ = nullptr;
  std::vector<core::Scheduler*> schedulers_;
  std::vector<profiler::WorkloadProfile*> profiles_;
  ClientFaultHandler client_handler_;
  bool armed_ = false;

  static std::size_t CounterCount(const telemetry::Counter* c) {
    return c ? static_cast<std::size_t>(c->AsCount()) : 0;
  }
  void BindInstruments();
  void MarkFault(const FaultEvent& event);

  telemetry::Hub* hub_ = nullptr;
  telemetry::MetricRegistry local_metrics_;
  telemetry::TrackId trace_track_ = -1;
  telemetry::Counter* injected_ = nullptr;
  telemetry::Counter* skipped_ = nullptr;
};

}  // namespace fault
}  // namespace orion

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
