// Unified telemetry hub: one handle bundling the metric registry, the
// cross-layer span tracer and the multi-device kernel trace collector.
//
// A harness or bench creates one Hub per run and passes it down through the
// configs (ExperimentConfig / MultiGpuConfig / ServingConfig all carry a
// `telemetry::Hub*`, null by default). Layers instrument against the hub:
//
//   * counters/gauges/histograms → hub->metrics()  (always cheap)
//   * spans / instants / flows   → hub->spans()    (only when tracing())
//   * kernel execution records   → hub->kernels()  (installed by harnesses
//     onto every simulated device when tracing is enabled)
//
// The null-object default keeps instrumentation zero-cost: every site guards
// on `hub == nullptr` (no sink installed) and on `hub->tracing()` for span
// emission, so an uninstrumented run does no string formatting and allocates
// nothing. No wall-clock is ever read — all timestamps come from the
// discrete-event simulator — so same-seed runs export byte-identical traces.
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include "src/gpusim/trace_export.h"
#include "src/telemetry/attribution/report.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"

namespace orion {
namespace telemetry {

class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }

  gpusim::TraceCollector& kernels() { return kernels_; }
  const gpusim::TraceCollector& kernels() const { return kernels_; }

  // Span/kernel collection is opt-in (metrics are always on): benches enable
  // it when a --trace-out path was given, tests when they assert on spans.
  void EnableTracing() { tracing_ = true; }
  bool tracing() const { return tracing_; }

  attribution::AttributionRegistry& attribution() { return attribution_; }

  // Per-request latency attribution is opt-in like tracing: when disabled the
  // engines never touch a request's LatencyLedger, so runs stay bit-identical
  // to an uninstrumented build at zero cost.
  void EnableAttribution() { attribution_enabled_ = true; }
  bool attribution_enabled() const { return attribution_enabled_; }

 private:
  MetricRegistry metrics_;
  SpanTracer spans_;
  gpusim::TraceCollector kernels_;
  attribution::AttributionRegistry attribution_;
  bool tracing_ = false;
  bool attribution_enabled_ = false;
};

}  // namespace telemetry
}  // namespace orion

#endif  // SRC_TELEMETRY_TELEMETRY_H_
