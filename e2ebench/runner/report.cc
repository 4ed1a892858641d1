#include "e2ebench/runner/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/stats.h"
#include "src/common/time_types.h"

namespace e2e {

namespace {

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"host_s", "s"},   {"arm_ms_p50", "ms"},           {"peak_rss_mb", "MB"},
      {"setup_s", "s"},  {"hp_p99_vs_ideal", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& WorkloadMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"be_tput_vs_ideal", "ratio"},
      {"slo_attainment", "ratio"},
      {"ttft_p99_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"gpusim.arm_kernels", "count"},
      {"gpusim.replay_kernels", "count"},
      {"gpusim.ns_per_kernel", "ns"},
      {"gpusim.replay_retained_mb", "MB"},
      {"gpusim.replay_copies", "count"},
      {"gpusim.ns_per_copy", "ns"},
      {"profiler.ms", "ms"},
      {"workloads.build_ms", "ms"},
      {"harness.orion_arm_ms_p50", "ms"},
      {"harness.dedicated_arm_ms_p50", "ms"},
      {"harness.us_per_request", "us"},
      {"core.be_polls", "count"},
      {"core.be_polls_coalesced", "count"},
      {"core.be_submitted", "count"},
      {"core.be_throttle_skips", "count"},
      {"core.be_profile_skips", "count"},
      {"core.admit_ratio", "ratio"},
      {"memsub.faults", "count"},
      {"memsub.evictions", "count"},
      {"memsub.writebacks", "count"},
      {"memsub.fault_gb", "GB"},
      {"memsub.stall_s", "s"},
      {"baselines.tq_quanta", "count"},
      {"datacenter.arm_ms_p50", "ms"},
      {"datacenter.ns_per_request", "ns"},
      {"datacenter.forwarded", "count"},
      {"serving.batches", "count"},
      {"serving.mean_batch", "count"},
      {"serving.decode_steps", "count"},
      {"serving.kv_evictions", "count"},
      {"serving.failed_over", "count"},
      {"interconnect.transfers", "count"},
      {"interconnect.gb_moved", "GB"},
      {"telemetry.traced_overhead", "ratio"},
      {"bench.host_raw_s", "s"},
      {"bench.machine_ms", "ms"},
  };
  return kMetrics;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || name[0] == '_' || name[0] == '.' || name[0] == '-') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
  });
}

Median MedianOf(std::vector<double> values) {
  Median m;
  m.count = values.size();
  if (values.empty()) {
    return m;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  m.value = values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
  return m;
}

SimulatedMetrics ComputeSimulated(WorkloadId workload, const std::vector<Arm>& arms,
                                  const std::vector<ArmOutput>& outputs) {
  std::vector<double> p99_ratios;
  std::vector<double> be_tput_ratios;
  double met = 0.0;
  double offered = 0.0;
  orion::LatencyRecorder ttft;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const Arm& arm = arms[a];
    const ArmOutput& out = outputs[a];
    if (arm.role != ArmRole::kOrion && arm.role != ArmRole::kCluster) {
      continue;
    }
    const ArmOutput& ideal_hp = outputs[static_cast<std::size_t>(arm.ideal_hp)];
    p99_ratios.push_back(out.hp_p99_us / ideal_hp.hp_p99_us);
    if (arm.role == ArmRole::kOrion) {
      const ArmOutput& ideal_be = outputs[static_cast<std::size_t>(arm.ideal_be)];
      be_tput_ratios.push_back(out.be_tput / ideal_be.be_tput);
    } else {
      met += static_cast<double>(out.slo_met);
      offered += static_cast<double>(out.offered);
      for (const double us : out.ttft_us) {
        ttft.Add(us);
      }
    }
  }
  SimulatedMetrics m;
  m.values.emplace_back("hp_p99_vs_ideal", Mean(p99_ratios));
  if (workload == WorkloadId::kDcServing) {
    m.values.emplace_back("slo_attainment", offered > 0.0 ? met / offered : 0.0);
    m.values.emplace_back("ttft_p99_ms", orion::UsToMs(ttft.p99()));
    m.ttft_samples = ttft.count();
  } else {
    m.values.emplace_back("be_tput_vs_ideal", Mean(be_tput_ratios));
  }
  return m;
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<MetricValue>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
        << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
