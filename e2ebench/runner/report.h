// Metric names, the median helper, the simulated metrics and the result
// line the benchmark prints last.
#ifndef E2EBENCH_RUNNER_REPORT_H_
#define E2EBENCH_RUNNER_REPORT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "e2ebench/runner/arms.h"

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result line's metrics with --trace 0, on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
// Simulated end-to-end metrics defined only on some workloads. They are
// printed in the report on those workloads and never in the result line,
// which must carry the same names on every workload.
const std::vector<MetricSpec>& WorkloadMetrics();
// The result line's metrics with --trace 1, on every workload (zero where a
// layer does no work on that workload).
const std::vector<MetricSpec>& PerLayerMetrics();
// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
bool ValidMetricName(std::string_view name);

// The median of `values` together with how many samples it was taken from.
struct Median {
  double value = 0.0;
  std::size_t count = 0;
};
Median MedianOf(std::vector<double> values);

// The simulated metrics of one pass over a workload's arms. A metric the
// workload does not define is absent from `values`.
struct SimulatedMetrics {
  std::vector<std::pair<std::string, double>> values;
  std::size_t ttft_samples = 0;  // dc_serving: LLM samples behind ttft_p99_ms
};
SimulatedMetrics ComputeSimulated(WorkloadId workload, const std::vector<Arm>& arms,
                                  const std::vector<ArmOutput>& outputs);

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// every value printed at full precision.
std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<MetricValue>& metrics);

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_REPORT_H_
