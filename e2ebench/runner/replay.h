// Scheduler-less gpusim replays: a gpusim::Device on a Simulator driven only
// through its public API, with no scheduler, harness or pager on top, so the
// device model's own host cost per kernel, per copy and per event can be
// read apart from everything that normally calls it. Both replays are fed
// with traffic recorded from one of the workload's own arms.
//
//   kernel replay — every kernel of a recorded colloc_apollo arm, taken from
//                   the public kernel-trace sink (kernel id, stream, start
//                   time), launched on its stream at the time it started in
//                   the arm, with its KernelDesc looked up from BuildKernels.
//   copy replay   — the copies of a recorded oversub_paging arm: the pager's
//                   page faults and writebacks (counts and sizes from the
//                   arm's PagingTotals) and each client's per-request input
//                   and output copies, each class spread evenly over the
//                   arm's simulated run, with the arm's PCIe scheduling.
#ifndef E2EBENCH_RUNNER_REPLAY_H_
#define E2EBENCH_RUNNER_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time_types.h"
#include "src/gpusim/device.h"
#include "src/gpusim/kernel.h"

namespace e2e {

struct ReplayResult {
  std::uint64_t digest = 0;   // every completion's id, stream and end time
  std::uint64_t kernels = 0;  // kernels the replay device completed
  std::uint64_t copies = 0;   // copies the replay device completed
  std::uint64_t events = 0;   // simulator events executed
  double host_ns = 0.0;
  double retained_mb = 0.0;   // heap the device still holds at the end
  std::string error;          // empty when the traffic could be replayed
};

// A kernel table and whether its kernels ran on a high-priority stream.
struct KernelSource {
  const std::vector<orion::gpusim::KernelDesc>* kernels = nullptr;
  bool high_priority = false;
};

ReplayResult ReplayKernels(const std::vector<orion::gpusim::KernelExecRecord>& records,
                           const std::vector<KernelSource>& sources);

// `count` copies of `bytes` each, on a stream of the given priority.
struct CopyClass {
  orion::gpusim::MemcpyKind kind = orion::gpusim::MemcpyKind::kHostToDevice;
  std::size_t bytes = 0;
  std::uint64_t count = 0;
  bool high_priority = false;
};

struct CopyTraffic {
  std::vector<CopyClass> classes;
  orion::TimeUs horizon_us = 0.0;  // the recorded arm's warm-up + window
  bool pcie_priority_scheduling = false;
};

ReplayResult ReplayCopies(const CopyTraffic& traffic);

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_REPLAY_H_
