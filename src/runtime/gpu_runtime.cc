#include "src/runtime/gpu_runtime.h"

#include <utility>

#include "src/common/check.h"

namespace orion {
namespace runtime {

GpuRuntime::GpuRuntime(Simulator* sim, gpusim::DeviceSpec spec)
    : device_(sim, spec) {
  ORION_CHECK(sim != nullptr);
}

gpusim::StreamId GpuRuntime::CreateStream(int priority) {
  return device_.CreateStream(priority);
}

void GpuRuntime::Submit(const Op& op, gpusim::StreamId stream, CompletionCb done) {
  switch (op.type) {
    case OpType::kKernelLaunch:
      device_.LaunchKernel(stream, op.kernel, std::move(done));
      return;
    case OpType::kGraphLaunch: {
      // cudaGraphLaunch: one host call enqueues the whole captured sequence;
      // the stream executes it in order, `done` fires at the last kernel.
      ORION_CHECK_MSG(!op.graph_kernels.empty(), "empty CUDA graph");
      for (std::size_t i = 0; i + 1 < op.graph_kernels.size(); ++i) {
        device_.LaunchKernel(stream, op.graph_kernels[i]);
      }
      device_.LaunchKernel(stream, op.graph_kernels.back(), std::move(done));
      return;
    }
    case OpType::kMemcpyH2D:
      device_.EnqueueMemcpy(stream, op.bytes, gpusim::MemcpyKind::kHostToDevice,
                            std::move(done));
      return;
    case OpType::kMemcpyD2H:
      device_.EnqueueMemcpy(stream, op.bytes, gpusim::MemcpyKind::kDeviceToHost,
                            std::move(done));
      return;
  }
  ORION_CHECK_MSG(false, "unhandled op type");
}

void GpuRuntime::LaunchKernel(gpusim::StreamId stream, const gpusim::KernelDesc& kernel,
                              CompletionCb done) {
  device_.LaunchKernel(stream, kernel, std::move(done));
}

void GpuRuntime::RecordEvent(gpusim::StreamId stream, gpusim::GpuEvent* event,
                             CompletionCb done) {
  device_.RecordEvent(stream, event, std::move(done));
}

}  // namespace runtime
}  // namespace orion
