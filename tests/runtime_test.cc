// Runtime facade tests: op submission semantics.
#include <gtest/gtest.h>

#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace orion {
namespace runtime {
namespace {

using testutil::MakeKernel;

class RuntimeTest : public ::testing::Test {
 protected:
  Simulator sim_;
  gpusim::DeviceSpec spec_ = gpusim::DeviceSpec::V100_16GB();
};

TEST_F(RuntimeTest, KernelOpRoundTrip) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op op;
  op.type = OpType::kKernelLaunch;
  op.kernel = MakeKernel("k", 75.0, 0.5, 0.2, 10);
  TimeUs done = -1.0;
  rt.Submit(op, stream, [&]() { done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(done, 75.0);
  EXPECT_EQ(rt.device().kernels_completed(), 1u);
}

TEST_F(RuntimeTest, MemcpyOps) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op h2d;
  h2d.type = OpType::kMemcpyH2D;
  h2d.bytes = 12 * 1000 * 1000;
  Op d2h;
  d2h.type = OpType::kMemcpyD2H;
  d2h.bytes = 12 * 1000 * 1000;
  int copies = 0;
  rt.Submit(h2d, stream, [&]() { ++copies; });
  rt.Submit(d2h, stream, [&]() { ++copies; });
  sim_.RunUntilIdle();
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(rt.device().memcpys_completed(), 2u);
}

TEST_F(RuntimeTest, EventQueryNonBlocking) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op kernel;
  kernel.type = OpType::kKernelLaunch;
  kernel.kernel = MakeKernel("k", 100.0, 0.5, 0.2, 10);
  rt.Submit(kernel, stream, nullptr);
  gpusim::GpuEvent event;
  rt.RecordEvent(stream, &event);
  EXPECT_FALSE(event.done);  // cudaEventQuery: a non-blocking probe
  sim_.RunUntilIdle();
  EXPECT_TRUE(event.done);
}

}  // namespace
}  // namespace runtime
}  // namespace orion
