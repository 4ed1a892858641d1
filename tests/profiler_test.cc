// Profiler tests: the offline phase measures what the device actually did,
// classification matches §5.2, and profiles round-trip through files whose
// loader rejects malformed values naming the line.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/profiler/profiler.h"

namespace orion {
namespace profiler {
namespace {

const gpusim::DeviceSpec kV100 = gpusim::DeviceSpec::V100_16GB();

class ProfilerTest : public ::testing::Test {
 protected:
  WorkloadProfile Profile(workloads::ModelId model, workloads::TaskType task) {
    ProfileOptions opts;
    opts.warmup_requests = 1;
    opts.measured_requests = 3;
    return ProfileWorkload(kV100, workloads::MakeWorkload(model, task), opts);
  }
};

TEST_F(ProfilerTest, CoversEveryKernel) {
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kResNet50,
                                            workloads::TaskType::kInference);
  const auto profile = Profile(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  const auto kernels = workloads::BuildKernels(kV100, spec);
  EXPECT_EQ(profile.kernels.size(), kernels.size());
  for (const auto& kernel : kernels) {
    const KernelProfile* kp = profile.Find(kernel.kernel_id);
    ASSERT_NE(kp, nullptr) << kernel.name;
    // Run-alone measurement equals the descriptor duration (no contention).
    EXPECT_NEAR(kp->duration_us, kernel.duration_us, 1e-6) << kernel.name;
    EXPECT_EQ(kp->sm_needed, gpusim::SmsNeeded(kV100, kernel.geometry));
    EXPECT_EQ(kp->profile, gpusim::ClassifyKernel(kernel));
  }
}

TEST_F(ProfilerTest, RequestLatencyIncludesHostPacing) {
  const auto profile = Profile(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  double kernel_sum = 0.0;
  for (const auto& kp : profile.kernels) {
    kernel_sum += kp.duration_us;
  }
  // End-to-end latency covers kernels plus copies and launch pacing.
  EXPECT_GT(profile.request_latency_us, kernel_sum * 0.8);
  EXPECT_LT(profile.request_latency_us, kernel_sum * 3.0);
}

TEST_F(ProfilerTest, UtilizationAveragesPopulated) {
  const auto profile = Profile(workloads::ModelId::kResNet50, workloads::TaskType::kTraining);
  EXPECT_GT(profile.avg_compute_util, 0.05);
  EXPECT_GT(profile.avg_membw_util, 0.05);
  EXPECT_GT(profile.avg_sm_busy, 0.1);
  EXPECT_LE(profile.avg_compute_util, 1.0);
  EXPECT_LE(profile.avg_membw_util, 1.0);
  EXPECT_LE(profile.avg_sm_busy, 1.0);
}

TEST_F(ProfilerTest, FindUnknownIdReturnsNull) {
  const auto profile = Profile(workloads::ModelId::kMobileNetV2, workloads::TaskType::kInference);
  EXPECT_EQ(profile.Find(0xdeadbeefdeadbeefULL), nullptr);
}

TEST_F(ProfilerTest, SaveLoadRoundTrip) {
  const auto profile = Profile(workloads::ModelId::kBert, workloads::TaskType::kInference);
  std::stringstream file;
  SaveProfile(profile, file);
  const WorkloadProfile loaded = LoadProfile(file);
  EXPECT_EQ(loaded.workload_name, profile.workload_name);
  EXPECT_EQ(loaded.device_name, profile.device_name);
  EXPECT_NEAR(loaded.request_latency_us, profile.request_latency_us, 1e-3);
  ASSERT_EQ(loaded.kernels.size(), profile.kernels.size());
  for (std::size_t i = 0; i < loaded.kernels.size(); ++i) {
    EXPECT_EQ(loaded.kernels[i].kernel_id, profile.kernels[i].kernel_id);
    EXPECT_EQ(loaded.kernels[i].name, profile.kernels[i].name);
    EXPECT_NEAR(loaded.kernels[i].duration_us, profile.kernels[i].duration_us, 1e-3);
    EXPECT_EQ(loaded.kernels[i].profile, profile.kernels[i].profile);
    EXPECT_EQ(loaded.kernels[i].sm_needed, profile.kernels[i].sm_needed);
  }
  // The loaded profile's lookup table works.
  EXPECT_NE(loaded.Find(profile.kernels.front().kernel_id), nullptr);
}

TEST_F(ProfilerTest, DeterministicAcrossRuns) {
  const auto a = Profile(workloads::ModelId::kTransformer, workloads::TaskType::kInference);
  const auto b = Profile(workloads::ModelId::kTransformer, workloads::TaskType::kInference);
  EXPECT_DOUBLE_EQ(a.request_latency_us, b.request_latency_us);
  EXPECT_DOUBLE_EQ(a.avg_compute_util, b.avg_compute_util);
}

TEST_F(ProfilerTest, MoreHostOverheadSlowsRequests) {
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                            workloads::TaskType::kInference);
  ProfileOptions fast;
  fast.launch_overhead_us = 2.0;
  fast.measured_requests = 3;
  ProfileOptions slow;
  slow.launch_overhead_us = 60.0;  // large enough that the host is the bottleneck
  slow.measured_requests = 3;
  const auto profile_fast = ProfileWorkload(kV100, spec, fast);
  const auto profile_slow = ProfileWorkload(kV100, spec, slow);
  EXPECT_GT(profile_slow.request_latency_us, profile_fast.request_latency_us);
}

TEST_F(ProfilerTest, LoadRejectsCorruptFile) {
  std::stringstream file("not-a-profile\n");
  EXPECT_DEATH((void)LoadProfile(file), "expected key");
}

// A one-kernel profile file; `header` replaces the line of its key.
std::string ProfileText(const std::string& kernel_line, const std::string& header = "") {
  std::string text;
  for (std::string line : {"workload=w", "device=d", "request_latency_us=10",
                           "avg_compute_util=0.5", "avg_membw_util=0.25", "avg_sm_busy=0.75",
                           "kernels=1"}) {
    if (!header.empty() && header.substr(0, header.find('=')) == line.substr(0, line.find('='))) {
      line = header;
    }
    text += line + "\n";
  }
  return text + kernel_line + "\n";
}

WorkloadProfile LoadText(const std::string& text) {
  std::stringstream file(text);
  return LoadProfile(file);
}

TEST(ProfileLoadTest, HandWrittenFileLoads) {
  const WorkloadProfile profile = LoadText(ProfileText("7,k,1.5,0.5,0.25,1,4"));
  EXPECT_DOUBLE_EQ(profile.request_latency_us, 10.0);
  EXPECT_DOUBLE_EQ(profile.avg_sm_busy, 0.75);
  ASSERT_EQ(profile.kernels.size(), 1u);
  EXPECT_EQ(profile.kernels[0].kernel_id, 7u);
  EXPECT_EQ(profile.kernels[0].name, "k");
  EXPECT_DOUBLE_EQ(profile.kernels[0].duration_us, 1.5);
  EXPECT_EQ(profile.kernels[0].profile, gpusim::ResourceProfile::kMemoryBound);
  EXPECT_EQ(profile.kernels[0].sm_needed, 4);
}

TEST(ProfileLoadDeathTest, RejectsNonFiniteOrNegativeAmounts) {
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,inf,0.5,0.25,1,4")),
               "profile line 8: duration_us must be finite and non-negative");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,-0.25,1,4")),
               "profile line 8: membw_util must be finite and non-negative");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,1,4", "request_latency_us=nan")),
               "profile line 3: request_latency_us must be finite and non-negative");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,1,4", "avg_compute_util=-1")),
               "profile line 4: avg_compute_util must be finite and non-negative");
}

TEST(ProfileLoadDeathTest, RejectsOutOfRangeProfile) {
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,3,4")),
               "profile line 8: profile 3 out of range");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,-1,4")),
               "profile line 8: profile -1 out of range");
}

TEST(ProfileLoadDeathTest, RejectsTrailingJunkAndBadNumbers) {
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5x,0.5,0.25,1,4")),
               "profile line 8: invalid duration_us '1.5x'");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,1,4,9")),
               "profile line 8: expected 7 fields, got 8");
  EXPECT_DEATH((void)LoadText(ProfileText("-7,k,1.5,0.5,0.25,1,4")),
               "profile line 8: invalid kernel id '-7'");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,1,99999999999")),
               "profile line 8: invalid sm_needed");
  EXPECT_DEATH((void)LoadText(ProfileText("7,k,1.5,0.5,0.25,1,4", "kernels=1 ")),
               "profile line 7: invalid kernels '1 '");
}

TEST(ProfileLoadDeathTest, RejectsTruncatedKernelList) {
  std::stringstream file(ProfileText("7,k,1.5,0.5,0.25,1,4", "kernels=2"));
  EXPECT_DEATH((void)LoadProfile(file), "profile line 9: truncated file, expected kernel 1");
}

}  // namespace
}  // namespace profiler
}  // namespace orion
