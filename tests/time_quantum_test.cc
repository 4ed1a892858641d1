// nvshare-style time-quantum scheduler (src/baselines/time_quantum.h) and
// its anti-thrashing policy pieces (src/memsub/thrash.h).
//
// The pure-logic suite drives the thrash detector's hysteresis and the
// quantum sizing directly; the integration suite runs the scheduler through
// the harness against the unified-memory pager and checks the regime
// transitions the oversubscription study relies on: shared mode stays
// pass-through when the collocation fits, sustained thrash flips to
// exclusive quanta, rotation serves every tenant, and an idle tenant cannot
// hold the GPU hostage.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/harness/experiment.h"
#include "src/memsub/thrash.h"

namespace orion {
namespace {

// --- ThrashDetector hysteresis (pure logic). -------------------------------

using memsub::kThrashEnterBusy;
using memsub::kThrashEnterWindows;
using memsub::kThrashExitBusy;
using memsub::kThrashExitWindows;

TEST(ThrashDetectorTest, ThresholdsAreNvshareDefaults) {
  EXPECT_DOUBLE_EQ(kThrashEnterBusy, 0.20);
  EXPECT_DOUBLE_EQ(kThrashExitBusy, 0.05);
  EXPECT_EQ(kThrashEnterWindows, 2);
  EXPECT_EQ(kThrashExitWindows, 5);
}

TEST(ThrashDetectorTest, NeverEntersWithoutOversubscription) {
  memsub::ThrashDetector detector;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.Observe(1.0, /*oversubscribed=*/false));
  }
}

TEST(ThrashDetectorTest, EntersOnlyAfterConsecutiveHighWindows) {
  memsub::ThrashDetector detector;
  for (int i = 1; i < kThrashEnterWindows; ++i) {
    EXPECT_FALSE(detector.Observe(kThrashEnterBusy, true));  // one burst is not thrash
  }
  EXPECT_TRUE(detector.Observe(kThrashEnterBusy, true));  // sustained: enter
}

TEST(ThrashDetectorTest, BrokenHighStreakDoesNotEnter) {
  memsub::ThrashDetector detector;
  EXPECT_FALSE(detector.Observe(0.9, true));
  EXPECT_FALSE(detector.Observe(0.1, true));  // streak broken
  EXPECT_FALSE(detector.Observe(0.9, true));  // counting restarts
  EXPECT_TRUE(detector.Observe(0.9, true));
}

TEST(ThrashDetectorTest, HoldsWhileOversubscribedEvenWhenQuiet) {
  // Exclusive mode itself quells the fault traffic; reverting while memory
  // is still oversubscribed would just thrash again. One-way door.
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, /*oversubscribed=*/true));
  }
}

TEST(ThrashDetectorTest, ExitsAfterSustainedQuietOnceFitting) {
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  // A client released: memory fits again. Exit still needs
  // kThrashExitWindows quiet windows.
  for (int i = 1; i < kThrashExitWindows; ++i) {
    EXPECT_TRUE(detector.Observe(kThrashExitBusy, /*oversubscribed=*/false)) << "window " << i;
  }
  EXPECT_FALSE(detector.Observe(kThrashExitBusy, /*oversubscribed=*/false));
}

TEST(ThrashDetectorTest, HighWindowResetsExitStreak) {
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  for (int i = 1; i < kThrashExitWindows; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, false));
  }
  EXPECT_TRUE(detector.Observe(0.9, false));  // residual burst: streak resets
  for (int i = 1; i < kThrashExitWindows; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, false));
  }
  EXPECT_FALSE(detector.Observe(0.0, false));
}

// --- Quantum sizing. -------------------------------------------------------

TEST(QuantumPolicyTest, ClampsToBounds) {
  // 50ms..2s, factor 8.
  EXPECT_DOUBLE_EQ(memsub::kMinQuantumUs, MsToUs(50.0));
  EXPECT_DOUBLE_EQ(memsub::kMaxQuantumUs, SecToUs(2.0));
  EXPECT_DOUBLE_EQ(memsub::kSwapCostFactor, 8.0);
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(0.0), memsub::kMinQuantumUs);
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(MsToUs(1.0)), memsub::kMinQuantumUs);
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(MsToUs(20.0)),
                   memsub::kSwapCostFactor * MsToUs(20.0));
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(SecToUs(10.0)), memsub::kMaxQuantumUs);
}

// --- Integration: scheduler + pager through the harness. -------------------

constexpr std::size_t kPage = std::size_t{2} * 1024 * 1024;

std::size_t PageAligned(std::size_t bytes) { return (bytes + kPage - 1) / kPage * kPage; }

// Short-request collocation (inference mixes show regime changes within a
// small simulated window): hp mobilenet + a larger best-effort resnet.
harness::ExperimentConfig TqConfig(double oversub_factor) {
  harness::ExperimentConfig config;
  config.device = gpusim::DeviceSpec::V100_16GB();
  config.scheduler = harness::SchedulerKind::kTimeQuantum;
  config.paging.enabled = true;
  harness::ClientConfig hp;
  hp.workload = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                        workloads::TaskType::kInference, 4);
  hp.high_priority = true;
  harness::ClientConfig be;
  be.workload = workloads::MakeWorkload(workloads::ModelId::kResNet101,
                                        workloads::TaskType::kInference, 16);
  be.paging_ws_fraction = 0.60;
  config.clients = {hp, be};
  const std::size_t aggregate = PageAligned(workloads::ApproxModelStateBytes(hp.workload)) +
                                PageAligned(workloads::ApproxModelStateBytes(be.workload));
  config.device.memory_bytes =
      static_cast<std::size_t>(static_cast<double>(aggregate) / oversub_factor) / kPage * kPage;
  config.warmup_us = MsToUs(250.0);
  config.duration_us = SecToUs(2.0);
  return config;
}

TEST(TimeQuantumIntegrationTest, StaysSharedWhenCollocationFits) {
  const auto result = harness::RunExperiment(TqConfig(1.0));
  EXPECT_EQ(result.tq_exclusive_entries, 0u);
  EXPECT_EQ(result.tq_quanta, 0u);
  EXPECT_EQ(result.paging.faults, 0u);
  EXPECT_GT(result.TotalThroughput(), 0.0);
}

TEST(TimeQuantumIntegrationTest, SustainedThrashEntersExclusiveMode) {
  const auto result = harness::RunExperiment(TqConfig(2.0));
  EXPECT_GT(result.paging.faults, 0u);
  EXPECT_GE(result.tq_exclusive_entries, 1u);
  EXPECT_GE(result.tq_quanta, 1u);
  EXPECT_GT(result.tq_exclusive_us, 0.0);
  // One-way door while oversubscribed: entered once, never re-entered.
  EXPECT_EQ(result.tq_exclusive_entries, 1u);
}

TEST(TimeQuantumIntegrationTest, QuantaRotateAcrossClients) {
  harness::ExperimentConfig config = TqConfig(2.0);
  config.duration_us = SecToUs(4.0);
  const auto result = harness::RunExperiment(config);
  ASSERT_GE(result.tq_exclusive_entries, 1u);
  // The quantum sized from measured swap cost is far shorter than the run:
  // the GPU must have rotated, and every tenant keeps completing requests
  // inside the measurement window (no starvation under exclusive quanta).
  EXPECT_GE(result.tq_quanta, 2u);
  for (const auto& client : result.clients) {
    EXPECT_GT(client.completed, 0u);
  }
}

TEST(TimeQuantumIntegrationTest, IdleClientReleasesQuantumEarly) {
  // The same collocation twice: once with a saturating (closed-loop) hp
  // tenant that uses every quantum it gets in full, once with a sparse one
  // (5 rps) that idles through most of its quanta. Without idle early
  // release the sparse tenant's quanta strand the GPU between arrivals, and
  // the busy best-effort tenant completes fewer requests beside it than
  // beside the saturating one; with release the stranded time goes back to
  // the busy tenant.
  harness::ExperimentConfig saturating = TqConfig(2.0);
  saturating.duration_us = SecToUs(3.0);
  harness::ExperimentConfig sparse = saturating;
  sparse.clients[0].arrivals = harness::ClientConfig::Arrivals::kPoisson;
  sparse.clients[0].rps = 5.0;
  const auto beside_saturating = harness::RunExperiment(saturating);
  const auto beside_sparse = harness::RunExperiment(sparse);
  ASSERT_GE(beside_saturating.tq_exclusive_entries, 1u);
  ASSERT_GE(beside_sparse.tq_exclusive_entries, 1u);
  EXPECT_GT(beside_sparse.clients[1].completed_total,
            beside_saturating.clients[1].completed_total);
}

}  // namespace
}  // namespace orion
