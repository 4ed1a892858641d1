// UtilizationTracker unit tests: interval recording, merging, declared-window
// averages and timeline downsampling (feed Figures 1, 8, 9 and Table 1),
// plus a property test against a full-history reference and two soaks that
// pin the O(windows) memory contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/gpusim/device.h"
#include "src/gpusim/utilization.h"
#include "src/sim/simulator.h"

namespace orion {
namespace gpusim {
namespace {

constexpr TimeUs kOpen = UtilizationTracker::kOpenEnded;

// The tracker's previous implementation, kept as the reference: every merged
// sample is stored and AverageOver scans them all in order.
class ReferenceTracker {
 public:
  void Record(TimeUs start, TimeUs end, double compute, double membw, double sm_busy) {
    if (end <= start) {
      return;
    }
    if (!samples_.empty()) {
      UtilizationSample& last = samples_.back();
      if (last.end == start && last.compute == compute && last.membw == membw &&
          last.sm_busy == sm_busy) {
        last.end = end;
        return;
      }
    }
    samples_.push_back(UtilizationSample{start, end, compute, membw, sm_busy});
  }

  UtilizationSample AverageOver(TimeUs from, TimeUs to) const {
    UtilizationSample out;
    out.start = from;
    out.end = to;
    double total = 0.0;
    double compute_sum = 0.0;
    double membw_sum = 0.0;
    double sm_sum = 0.0;
    for (const UtilizationSample& sample : samples_) {
      const TimeUs lo = std::max(sample.start, from);
      const TimeUs hi = std::min(sample.end, to);
      if (hi <= lo) {
        continue;
      }
      const double width = hi - lo;
      total += width;
      compute_sum += width * sample.compute;
      membw_sum += width * sample.membw;
      sm_sum += width * sample.sm_busy;
    }
    if (total > 0.0) {
      out.compute = compute_sum / total;
      out.membw = membw_sum / total;
      out.sm_busy = sm_sum / total;
    }
    return out;
  }

  std::size_t size() const { return samples_.size(); }

 private:
  std::vector<UtilizationSample> samples_;
};

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitwiseEqual(const UtilizationSample& got, const UtilizationSample& want) {
  EXPECT_EQ(Bits(got.start), Bits(want.start));
  EXPECT_EQ(Bits(got.end), Bits(want.end));
  EXPECT_EQ(Bits(got.compute), Bits(want.compute)) << got.compute << " vs " << want.compute;
  EXPECT_EQ(Bits(got.membw), Bits(want.membw)) << got.membw << " vs " << want.membw;
  EXPECT_EQ(Bits(got.sm_busy), Bits(want.sm_busy)) << got.sm_busy << " vs " << want.sm_busy;
}

TEST(UtilizationTrackerTest, RecordsAndAverages) {
  UtilizationTracker tracker;
  tracker.DeclareWindow(0.0, kOpen);
  tracker.Record(0.0, 10.0, 1.0, 0.5, 0.8);
  tracker.Record(10.0, 30.0, 0.25, 0.5, 0.2);
  const UtilizationSample avg = tracker.AverageOver(0.0, kOpen);
  EXPECT_NEAR(avg.compute, (10.0 * 1.0 + 20.0 * 0.25) / 30.0, 1e-12);
  EXPECT_NEAR(avg.membw, 0.5, 1e-12);
  EXPECT_NEAR(avg.sm_busy, (10.0 * 0.8 + 20.0 * 0.2) / 30.0, 1e-12);
}

TEST(UtilizationTrackerTest, WeightsByDuration) {
  UtilizationTracker tracker;
  tracker.DeclareWindow(0.0, 40.0);
  tracker.Record(0.0, 10.0, 1.0, 1.0, 1.0);
  tracker.Record(10.0, 40.0, 0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(tracker.AverageOver(0.0, 40.0).compute, 0.25);
}

TEST(UtilizationTrackerTest, MergesIdenticalAdjacentSamples) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 5.0, 0.3, 0.3, 0.3);
  tracker.Record(5.0, 10.0, 0.3, 0.3, 0.3);  // identical: merged
  tracker.Record(10.0, 15.0, 0.6, 0.3, 0.3);  // differs: new sample
  EXPECT_EQ(tracker.sample_count(), 2u);
}

TEST(UtilizationTrackerTest, ZeroWidthIntervalIgnored) {
  UtilizationTracker tracker;
  tracker.DeclareWindow(0.0, kOpen);
  tracker.Record(5.0, 5.0, 1.0, 1.0, 1.0);
  EXPECT_EQ(tracker.sample_count(), 0u);
  EXPECT_DOUBLE_EQ(tracker.AverageOver(0.0, kOpen).compute, 0.0);
}

TEST(UtilizationTrackerTest, WindowedAverageClipsIntervals) {
  UtilizationTracker tracker;
  tracker.DeclareWindow(50.0, 150.0);
  tracker.Record(0.0, 100.0, 1.0, 0.0, 0.5);
  tracker.Record(100.0, 200.0, 0.0, 1.0, 0.5);
  // Window [50, 150): half from each interval.
  const UtilizationSample avg = tracker.AverageOver(50.0, 150.0);
  EXPECT_NEAR(avg.compute, 0.5, 1e-12);
  EXPECT_NEAR(avg.membw, 0.5, 1e-12);
  EXPECT_NEAR(avg.sm_busy, 0.5, 1e-12);
}

TEST(UtilizationTrackerTest, WindowBeyondDataIsZero) {
  UtilizationTracker tracker;
  tracker.DeclareWindow(100.0, 200.0);
  tracker.Record(0.0, 10.0, 1.0, 1.0, 1.0);
  const UtilizationSample avg = tracker.AverageOver(100.0, 200.0);
  EXPECT_DOUBLE_EQ(avg.compute, 0.0);
  EXPECT_DOUBLE_EQ(avg.membw, 0.0);
}

TEST(UtilizationTrackerTest, TimelineBucketsCoverRange) {
  UtilizationTracker tracker;
  tracker.DeclareTimeline(0.0, 100.0, 4);
  tracker.Record(0.0, 50.0, 1.0, 0.2, 0.5);
  tracker.Record(50.0, 100.0, 0.0, 0.8, 0.5);
  const auto timeline = tracker.Timeline(0.0, 100.0, 4);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timeline[0].start, 0.0);
  EXPECT_DOUBLE_EQ(timeline[3].end, 100.0);
  EXPECT_NEAR(timeline[0].compute, 1.0, 1e-12);
  EXPECT_NEAR(timeline[1].compute, 1.0, 1e-12);
  EXPECT_NEAR(timeline[2].compute, 0.0, 1e-12);
  EXPECT_NEAR(timeline[2].membw, 0.8, 1e-12);
}

TEST(UtilizationTrackerTest, TimelineBucketStraddlingBoundaryAverages) {
  UtilizationTracker tracker;
  tracker.DeclareTimeline(0.0, 100.0, 1);
  tracker.Record(0.0, 50.0, 1.0, 0.0, 1.0);
  tracker.Record(50.0, 100.0, 0.0, 0.0, 0.0);
  const auto timeline = tracker.Timeline(0.0, 100.0, 1);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_NEAR(timeline[0].compute, 0.5, 1e-12);
}

TEST(UtilizationTrackerDeathTest, ReversedIntervalAborts) {
  UtilizationTracker tracker;
  EXPECT_DEATH(tracker.Record(10.0, 5.0, 0.5, 0.5, 0.5), "reversed");
}

TEST(UtilizationTrackerDeathTest, UndeclaredWindowAborts) {
  UtilizationTracker tracker;
  tracker.DeclareWindow(0.0, 100.0);
  tracker.Record(0.0, 10.0, 1.0, 1.0, 1.0);
  EXPECT_DEATH(tracker.AverageOver(0.0, 50.0), "never declared");
  EXPECT_DEATH(tracker.Timeline(0.0, 100.0, 2), "never declared");
}

TEST(UtilizationTrackerDeathTest, LateDeclarationAborts) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 10.0, 1.0, 1.0, 1.0);
  tracker.Record(10.0, 20.0, 0.5, 1.0, 1.0);  // closes [0, 10)
  EXPECT_DEATH(tracker.DeclareWindow(5.0, 50.0), "declared after");
}

// --- Property test: streaming tracker == full-history reference, bitwise. ---

// Drives both trackers with one seeded interval sequence: runs of mergeable
// identical samples, zero-width intervals, occasional gaps, and windows
// declared before and during the run (some straddling a merged sample, some
// open-ended; `declare_rate` is the chance per step of a mid-run window).
struct Feed {
  UtilizationTracker tracker;
  ReferenceTracker reference;
  std::vector<std::pair<TimeUs, TimeUs>> windows;
};

void Drive(std::uint64_t seed, int steps, double declare_rate, Feed* feed) {
  Rng rng(seed);
  const auto declare = [feed](TimeUs from, TimeUs to) {
    feed->tracker.DeclareWindow(from, to);
    feed->windows.emplace_back(from, to);
  };
  declare(0.0, kOpen);
  declare(3.0, 150.0);
  TimeUs t = 0.0;
  double compute = 0.0;
  double membw = 0.0;
  double sm_busy = 0.0;
  for (int i = 0; i < steps; ++i) {
    // A small palette makes exact repeats (hence merges) common.
    if (rng.NextDouble() < 0.6) {
      compute = 0.125 * static_cast<double>(rng.UniformInt(0, 8));
      membw = rng.NextDouble() < 0.5 ? 0.0 : rng.NextDouble();
      sm_busy = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
    }
    const double roll = rng.NextDouble();
    TimeUs start = t;
    if (roll < 0.05) {
      start += rng.UniformDouble(0.0, 10.0);  // gap: no merge across it
    }
    const TimeUs end = roll > 0.9 ? start : start + rng.Exponential(4.0);
    feed->tracker.Record(start, end, compute, membw, sm_busy);
    feed->reference.Record(start, end, compute, membw, sm_busy);
    t = end;
    if (rng.NextDouble() < declare_rate) {
      // Declared mid-run: may start inside the open (still merging) sample.
      const TimeUs from = t + rng.UniformDouble(0.0, 20.0);
      declare(from, rng.NextDouble() < 0.2 ? kOpen : from + rng.UniformDouble(0.5, 300.0));
    }
    if (i % 97 == 0) {
      // Queries mid-run fold the open sample without closing it.
      for (const auto& [from, to] : feed->windows) {
        ExpectBitwiseEqual(feed->tracker.AverageOver(from, to),
                           feed->reference.AverageOver(from, to));
      }
    }
  }
}

class UtilizationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UtilizationPropertyTest, StreamingMatchesFullHistoryBitwise) {
  Feed feed;
  Drive(GetParam(), 3000, 0.02, &feed);
  ASSERT_GT(feed.windows.size(), 20u);
  EXPECT_EQ(feed.tracker.sample_count(), feed.reference.size());
  EXPECT_LT(feed.tracker.sample_count(), 3000u) << "no sample merged";
  for (const auto& [from, to] : feed.windows) {
    ExpectBitwiseEqual(feed.tracker.AverageOver(from, to), feed.reference.AverageOver(from, to));
  }
}

TEST_P(UtilizationPropertyTest, TimelineMatchesFullHistoryBitwise) {
  UtilizationTracker tracker;
  ReferenceTracker reference;
  Rng rng(GetParam());
  constexpr int kBuckets = 13;
  tracker.DeclareTimeline(0.0, 500.0, kBuckets);
  TimeUs t = 0.0;
  double compute = 0.5;
  for (int i = 0; i < 400; ++i) {
    if (rng.NextDouble() < 0.5) {
      compute = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
    }
    const TimeUs end = t + rng.Exponential(1.5);
    tracker.Record(t, end, compute, 0.5, 0.5);
    reference.Record(t, end, compute, 0.5, 0.5);
    t = end;
  }
  const auto timeline = tracker.Timeline(0.0, 500.0, kBuckets);
  ASSERT_EQ(timeline.size(), static_cast<std::size_t>(kBuckets));
  const double width = 500.0 / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    const TimeUs lo = 0.0 + b * width;
    ExpectBitwiseEqual(timeline[static_cast<std::size_t>(b)],
                       reference.AverageOver(lo, lo + width));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtilizationPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1234, 99991));

// --- Soaks: memory is flat in run length. ---

TEST(UtilizationSoakTest, TrackerMemoryFlatAndExactOverTenfoldRun) {
  Feed short_run;
  Drive(5, 2000, 0.0, &short_run);
  Feed long_run;
  Drive(5, 20000, 0.0, &long_run);
  EXPECT_GT(long_run.tracker.sample_count(), 5 * short_run.tracker.sample_count());
  EXPECT_EQ(long_run.tracker.retained_bytes(), short_run.tracker.retained_bytes());
  for (const auto& [from, to] : long_run.windows) {
    ExpectBitwiseEqual(long_run.tracker.AverageOver(from, to),
                       long_run.reference.AverageOver(from, to));
  }
}

// Periodic device traffic: every period launches the same kernels on a
// high- and a default-priority stream, then probes at the period boundary.
struct DeviceSoak {
  std::size_t retained_bytes = 0;
  std::size_t samples = 0;
  UtilizationSample first_period;
  UtilizationSample whole_run;
};

DeviceSoak RunDeviceSoak(int periods) {
  constexpr TimeUs kPeriod = 1000.0;
  Simulator sim;
  Device device(&sim, DeviceSpec::V100_16GB());
  const StreamId high = device.CreateStream(kPriorityHigh);
  const StreamId low = device.CreateStream(kPriorityDefault);
  const TimeUs horizon = kPeriod * periods;
  device.utilization().DeclareWindow(0.0, kPeriod);
  device.utilization().DeclareWindow(0.0, horizon);
  for (int p = 0; p < periods; ++p) {
    const TimeUs at = kPeriod * p;
    sim.ScheduleAt(at, [&device, high, low] {
      for (int k = 0; k < 4; ++k) {
        KernelDesc kernel;
        kernel.name = "soak";
        kernel.duration_us = 40.0 + 30.0 * k;
        kernel.compute_util = 0.2 * (k + 1);
        kernel.membw_util = 0.8 - 0.15 * k;
        kernel.geometry = {120 * (k + 1), 256, 32, 0};
        device.LaunchKernel(k % 2 == 0 ? high : low, kernel);
      }
    });
    sim.ScheduleAt(at + kPeriod, [&device, low] { device.StreamExecutedUs(low); });
  }
  sim.RunUntil(horizon);
  DeviceSoak out;
  out.retained_bytes = device.utilization().retained_bytes();
  out.samples = device.utilization().sample_count();
  out.first_period = device.utilization().AverageOver(0.0, kPeriod);
  out.whole_run = device.utilization().AverageOver(0.0, horizon);
  return out;
}

TEST(UtilizationSoakTest, DeviceTrackerHoldsNoPerIntervalState) {
  const DeviceSoak once = RunDeviceSoak(50);
  const DeviceSoak tenfold = RunDeviceSoak(500);
  EXPECT_GE(tenfold.samples, 9 * once.samples);
  EXPECT_EQ(tenfold.retained_bytes, once.retained_bytes);
  // The first period saw identical traffic in both runs.
  ExpectBitwiseEqual(tenfold.first_period, once.first_period);
  EXPECT_GT(tenfold.whole_run.compute, 0.0);
  EXPECT_NEAR(tenfold.whole_run.compute, once.whole_run.compute, 1e-9);
}

}  // namespace
}  // namespace gpusim
}  // namespace orion
