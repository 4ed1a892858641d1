// Unit tests of the benchmark's own code: the output digest must catch a
// one-bit flip in a double, -0.0 vs 0.0 and a swapped latency sample; the
// median helper must report its sample count; every metric name must be well
// formed; the probe must do the same work on every call; the committed
// reference must show that the seed changes every arm; and the benchmark's
// sources must name no simulator member that a ROADMAP open item removes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "e2ebench/runner/arms.h"
#include "e2ebench/runner/digest.h"
#include "e2ebench/runner/probe.h"
#include "e2ebench/runner/report.h"

namespace e2e {
namespace {

using orion::harness::ClientResult;
using orion::harness::ExperimentResult;

ExperimentResult SampleResult() {
  ExperimentResult result;
  result.scheduler_name = "orion";
  ClientResult hp;
  hp.name = "hp";
  hp.high_priority = true;
  hp.completed = 3;
  hp.throughput_rps = 12.5;
  for (const double us : {1000.0, 2000.0, 3000.0}) {
    hp.latency.Add(us);
  }
  result.clients.push_back(hp);
  result.utilization.compute = 0.25;
  return result;
}

TEST(Digest, EqualResultsHashEqual) {
  EXPECT_EQ(DigestOf(SampleResult()), DigestOf(SampleResult()));
}

TEST(Digest, CatchesOneBitFlipInADouble) {
  ExperimentResult flipped = SampleResult();
  const auto bits = std::bit_cast<std::uint64_t>(flipped.clients[0].throughput_rps);
  flipped.clients[0].throughput_rps = std::bit_cast<double>(bits ^ 1ULL);
  EXPECT_NE(DigestOf(SampleResult()), DigestOf(flipped));
}

TEST(Digest, TellsNegativeZeroFromZero) {
  ExperimentResult negative_zero = SampleResult();
  negative_zero.utilization.membw = -0.0;
  EXPECT_NE(DigestOf(SampleResult()), DigestOf(negative_zero));
}

TEST(Digest, CatchesSwappedLatencySamples) {
  ExperimentResult swapped = SampleResult();
  swapped.clients[0].latency = orion::LatencyRecorder();
  for (const double us : {2000.0, 1000.0, 3000.0}) {
    swapped.clients[0].latency.Add(us);
  }
  EXPECT_NE(DigestOf(SampleResult()), DigestOf(swapped));
}

TEST(Digest, CatchesClusterLatencySwap) {
  orion::datacenter::ClusterResult a;
  a.serving.models.resize(1);
  a.serving.models[0].ttft.Add(5.0);
  a.serving.models[0].ttft.Add(7.0);
  orion::datacenter::ClusterResult b;
  b.serving.models.resize(1);
  b.serving.models[0].ttft.Add(7.0);
  b.serving.models[0].ttft.Add(5.0);
  EXPECT_NE(DigestOf(a), DigestOf(b));
}

TEST(Median, ReportsSampleCount) {
  const Median odd = MedianOf({3.0, 1.0, 2.0});
  EXPECT_EQ(odd.count, 3u);
  EXPECT_EQ(odd.value, 2.0);
  const Median even = MedianOf({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.count, 4u);
  EXPECT_EQ(even.value, 2.5);
  const Median empty = MedianOf({});
  EXPECT_EQ(empty.count, 0u);
}

TEST(Probe, DoesTheSameWorkEveryCall) {
  const ProbeResult first = RunProbe();
  const ProbeResult second = RunProbe();
  EXPECT_EQ(first.checksum, second.checksum);
  EXPECT_NE(first.checksum, 0u);
  EXPECT_GT(first.ms, 0.0);
  EXPECT_GT(second.ms, 0.0);
}

TEST(MetricNames, AreWellFormedAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &WorkloadMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_NE(std::string(m.unit), "");
    }
  }
  EXPECT_TRUE(ValidMetricName("gpusim.ns_per_kernel"));
  EXPECT_FALSE(ValidMetricName("host s"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

// The committed reference: every workload has several seeds, each seed lists
// the same entries, and any two seeds differ on every arm, so a claim can be
// re-checked on an unused seed. The set-up takes no seed. The copy replay
// depends only on an arm's copy counts, which two seeds can share.
TEST(Reference, SeedsChangeEveryArm) {
  std::ifstream in(std::filesystem::path(E2E_SOURCE_DIR) / "reference" / "digests.txt");
  ASSERT_TRUE(in.good());
  // workload -> seed -> entry -> digest
  std::map<std::string, std::map<std::string, std::map<std::string, std::string>>> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload, seed, entry, digest;
    ASSERT_TRUE(static_cast<bool>(fields >> workload >> seed >> entry >> digest)) << line;
    EXPECT_TRUE(ref[workload][seed].emplace(entry, digest).second) << "duplicate: " << line;
  }
  for (const WorkloadId workload : kAllWorkloads) {
    const auto& seeds = ref[WorkloadName(workload)];
    ASSERT_GE(seeds.size(), 2u) << WorkloadName(workload);
    const auto& first = seeds.begin()->second;
    EXPECT_GT(first.size(), 2u);
    for (auto a = seeds.begin(); a != seeds.end(); ++a) {
      ASSERT_EQ(a->second.size(), first.size()) << WorkloadName(workload) << " seed " << a->first;
      for (auto b = std::next(a); b != seeds.end(); ++b) {
        for (const auto& [entry, digest] : a->second) {
          ASSERT_EQ(b->second.count(entry), 1u) << entry;
          if (entry == "setup") {
            EXPECT_EQ(b->second.at(entry), digest) << WorkloadName(workload);
          } else if (entry != "replay") {
            EXPECT_NE(b->second.at(entry), digest) << WorkloadName(workload) << " " << entry
                                                   << ": seeds " << a->first << " and "
                                                   << b->first;
          }
        }
      }
    }
  }
}

// The benchmark must keep building, unchanged, after the ROADMAP's open
// items land: it may not name the parallel engine's knobs, the utilization
// history vector or the device's named completion-callback type. The
// patterns are assembled so this file does not match itself.
TEST(ApiSurface, SourcesNameNoMemberSlatedForRemoval) {
  const std::vector<std::string> forbidden = {
      std::string("lp_") + "threads",
      std::string("lp_") + "oracle",
      std::string("UtilizationTracker::") + "samples",
      std::string("utilization().") + "samples",
      std::string("Completion") + "Cb",
  };
  const std::filesystem::path root(E2E_SOURCE_DIR);
  std::size_t scanned = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() ||
        (ext != ".cc" && ext != ".h" && ext != ".py" && ext != ".txt")) {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    ++scanned;
    for (const std::string& name : forbidden) {
      EXPECT_EQ(text.str().find(name), std::string::npos)
          << entry.path() << " names " << name;
    }
  }
  EXPECT_GE(scanned, 10u);
}

}  // namespace
}  // namespace e2e
