// Bench flag parsing (bench/bench_util.h): numeric flag values are parsed
// whole, and a malformed one exits with status 2 and a message naming the
// flag instead of running the bench with a silently wrong value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace orion {
namespace bench {
namespace {

void Parse(std::vector<std::string> args) {
  std::string program = "bench";
  std::vector<char*> argv = {program.data()};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  int argc = static_cast<int>(argv.size());
  ParseBenchArgs(&argc, argv.data());
}

TEST(BenchArgsTest, ParsesWellFormedValues) {
  const BenchArgs saved = GlobalBenchArgs();
  Parse({"--seed=7", "--window-scale=0.5", "--flush-period-ms=100"});
  EXPECT_EQ(GlobalBenchArgs().seed, 7u);
  EXPECT_EQ(GlobalBenchArgs().window_scale, 0.5);
  EXPECT_EQ(GlobalBenchArgs().flush_period_ms, 100.0);
  GlobalBenchArgs() = saved;
}

TEST(BenchArgsDeathTest, RejectsMalformedValues) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(Parse({"--seed=abc"}), ExitedWithCode(2), "--seed");
  EXPECT_EXIT(Parse({"--seed=12x"}), ExitedWithCode(2), "--seed");
  EXPECT_EXIT(Parse({"--seed=-1"}), ExitedWithCode(2), "--seed");
  EXPECT_EXIT(Parse({"--seed="}), ExitedWithCode(2), "--seed");
  EXPECT_EXIT(Parse({"--window-scale=nan"}), ExitedWithCode(2), "--window-scale");
  EXPECT_EXIT(Parse({"--window-scale=0"}), ExitedWithCode(2), "--window-scale");
  EXPECT_EXIT(Parse({"--flush-period-ms=nan"}), ExitedWithCode(2), "--flush-period-ms");
  EXPECT_EXIT(Parse({"--flush-period-ms=inf"}), ExitedWithCode(2), "--flush-period-ms");
}

}  // namespace
}  // namespace bench
}  // namespace orion
