// KV-cache allocator property test (LLM serving PR): seeded random churn —
// sequence creates, one-token grows, block-boundary jumps, frees, and
// capacity-probing over-asks — against a model map, verifying after EVERY
// mutation that the allocator's observable state matches the model:
//   used_blocks == Σ_{live} ceil(tokens / kKvBlockTokens)
//   live_tokens == Σ_{live} tokens
//   used_bytes  <= capacity_bytes
// The allocator ORION_CHECKs the same identity internally after every
// mutation, so a divergence aborts there first; the external model makes the
// test fail loudly even if the internal check were ever weakened. A second
// pass replays identical churn and compares the full accept/reject sequence
// bit-for-bit (determinism).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/serving/kv_cache.h"

namespace orion {
namespace serving {
namespace {

constexpr std::size_t kKb = 1 << 10;

KvCacheConfig SmallConfig(std::size_t bytes_per_token = kKb, std::size_t blocks = 64) {
  KvCacheConfig config;
  config.bytes_per_token = bytes_per_token;
  config.capacity_bytes = blocks * static_cast<std::size_t>(kKvBlockTokens) * bytes_per_token;
  return config;
}

int ModelBlocks(const std::map<std::uint64_t, int>& model) {
  int blocks = 0;
  for (const auto& [seq, tokens] : model) {
    blocks += (tokens + kKvBlockTokens - 1) / kKvBlockTokens;
  }
  return blocks;
}

// One seeded churn pass; returns the accept/reject decision sequence so a
// replay can be compared bit-for-bit.
std::vector<bool> RunChurn(std::uint64_t seed, const KvCacheConfig& config, int ops) {
  KvCacheAllocator kv(config);
  std::map<std::uint64_t, int> model;  // seq -> tokens, the external oracle
  std::vector<bool> decisions;
  Rng rng(seed);
  std::uint64_t next_seq = 0;

  for (int op = 0; op < ops; ++op) {
    const std::int64_t kind = rng.UniformInt(0, 9);
    if (kind <= 3 || model.empty()) {
      // Create: a fresh sequence reserving a random prompt length; once the
      // cache fills these start rejecting (and must do so cleanly).
      const int tokens = static_cast<int>(
          rng.UniformInt(1, 3 * kKvBlockTokens * 4));
      const std::uint64_t seq = next_seq++;
      const bool ok = kv.TryReserve(seq, tokens);
      decisions.push_back(ok);
      if (ok) {
        model[seq] = tokens;
      } else {
        EXPECT_FALSE(kv.Holds(seq)) << "failed reserve must leave no state";
      }
    } else if (kind <= 6) {
      // Grow a random live sequence: usually by one token (the decode-step
      // pattern), sometimes a multi-block jump (evict-rejoin recompute).
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<std::int64_t>(model.size()) - 1)));
      const int grow =
          rng.UniformInt(0, 3) == 0 ? static_cast<int>(rng.UniformInt(1, 40)) : 1;
      const int want = it->second + grow;
      const bool ok = kv.TryReserve(it->first, want);
      decisions.push_back(ok);
      if (ok) {
        it->second = want;
      } else {
        EXPECT_EQ(kv.SequenceTokens(it->first), it->second)
            << "failed grow must keep the old reservation";
      }
    } else if (kind <= 8) {
      // Free a random live sequence (completion or eviction).
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<std::int64_t>(model.size()) - 1)));
      kv.Free(it->first);
      decisions.push_back(true);
      model.erase(it);
    } else {
      // Capacity probe: ask for exactly one token more than fits.
      const int over = static_cast<int>(kv.free_blocks()) * kKvBlockTokens + 1;
      const bool ok = kv.TryReserve(next_seq++, over);
      decisions.push_back(ok);
      EXPECT_FALSE(ok) << "an over-capacity ask must reject";
    }

    // The identity, checked externally after every mutation (EXPECT, not
    // ASSERT: gtest fatal assertions need a void-returning function).
    EXPECT_EQ(kv.live_sequences(), model.size());
    EXPECT_EQ(static_cast<int>(kv.used_blocks()), ModelBlocks(model));
    std::size_t tokens = 0;
    for (const auto& [seq, t] : model) {
      EXPECT_TRUE(kv.Holds(seq));
      EXPECT_EQ(kv.SequenceTokens(seq), t);
      tokens += static_cast<std::size_t>(t);
    }
    EXPECT_EQ(kv.live_tokens(), tokens);
    EXPECT_LE(kv.used_bytes(), kv.capacity_bytes());
  }
  return decisions;
}

TEST(KvCachePropertyTest, SeededChurnHoldsBlockIdentity) {
  const KvCacheConfig config = SmallConfig();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunChurn(seed, config, /*ops=*/400);
  }
}

TEST(KvCachePropertyTest, ChurnIsDeterministic) {
  const KvCacheConfig config = SmallConfig();
  const std::vector<bool> first = RunChurn(99, config, /*ops=*/400);
  const std::vector<bool> replay = RunChurn(99, config, /*ops=*/400);
  ASSERT_EQ(first, replay);
}

TEST(KvCachePropertyTest, TinyBlocksAndOddBlockSizes) {
  // Tiny blocks (one byte per token) and odd cache sizes (a single block, a
  // prime block count) both have to keep the ceil() identity exact.
  for (const std::size_t blocks : {1, 7, 97}) {
    RunChurn(7, SmallConfig(/*bytes_per_token=*/1, blocks), /*ops=*/300);
  }
}

TEST(KvCacheTest, ReserveGrowsInBlocks) {
  KvCacheAllocator kv(SmallConfig());
  EXPECT_TRUE(kv.TryReserve(1, 1));
  EXPECT_EQ(kv.used_blocks(), 1u);  // 1 token -> 1 block
  EXPECT_TRUE(kv.TryReserve(1, 16));
  EXPECT_EQ(kv.used_blocks(), 1u);  // still within the first block
  EXPECT_TRUE(kv.TryReserve(1, 17));
  EXPECT_EQ(kv.used_blocks(), 2u);  // crossed a block boundary
  EXPECT_EQ(kv.SequenceTokens(1), 17);
}

TEST(KvCacheTest, AllOrNothingRejection) {
  KvCacheAllocator kv(SmallConfig(kKb, /*blocks=*/4));
  EXPECT_TRUE(kv.TryReserve(1, 48));  // 3 of 4 blocks
  EXPECT_FALSE(kv.TryReserve(2, 32)); // needs 2, only 1 free
  EXPECT_FALSE(kv.Holds(2));
  EXPECT_EQ(kv.used_blocks(), 3u);
  EXPECT_TRUE(kv.TryReserve(2, 16));  // exactly the last block
  EXPECT_EQ(kv.free_blocks(), 0u);
}

TEST(KvCacheTest, FreeReleasesEverything) {
  KvCacheAllocator kv(SmallConfig());
  EXPECT_TRUE(kv.TryReserve(5, 100));
  const std::size_t used = kv.used_blocks();
  EXPECT_GT(used, 0u);
  kv.Free(5);
  EXPECT_FALSE(kv.Holds(5));
  EXPECT_EQ(kv.used_blocks(), 0u);
  EXPECT_EQ(kv.live_tokens(), 0u);
  // Freed capacity is immediately reusable.
  EXPECT_TRUE(kv.TryReserve(6, static_cast<int>(kv.total_blocks()) * 16));
}

TEST(KvCacheTest, BlocksForTokensMatchesCeil) {
  KvCacheAllocator kv(SmallConfig());
  EXPECT_EQ(kv.BlocksForTokens(0), 0);
  EXPECT_EQ(kv.BlocksForTokens(1), 1);
  EXPECT_EQ(kv.BlocksForTokens(16), 1);
  EXPECT_EQ(kv.BlocksForTokens(17), 2);
  EXPECT_EQ(kv.BlocksForTokens(160), 10);
}

}  // namespace
}  // namespace serving
}  // namespace orion
