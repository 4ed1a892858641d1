#include "src/serving/kv_cache.h"

#include "src/common/check.h"

namespace orion {
namespace serving {

KvCacheAllocator::KvCacheAllocator(const KvCacheConfig& config) : config_(config) {
  ORION_CHECK(config.bytes_per_token > 0);
  total_blocks_ = config.capacity_bytes / block_bytes();
}

int KvCacheAllocator::BlocksForTokens(int tokens) const {
  ORION_CHECK(tokens >= 0);
  return (tokens + kKvBlockTokens - 1) / kKvBlockTokens;
}

bool KvCacheAllocator::TryReserve(std::uint64_t seq, int tokens) {
  ORION_CHECK(tokens >= 1);
  const auto it = seqs_.find(seq);
  const int current = it != seqs_.end() ? it->second : 0;
  ORION_CHECK_MSG(tokens >= current, "KV reservations never shrink in place");
  const int needed =
      BlocksForTokens(tokens) - BlocksForTokens(current);
  if (static_cast<std::size_t>(needed) > free_blocks()) {
    return false;  // no partial effect
  }
  used_blocks_ += static_cast<std::size_t>(needed);
  live_tokens_ += static_cast<std::size_t>(tokens - current);
  if (it != seqs_.end()) {
    it->second = tokens;
  } else {
    seqs_.emplace(seq, tokens);
  }
  CheckIdentity();
  return true;
}

void KvCacheAllocator::Free(std::uint64_t seq) {
  const auto it = seqs_.find(seq);
  ORION_CHECK_MSG(it != seqs_.end(), "freeing a sequence with no KV reservation");
  used_blocks_ -= static_cast<std::size_t>(BlocksForTokens(it->second));
  live_tokens_ -= static_cast<std::size_t>(it->second);
  seqs_.erase(it);
  CheckIdentity();
}

int KvCacheAllocator::SequenceTokens(std::uint64_t seq) const {
  const auto it = seqs_.find(seq);
  return it != seqs_.end() ? it->second : 0;
}

void KvCacheAllocator::CheckIdentity() const {
  std::size_t blocks = 0;
  std::size_t tokens = 0;
  for (const auto& [seq, reserved] : seqs_) {
    (void)seq;
    blocks += static_cast<std::size_t>(BlocksForTokens(reserved));
    tokens += static_cast<std::size_t>(reserved);
  }
  ORION_CHECK_MSG(blocks == used_blocks_ && tokens == live_tokens_,
                  "KV-cache identity violated: allocated blocks do not match "
                  "live sequence tokens");
  ORION_CHECK_MSG(used_blocks_ <= total_blocks_,
                  "KV-cache allocation exceeds its device-memory budget");
}

}  // namespace serving
}  // namespace orion
