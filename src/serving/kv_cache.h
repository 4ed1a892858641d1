// Block-granularity KV-cache accounting for LLM serving (DESIGN.md §13).
//
// vLLM-style paged allocation against a fixed device-memory budget: each
// live sequence holds ceil(tokens / kKvBlockTokens) blocks, grown one token at
// a time as decode steps produce tokens and released in full when the
// sequence finishes, is evicted under pressure, or dies with its replica.
// Reservations are all-or-nothing — a failed TryReserve leaves no partial
// state, which is what makes eviction decisions at the engine level clean.
//
// The allocator ORION_CHECKs its byte identity after every mutation:
//   used_blocks == Σ_{live sequences} ceil(tokens / kKvBlockTokens)
//   used_bytes  <= capacity_bytes
// This is the LLM analogue of the serving engine's request accounting
// identity, and the property the seeded churn test (kv_cache_property_test)
// hammers on.
#ifndef SRC_SERVING_KV_CACHE_H_
#define SRC_SERVING_KV_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>

namespace orion {
namespace serving {

// KV-cache allocation granularity in tokens: the LLM cost model's context
// buckets and every replica's KvCacheAllocator blocks share it.
constexpr int kKvBlockTokens = 16;

struct KvCacheConfig {
  std::size_t bytes_per_token = 0;   // workloads::LlmKvBytesPerToken
  std::size_t capacity_bytes = 0;    // device-memory budget for this cache
};

class KvCacheAllocator {
 public:
  explicit KvCacheAllocator(const KvCacheConfig& config);

  // Grows (or creates) sequence `seq`'s reservation to cover `tokens`
  // tokens. Returns false — with NO state change — when the needed blocks
  // exceed free capacity. Reservations never shrink except through Free.
  bool TryReserve(std::uint64_t seq, int tokens);

  // Releases every block `seq` holds (completion, eviction, replica death).
  void Free(std::uint64_t seq);

  bool Holds(std::uint64_t seq) const { return seqs_.count(seq) > 0; }
  int SequenceTokens(std::uint64_t seq) const;

  int BlocksForTokens(int tokens) const;

  std::size_t used_blocks() const { return used_blocks_; }
  std::size_t total_blocks() const { return total_blocks_; }
  std::size_t free_blocks() const { return total_blocks_ - used_blocks_; }
  std::size_t used_bytes() const { return used_blocks_ * block_bytes(); }
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }
  std::size_t block_bytes() const {
    return static_cast<std::size_t>(kKvBlockTokens) * config_.bytes_per_token;
  }
  std::size_t live_sequences() const { return seqs_.size(); }
  std::size_t live_tokens() const { return live_tokens_; }

 private:
  // Recomputes the block sum over live sequences and ORION_CHECKs it against
  // used_blocks_ (and capacity). Live sets are small (≤ a replica's batch),
  // so the O(live) walk after every mutation is cheap.
  void CheckIdentity() const;

  KvCacheConfig config_;
  std::size_t total_blocks_ = 0;
  std::size_t used_blocks_ = 0;
  std::size_t live_tokens_ = 0;
  std::map<std::uint64_t, int> seqs_;  // seq id -> reserved tokens (ordered: determinism)
};

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_KV_CACHE_H_
