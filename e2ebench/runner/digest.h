// Output digests: every arm's result reduced to one 64-bit FNV-1a hash.
//
// The digest covers every counter, the bit pattern of every double (so -0.0
// and 0.0 differ, as do NaN payloads) and every latency sample in recorded
// order. Two results with equal digests are, up to hash collisions, the bit-
// identical outputs ClusterResultsBitIdentical compares; one flipped bit or
// one swapped sample changes the digest.
#ifndef E2EBENCH_RUNNER_DIGEST_H_
#define E2EBENCH_RUNNER_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/stats.h"
#include "src/datacenter/cluster.h"
#include "src/harness/experiment.h"
#include "src/profiler/profiler.h"

namespace e2e {

class Digest {
 public:
  void Bytes(const void* data, std::size_t size);
  void U64(std::uint64_t value) { Bytes(&value, sizeof(value)); }
  void F64(double value);
  void Str(std::string_view text);
  // Sample count, then each sample's bits in recorded order. Read before
  // any percentile query: LatencyRecorder sorts its samples in place.
  void Samples(const orion::LatencyRecorder& recorder);

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

std::uint64_t DigestOf(const orion::harness::ExperimentResult& result);
// Same fields as datacenter::ClusterResultsBitIdentical, in its order.
std::uint64_t DigestOf(const orion::datacenter::ClusterResult& result);
std::uint64_t DigestOf(const orion::profiler::WorkloadProfile& profile);

// Fixed-width lowercase hex, the form the reference file stores.
std::string Hex(std::uint64_t value);

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_DIGEST_H_
