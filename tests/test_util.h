// Shared helpers for Orion tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <string>

#include "src/common/stats.h"
#include "src/gpusim/kernel.h"

namespace orion {
namespace testutil {

// Builds a kernel whose sm_needed equals `sms` exactly on V100/A100-class
// devices: 1024-thread blocks with 64 registers/thread occupy a full SM
// (register-limited to 1 block/SM).
inline gpusim::KernelDesc MakeKernel(const std::string& name, DurationUs duration_us,
                                     double compute_util, double membw_util, int sms) {
  gpusim::KernelDesc kernel;
  kernel.name = name;
  kernel.kernel_id = std::hash<std::string>{}(name);
  kernel.duration_us = duration_us;
  kernel.compute_util = compute_util;
  kernel.membw_util = membw_util;
  kernel.geometry.num_blocks = sms;
  kernel.geometry.threads_per_block = 1024;
  kernel.geometry.registers_per_thread = 64;
  kernel.geometry.shared_mem_per_block = 0;
  return kernel;
}

// FNV-1a over the bit patterns of doubles and integers, for golden digests
// of whole runs: one flipped output bit changes the value.
class BitDigest {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (const char c : s) {
      U64(static_cast<unsigned char>(c));
    }
  }
  // Sample count, then every sample in recorded order (no percentile query
  // first: LatencyRecorder sorts in place).
  void Samples(const LatencyRecorder& recorder) {
    U64(recorder.samples().size());
    for (const double sample : recorder.samples()) {
      F64(sample);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace testutil
}  // namespace orion

#endif  // TESTS_TEST_UTIL_H_
