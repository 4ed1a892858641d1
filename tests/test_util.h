// Shared helpers for Orion tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/datacenter/cluster.h"
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

// Bitwise double equality: distinguishes -0.0 from 0.0 and NaN payloads,
// exactly what "bit-identical" promises.
inline bool BitsEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline bool RecordersEq(const LatencyRecorder& a, const LatencyRecorder& b) {
  const std::vector<double>& sa = a.samples();
  const std::vector<double>& sb = b.samples();
  if (sa.size() != sb.size()) {
    return false;
  }
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (!BitsEq(sa[i], sb[i])) {
      return false;
    }
  }
  return true;
}

// True when the two results are indistinguishable down to the last bit:
// every counter equal, every double bit-identical (std::bit_cast, so -0.0
// != 0.0 and NaN payloads count), every latency recorder's raw sample
// sequence identical element-wise and in order. Same-seed runs must satisfy
// it; DatacenterGoldenTest digests exactly these fields.
inline bool ClusterResultsBitIdentical(const datacenter::ClusterResult& a,
                                       const datacenter::ClusterResult& b) {
  const serving::ServingResult& sa = a.serving;
  const serving::ServingResult& sb = b.serving;
  if (sa.models.size() != sb.models.size() || !BitsEq(sa.window_us, sb.window_us) ||
      sa.scale_ups != sb.scale_ups || sa.scale_downs != sb.scale_downs ||
      sa.scale_failures != sb.scale_failures ||
      sa.faults_injected != sb.faults_injected ||
      sa.faults_skipped != sb.faults_skipped ||
      sa.replicas_lost != sb.replicas_lost ||
      sa.replacements != sb.replacements ||
      sa.replacement_failures != sb.replacement_failures ||
      sa.gpus_alive_end != sb.gpus_alive_end ||
      !BitsEq(sa.replica_seconds, sb.replica_seconds)) {
    return false;
  }
  for (std::size_t m = 0; m < sa.models.size(); ++m) {
    const serving::ModelServingResult& ma = sa.models[m];
    const serving::ModelServingResult& mb = sb.models[m];
    if (ma.name != mb.name || ma.tier != mb.tier || ma.offered != mb.offered ||
        ma.completed != mb.completed || ma.slo_met != mb.slo_met ||
        ma.shed != mb.shed || ma.dropped != mb.dropped ||
        ma.failed_over != mb.failed_over ||
        !BitsEq(ma.slo_attainment, mb.slo_attainment) ||
        !BitsEq(ma.throughput_rps, mb.throughput_rps) ||
        ma.batches != mb.batches ||
        !BitsEq(ma.mean_batch_size, mb.mean_batch_size) ||
        ma.final_replicas != mb.final_replicas || ma.tokens != mb.tokens ||
        ma.prefills != mb.prefills || ma.decode_steps != mb.decode_steps ||
        ma.kv_evictions != mb.kv_evictions ||
        ma.total_offered != mb.total_offered ||
        ma.total_completed != mb.total_completed ||
        ma.total_shed != mb.total_shed ||
        ma.total_dropped != mb.total_dropped ||
        ma.left_in_system != mb.left_in_system ||
        !RecordersEq(ma.latency, mb.latency) ||
        !RecordersEq(ma.queueing, mb.queueing) ||
        !RecordersEq(ma.ttft, mb.ttft) || !RecordersEq(ma.tpot, mb.tpot)) {
      return false;
    }
  }
  if (a.nodes.size() != b.nodes.size() ||
      a.nodes_alive_end != b.nodes_alive_end ||
      a.node_faults != b.node_faults ||
      a.requests_forwarded != b.requests_forwarded ||
      !BitsEq(a.request_bytes_moved, b.request_bytes_moved) ||
      !BitsEq(a.response_bytes_moved, b.response_bytes_moved)) {
    return false;
  }
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    const datacenter::NodeSummary& na = a.nodes[n];
    const datacenter::NodeSummary& nb = b.nodes[n];
    if (na.node != nb.node || na.alive_end != nb.alive_end ||
        na.replicas_created != nb.replicas_created ||
        na.replicas_killed != nb.replicas_killed ||
        na.batches != nb.batches || na.requests != nb.requests) {
      return false;
    }
  }
  return true;
}

}  // namespace testutil
}  // namespace orion

#endif  // TESTS_TEST_UTIL_H_
