// Batch service-time model for the serving tier.
//
// The serving simulator does not replay kernels — a replica serves a batch
// as one opaque busy interval. The interval's length comes from the same
// analytic roofline the kernel-level simulator uses: a batch of k requests
// is the workload's kernel sequence at batch size k * per_request_batch,
// summed, plus the host launch overhead per kernel. Because the roofline
// charges small kernels for the SMs they cannot fill, batching is naturally
// sub-linear: cost(k) < k * cost(1), which is exactly the throughput/latency
// trade the dynamic batcher navigates.
//
// The model also exposes the job signature (cluster::JobSignature) the
// placement engine and the interference-aware router consume, and the
// replica provisioning time (weights over PCIe plus process start).
#ifndef SRC_SERVING_BATCH_COST_H_
#define SRC_SERVING_BATCH_COST_H_

#include <vector>

#include "src/cluster/placement.h"
#include "src/gpusim/device_spec.h"
#include "src/serving/request.h"
#include "src/workloads/models.h"

namespace orion {
namespace serving {

class BatchCostModel {
 public:
  // `workload` describes one request (its batch_size is the per-request
  // batch); every submitted kernel adds runtime::kLaunchOverheadUs of host
  // cost.
  BatchCostModel(const gpusim::DeviceSpec& device, const workloads::WorkloadSpec& workload,
                 bool high_priority);

  // Device-busy time to serve a batch of `batch` requests. Cached per batch
  // size; deterministic.
  DurationUs BatchServiceUs(int batch) const;

  // Amortised per-request cost when serving at batch size `batch` — the
  // router's and admission controller's unit of outstanding work.
  DurationUs PerRequestUs(int batch) const;

  // Offline profile summary for placement and interference prediction.
  const cluster::JobSignature& signature() const { return signature_; }

  // GPU memory one replica pins (weights + activations).
  std::size_t state_bytes() const { return signature_.state_bytes; }

  // Replaces the workload-derived state estimate. LLM services size their
  // replicas by the model's weights (workloads::LlmWeightBytes): the
  // workload heuristic bakes in a KV-cache guess that the serving engine now
  // accounts explicitly per replica, and double-counting it would make a
  // V100 reject every placement. Placement, provisioning and the GPU memory
  // shard all read the overridden value.
  void OverrideStateBytes(std::size_t bytes) { signature_.state_bytes = bytes; }

  // Cold-start time of a new replica: process launch plus streaming the
  // model state over PCIe.
  DurationUs ProvisionUs() const;

 private:
  gpusim::DeviceSpec device_;
  workloads::WorkloadSpec workload_;
  cluster::JobSignature signature_;
  mutable std::vector<DurationUs> cache_;  // index = batch size, 0 unused
};

// Interference feedback: by how much a replica's service slows down given
// the summed PairInterference `pressure` with its GPU co-residents. The hp
// stream is protected by the underlying Orion scheduler (it only pays the
// residual §6.2-style overhead); the be stream yields to hp kernels and
// absorbs most of the contention.
double InterferenceSlowdown(PriorityTier tier, double pressure);

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_BATCH_COST_H_
