// The benchmark's three workloads, each a fixed list of simulated runs
// ("arms") executed back to back on one thread.
//
//   colloc_apollo  — Fig. 6 on a V100: every high-priority inference model on
//                    Apollo arrivals beside every best-effort trainer under
//                    Orion, plus one dedicated arm per (model, trainer) index
//                    that runs both jobs on private GPUs.
//   oversub_paging — the ext_memory_oversub mixes at 2.0x oversubscription
//                    under nvshare-tq and under Orion (hp pinned, PCIe
//                    priority scheduling), plus the dedicated arms. The hp
//                    tenant gets Poisson arrivals, so the seed changes the
//                    inputs.
//   dc_serving     — an 8-node x 2-GPU cluster serving ResNet50 and a small
//                    continuous-batching LLM; in the full arms one node dies
//                    a third of the way into the window. Ideal arms serve
//                    ResNet50 alone on the healthy cluster.
//
// Set-up (configs, ProfileWorkload per distinct workload, BuildKernels) is
// separate from the arms so it can be timed on its own.
#ifndef E2EBENCH_RUNNER_ARMS_H_
#define E2EBENCH_RUNNER_ARMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "e2ebench/runner/spans.h"
#include "src/datacenter/cluster.h"
#include "src/gpusim/device.h"
#include "src/gpusim/kernel.h"
#include "src/harness/experiment.h"

namespace e2e {

enum class WorkloadId { kCollocApollo, kOversubPaging, kDcServing };

constexpr WorkloadId kAllWorkloads[] = {WorkloadId::kCollocApollo, WorkloadId::kOversubPaging,
                                        WorkloadId::kDcServing};

const char* WorkloadName(WorkloadId workload);
bool ParseWorkload(std::string_view name, WorkloadId* workload);

// How an arm's output enters the end-to-end metrics.
enum class ArmRole : std::uint8_t {
  kIdeal,        // dedicated GPUs / healthy cluster without co-tenants
  kOrion,        // Orion collocation (colloc_apollo, oversub_paging)
  kTimeQuantum,  // nvshare-tq collocation (oversub_paging)
  kCluster,      // full cluster run with the node failure (dc_serving)
};

struct Arm {
  std::string name;
  ArmRole role = ArmRole::kIdeal;
  // Indices (into Setup::arms) of the ideal arms that ran this arm's
  // high-priority job and its best-effort job alone.
  int ideal_hp = -1;
  int ideal_be = -1;
  bool is_cluster = false;
  orion::harness::ExperimentConfig experiment;
  orion::datacenter::ClusterConfig cluster;
};

struct Setup {
  std::vector<Arm> arms;
  // Digest of every profile and every kernel sequence built.
  std::uint64_t digest = 0;
  // BuildKernels output per workload name: the descriptor table the
  // recorded-kernel replay looks kernel ids up in.
  std::map<std::string, std::vector<orion::gpusim::KernelDesc>> kernels;
  // The arm whose recorded traffic feeds the gpusim replay (-1: none).
  int replay_arm = -1;
};

Setup BuildSetup(WorkloadId workload, std::uint64_t seed, SpanRecorder* spans);

// The simulated values one arm contributes, extracted right after its run.
struct ArmOutput {
  std::uint64_t digest = 0;
  bool invariants_ok = true;
  std::string invariant_error;
  double host_ms = 0.0;

  double hp_p99_us = 0.0;        // hp client / latency-critical service p99
  double be_tput = 0.0;          // best-effort throughput (collocation arms)
  std::size_t offered = 0;       // cluster: offered in the window, all services
  std::size_t slo_met = 0;       // cluster: met their SLO in the window, all services
  std::vector<double> ttft_us;   // cluster: LLM time to first token
  std::size_t requests = 0;      // requests simulated over the whole run
  std::vector<std::size_t> client_requests;  // collocation: per client, whole run
  orion::memsub::PagingTotals paging;
  double bytes_moved = 0.0;      // cluster: NIC bytes, both directions

  // Telemetry counters of a traced arm, summed over labels.
  std::map<std::string, double> counters;
  // Kernel execution records of a recording run, in completion order.
  std::vector<orion::gpusim::KernelExecRecord> kernel_records;
};

enum class ArmMode : std::uint8_t {
  kUntraced,  // no hub: what the end-to-end host times measure
  kTraced,    // a counters-only telemetry::Hub and host-time spans
  kRecorded,  // kTraced plus the hub's kernel-trace sink
};

// Runs one arm. A traced or recorded run must give the untraced digest.
ArmOutput RunArm(const Arm& arm, int arm_index, ArmMode mode, SpanRecorder* spans);

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_ARMS_H_
