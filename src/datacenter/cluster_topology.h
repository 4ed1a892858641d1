// Cluster shape and index math: nodes x GPUs.
//
// Pure data, like interconnect::NodeTopology one level down. Global GPU
// indices order GPUs node-major — global = node * gpus_per_node + local — so
// fault plans and results written against the single-node engine's flat GPU
// space keep meaning on a cluster.
#ifndef SRC_DATACENTER_CLUSTER_TOPOLOGY_H_
#define SRC_DATACENTER_CLUSTER_TOPOLOGY_H_

#include "src/datacenter/cluster.h"

namespace orion {
namespace datacenter {

class ClusterTopology {
 public:
  explicit ClusterTopology(const ClusterSpec& spec);

  int total_gpus() const { return spec_.num_nodes * spec_.gpus_per_node; }

  int NodeOfGpu(int global_gpu) const;
  int LocalGpu(int global_gpu) const;
  int GlobalGpu(int node, int local_gpu) const;

 private:
  ClusterSpec spec_;
};

}  // namespace datacenter
}  // namespace orion

#endif  // SRC_DATACENTER_CLUSTER_TOPOLOGY_H_
