#include "src/serving/serving.h"

// The serving engine itself lives in src/datacenter since the datacenter
// split: a control plane (arrivals, admission, node routing, limbo,
// autoscaling, faults) and the request accounting (src/datacenter/
// cluster_engine.h) over per-node engines (src/datacenter/node_engine.h).
// RunServing is defined in src/datacenter/cluster_engine.cc as the
// num_nodes == 1 special case. This file keeps the pure helpers on the
// public serving types.

namespace orion {
namespace serving {

const char* PriorityTierName(PriorityTier tier) {
  switch (tier) {
    case PriorityTier::kLatencyCritical:
      return "latency-critical";
    case PriorityTier::kBestEffort:
      return "best-effort";
  }
  return "unknown";
}

}  // namespace serving
}  // namespace orion
