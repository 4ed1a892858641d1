#include "src/datacenter/cluster_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace datacenter {

namespace {

// Per-direction NIC latency through one switch hop.
constexpr DurationUs kNicLatencyUs = 10.0;

}  // namespace

Network::Network(ClusterContext* ctx) {
  if (!ctx->network_on()) {
    return;
  }
  // Endpoint 0 of each mini-topology is the node; interconnect::kHostNode is
  // the ToR/front-end side.
  for (int n = 0; n < ctx->spec.num_nodes; ++n) {
    fabrics_.push_back(std::make_unique<interconnect::Fabric>(
        &ctx->sim, interconnect::NodeTopology::NicStar(1, ctx->spec.nic_gbps, kNicLatencyUs)));
    if (ctx->config.telemetry != nullptr) {
      fabrics_.back()->set_telemetry(ctx->config.telemetry);
    }
  }
}

void Network::Send(int node, bool to_node, std::size_t bytes, int service, Done done) {
  const std::uint64_t leg_id = next_leg_++;
  auto [it, inserted] = legs_.emplace(leg_id, Leg{node, service, 0, std::move(done)});
  ORION_CHECK(inserted);
  const int src = to_node ? interconnect::kHostNode : 0;
  const int dst = to_node ? 0 : interconnect::kHostNode;
  it->second.transfer = fabrics_[static_cast<std::size_t>(node)]->StartTransfer(
      src, dst, bytes, [this, leg_id] { OnLanded(leg_id); });
}

void Network::OnLanded(std::uint64_t leg_id) {
  auto it = legs_.find(leg_id);
  ORION_CHECK(it != legs_.end());
  Leg leg = std::move(it->second);
  legs_.erase(it);
  leg.done();
}

void Network::Cut(int node) {
  // Aborted legs run their callbacks at the abort instant: forwards find the
  // node dead and re-route to survivors, responses complete.
  interconnect::Fabric& fabric = *fabrics_[static_cast<std::size_t>(node)];
  fabric.SetLinkFactor(/*link=*/0, /*forward=*/true, 0.0);
  fabric.SetLinkFactor(/*link=*/0, /*forward=*/false, 0.0);
  std::vector<interconnect::TransferId> doomed;
  for (const auto& [leg_id, leg] : legs_) {
    if (leg.node == node) {
      doomed.push_back(leg.transfer);
    }
  }
  for (const interconnect::TransferId transfer : doomed) {
    fabric.CancelTransfer(transfer);
  }
}

std::size_t Network::in_flight(std::size_t service) const {
  return static_cast<std::size_t>(std::count_if(legs_.begin(), legs_.end(), [&](const auto& leg) {
    return leg.second.service == static_cast<int>(service);
  }));
}

void Network::AddBytesMoved(ClusterResult* result) const {
  for (const auto& fabric : fabrics_) {
    // Each mini-topology has one link (the NIC); forward is host -> node.
    result->request_bytes_moved += fabric->BytesMoved(/*link=*/0, /*forward=*/true);
    result->response_bytes_moved += fabric->BytesMoved(/*link=*/0, /*forward=*/false);
  }
}

}  // namespace datacenter
}  // namespace orion
