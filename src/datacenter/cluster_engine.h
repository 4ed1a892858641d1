// The parts of a cluster run (DESIGN.md §12). Each owns its state and they
// call each other directly; cluster_engine.cc builds them, in the order
// below, around one ClusterContext and runs the simulation.
//
//   Accounting    (accounting.cc)     every instrument the results are read
//                                     back from; the node engines' events
//   Network       (network.cc)        NIC fabrics, legs in flight, node cut
//   ControlPlane  (control_plane.cc)  arrivals, admission, routing, replica
//                                     lifecycle, faults, autoscaling
#ifndef SRC_DATACENTER_CLUSTER_ENGINE_H_
#define SRC_DATACENTER_CLUSTER_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/datacenter/node_engine.h"
#include "src/fault/fault_plan.h"
#include "src/interconnect/fabric.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/arrivals.h"

namespace orion {
namespace datacenter {

// The serialized request and response tensors crossing a NIC.
constexpr std::size_t kRequestBytes = 32 * 1024;
constexpr std::size_t kResponseBytes = 128 * 1024;

// The datacenter network, modeled only when num_nodes > 1: a NIC/ToR star
// where every route is the single front-end <-> node NIC hop. No two routes
// share a link, so one interconnect::Fabric per NIC is model-identical to
// one fabric over the whole star.
class Network {
 public:
  // Runs once per leg: when it lands, or at the cut if its node dies first.
  using Done = std::function<void()>;

  explicit Network(ClusterContext* ctx);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Moves `bytes` between the front-end and `node`, toward the node when
  // `to_node`. A leg carrying a request of service `service` (-1: none)
  // is in flight for that service until `done` runs.
  void Send(int node, bool to_node, std::size_t bytes, int service, Done done);
  // Node death: zeroes `node`'s NIC and aborts every leg touching it, in
  // start order. The aborts run `done` asynchronously, after the caller has
  // killed the node's replicas.
  void Cut(int node);

  std::size_t in_flight(std::size_t service) const;
  void AddBytesMoved(ClusterResult* result) const;

 private:
  struct Leg {
    int node = -1;
    int service = -1;
    interconnect::TransferId transfer = 0;
    Done done;
  };

  void OnLanded(std::uint64_t leg_id);

  std::vector<std::unique_ptr<interconnect::Fabric>> fabrics_;  // by node
  // Legs in flight, keyed by a monotonically increasing id so the node-down
  // sweep follows start order deterministically.
  std::map<std::uint64_t, Leg> legs_;
  std::uint64_t next_leg_ = 0;
};

// Every counter, histogram, span, marker and blame record of the run. The
// registry is the source of truth the ClusterResult is read back from, so an
// exported CSV snapshot reproduces the printed numbers exactly. Instruments
// bind against the hub's registry, or a private one when no hub is
// configured, so they are never null. It handles the node engines' events:
// it completes every served request, after the response leg on a networked
// cluster.
class Accounting {
 public:
  // What can happen to a request. Each outcome is counted over the whole run
  // (failovers and SLO hits excepted), the measurement window and the
  // current autoscaler evaluation window.
  enum Outcome : std::uint8_t {
    kOffered, kShed, kDropped, kCompleted, kSloMet, kFailedOver, kNumOutcomes
  };
  // Fleet-level events, each a whole-run counter.
  enum Event : std::uint8_t {
    kScaleUp, kScaleDown, kScaleFailure, kFaultInjected, kFaultSkipped, kReplicaLost,
    kReplacement, kReplacementFailure, kNodeFault, kRequestForwarded, kNumEvents
  };

  // Registers the trace tracks. `network` carries the responses; it is
  // used only once the run starts.
  Accounting(ClusterContext* ctx, Network* network);
  Accounting(const Accounting&) = delete;
  Accounting& operator=(const Accounting&) = delete;

  const std::string& label(std::size_t m) const { return services_[m].label; }

  // Counts one `outcome` of service `m` that happened at `at`.
  void Tally(std::size_t m, Outcome outcome, TimeUs at);
  void Count(Event event) { events_[event]->Inc(); }
  // The autoscaler-window tallies of `m` since the last call, which resets them.
  serving::ModelWindowSignals TakeEvalWindow(std::size_t m);
  // An instant marker on the control track (tracing only).
  void Mark(const std::string& name, telemetry::Labels args);

  // --- The node engines' events. ---
  // A batch just finished on `r` (its in_flight holds the batch, its
  // batch_start/dispatch_reason describe it): per-request completion
  // accounting, spans, and the response network leg.
  void OnBatchServed(Replica& r);
  // One continuous-batching decode step finished on `r`: `batch` sequences
  // each emitted one token between `start` and `end`, of which `prefills`
  // joined (and prefilled) this step. Fires before sequence completions, so
  // the step that produced them is seen first.
  void OnDecodeStep(Replica& r, int batch, int prefills, TimeUs start, TimeUs end);
  // `request` finished its generation during the step [step_start, step_end]:
  // completion accounting (TTFT/TPOT) and the response leg.
  void OnSequenceFinished(Replica& r, const serving::Request& request, TimeUs step_start,
                          TimeUs step_end);
  // `request` was preempted for KV-cache pressure and requeued; it will
  // recompute its context from the prompt when it rejoins.
  void OnKvEviction(Replica& r, const serving::Request& request);
  // A replica stopped running (retired or killed) after being active since
  // `active_since`: integrates replica-seconds.
  void AccountReplicaTime(TimeUs active_since);

  // Service `m`'s results, with `left` requests still in the system and
  // `final_replicas` active at the end; checks the accounting identity.
  serving::ModelServingResult Close(std::size_t m, std::size_t left, int final_replicas);
  // The fleet-level results, once every service is closed and the node
  // summaries are in.
  void Finish(ClusterResult* result);

 private:
  struct OutcomeCounters {
    telemetry::Counter* total = nullptr;   // whole run; null if not counted
    telemetry::Counter* window = nullptr;  // measurement window
    std::size_t eval = 0;                  // autoscaler window
  };

  struct ServiceMetrics {
    // Service label for metrics and trace tracks: the workload name, with a
    // "#<index>" suffix when two services share a workload.
    std::string label;
    telemetry::TrackId track = -1;  // per-request span track; -1 = tracing off
    // Hub-owned blame aggregate; bound only when attribution is enabled.
    attribution::ServiceAttribution* attr = nullptr;

    std::array<OutcomeCounters, kNumOutcomes> outcomes;
    // Measurement-window instruments.
    telemetry::Counter* batches = nullptr;
    telemetry::Counter* batched_requests = nullptr;
    telemetry::Histogram* latency = nullptr;   // e2e µs, window only
    telemetry::Histogram* queueing = nullptr;  // arrival → service start

    // LLM per-token instruments; bound only for services with llm.enabled so
    // a non-LLM run exports exactly the pre-LLM metric set.
    telemetry::Counter* tokens = nullptr;        // decode tokens in the window
    telemetry::Counter* prefills = nullptr;      // prefill passes in the window
    telemetry::Counter* decode_steps = nullptr;  // continuous iterations in the window
    telemetry::Counter* kv_evictions = nullptr;  // preemptions in the window
    telemetry::Histogram* ttft = nullptr;        // arrival → first token, µs
    telemetry::Histogram* tpot = nullptr;        // inter-token µs after the first
  };

  bool llm(std::size_t m) const { return ctx_->services[m].llm_cost != nullptr; }
  telemetry::TrackId gpu_track(int gpu_global) const {
    return gpu_tracks_[static_cast<std::size_t>(gpu_global)];
  }
  // A served request's response: crosses the network back to the front-end
  // on a networked cluster (completion happens on arrival there, or at the
  // cut if the node dies first), completes at `exec_end` otherwise.
  void Respond(const Replica& r, TimeUs batch_start, TimeUs exec_end,
               const serving::Request& request);
  // `exec_end` is the device batch completion; `complete_us` when the
  // response reached the front-end (identical without a network).
  void Complete(const serving::Request& request, int replica_id, int gpu_global,
                TimeUs batch_start, TimeUs exec_end, TimeUs complete_us);

  ClusterContext* ctx_;
  Network* network_;
  telemetry::Hub* hub_;
  telemetry::MetricRegistry local_metrics_;
  telemetry::MetricRegistry* metrics_;
  std::vector<ServiceMetrics> services_;
  std::array<telemetry::Counter*, kNumEvents> events_{};
  telemetry::Counter* replica_seconds_ = nullptr;  // accrues monotonically
  telemetry::TrackId control_track_ = -1;
  std::vector<telemetry::TrackId> gpu_tracks_;  // by global GPU index
};

// The global front-end. It owns the node engines and picks a *node* for each
// admitted request (least-outstanding across nodes); the serving::Router
// policy picks the replica within it.
class ControlPlane {
 public:
  ControlPlane(ClusterContext* ctx, Accounting* accounting, Network* network);
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Places the initial fleet, starts every arrival stream, and arms the
  // fault plan and the autoscaler.
  void Start();
  // Closes every service at the horizon (integrating the replica-seconds of
  // its running replicas, counting what is left in the system) and adds the
  // GPU and node summaries.
  void Finish(ClusterResult* result);

 private:
  struct ServiceState {
    std::unique_ptr<trace::ArrivalProcess> arrivals;
    Rng rng;
    // Admitted requests with no active replica to queue at (all replicas
    // provisioning after a failover); drained on the next activation.
    std::deque<serving::Request> limbo;
  };

  Replica& replica(int id) { return ctx_->replicas[static_cast<std::size_t>(id)]; }
  NodeEngine& node_of(const Replica& r) { return nodes_[static_cast<std::size_t>(r.node)]; }

  void ScheduleArrival(std::size_t m);
  void OnArrival(std::size_t m);
  // The active replica of `m` with the least predicted wait, on a live node
  // (ties: lowest node, then creation order), and that wait; -1 if none.
  std::pair<int, DurationUs> PickReplica(std::size_t m) const;
  // Level-1 routing: sends an admitted request to `node`, across its NIC on
  // a networked cluster. `forced` overrides the recorded route reason
  // (failover rehomes, limbo drains).
  void Route(int node, serving::Request request, std::optional<serving::RouteReason> forced);
  // Level-2 routing: the router picks the replica on `node`.
  void Deliver(int node, serving::Request request, std::optional<serving::RouteReason> forced);
  // A request of `m` with no active replica: it waits in limbo when a
  // replica is coming (one provisioning, or `replacement_coming`), else it
  // is dropped.
  void Strand(std::size_t m, serving::Request request, bool replacement_coming);

  bool AddReplica(std::size_t m, bool immediate = false);
  // Starts `id`'s provisioning delay unless it died first.
  void Provision(int id);
  void ActivateReplica(int id);
  // Stops routing to the least-loaded active replica; it retires once empty.
  // Returns false when the model has no active replica to remove.
  bool RemoveOneReplica(std::size_t m);
  int PendingReplicas(std::size_t m) const;

  void ApplyFault(const fault::FaultEvent& event);
  void KillAndRehome(int id);
  void Rehome(std::size_t m, serving::Request request, bool was_running);

  void EvalAutoscaler();

  ClusterContext* ctx_;
  Accounting* acct_;
  Network* network_;
  serving::Router router_;
  serving::AdmissionController admission_;
  std::deque<NodeEngine> nodes_;
  std::vector<ServiceState> services_;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace datacenter
}  // namespace orion

#endif  // SRC_DATACENTER_CLUSTER_ENGINE_H_
