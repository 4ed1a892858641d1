// Per-request latency attribution: the LatencyLedger.
//
// A ledger rides inside each serving::Request (and, on the harness path,
// inside ClientDriver) and decomposes the request's end-to-end latency into
// named, mutually exclusive phases:
//
//   kQueue        admission + batcher queue wait (replica busy serving
//                 someone, or request parked in no-replica limbo on first
//                 arrival)
//   kLinger       the slice of queue wait spent while the target replica sat
//                 *idle* — batch linger: the batcher holding the request back
//                 waiting for companions (max_queue_delay_us), not capacity
//   kNetRequest   front-end -> node wire time (datacenter fabric), including
//                 re-forward legs after failover
//   kNetResponse  node -> front-end wire time
//   kExecute      pure execute time, priced from the *isolated* roofline
//                 profile (what the batch/step would cost with the GPU alone)
//   kInterference actual service time minus isolated time: the stall caused
//                 by collocated tenants (slowdown model / shared-GPU
//                 contention). The Orion scheduler's dispatch records
//                 (orion.collocated_be_us) identify the tenant responsible.
//   kPaging       unified-memory fault stall (memsub::UnifiedMemoryPager
//                 pending-fault intervals)
//   kPreempt      preemption + recompute: KV-cache evict-with-recompute
//                 requeue wait, failover limbo, and work thrown away when a
//                 replica dies mid-batch
//   kResidual     whatever the instrumentation failed to classify. By
//                 construction every interval between ledger marks is charged
//                 to exactly one phase, so the residual is FP rounding only;
//                 Finalize() returns it and callers ORION_CHECK it against a
//                 tolerance.
//
// Identity contract: after Finalize(arrival, complete),
//     sum(phase_us) == complete - arrival        (within FP tolerance)
// for every request, including requests that were evicted, re-routed across
// node deaths, or re-queued — the ledger's internal mark always advances
// monotonically with the simulation clock and every [mark, now] interval is
// charged somewhere, so re-queue paths cannot silently lose (or double-count)
// time.
//
// The ledger is a pure observer: it never feeds back into simulation
// arithmetic or event ordering. Engines only touch it when attribution is
// enabled on the telemetry hub (telemetry::Hub::EnableAttribution), so a
// null / attribution-off hub keeps runs bit-identical at zero cost — the
// same contract the rest of src/telemetry honors.
#ifndef SRC_TELEMETRY_ATTRIBUTION_LEDGER_H_
#define SRC_TELEMETRY_ATTRIBUTION_LEDGER_H_

#include <algorithm>
#include <cstddef>

#include "src/common/time_types.h"

namespace orion {
namespace attribution {

enum class Phase : int {
  kQueue = 0,
  kLinger,
  kNetRequest,
  kNetResponse,
  kExecute,
  kInterference,
  kPaging,
  kPreempt,
  kResidual,
};

constexpr std::size_t kNumPhases = 9;

constexpr std::size_t PhaseIndex(Phase p) { return static_cast<std::size_t>(p); }

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kQueue:        return "queue";
    case Phase::kLinger:       return "linger";
    case Phase::kNetRequest:   return "net_request";
    case Phase::kNetResponse:  return "net_response";
    case Phase::kExecute:      return "execute";
    case Phase::kInterference: return "interference";
    case Phase::kPaging:       return "paging";
    case Phase::kPreempt:      return "preempt";
    case Phase::kResidual:     return "residual";
  }
  return "?";
}

inline Phase PhaseFromIndex(std::size_t i) { return static_cast<Phase>(static_cast<int>(i)); }

// The per-request ledger. Plain value type (copied with the request across
// fabric transfers and failover re-routes). All mutators are no-ops until
// Begin() — engines guard calls behind the hub's attribution flag anyway,
// but the active_ check makes a stray hook harmless.
class LatencyLedger {
 public:
  // Starts the clock at the request's first arrival. Subsequent time accrues
  // to kQueue until the first transition.
  void Begin(TimeUs now) {
    active_ = true;
    mark_us_ = now;
    open_ = Phase::kQueue;
  }

  bool active() const { return active_; }

  // Charges [mark, now] to the currently open phase, then opens `next`.
  void Advance(TimeUs now, Phase next) { AdvanceInto(now, open_, next); }

  // Charges [mark, now] to `into` (regardless of the open phase), then opens
  // `next`. Used when the elapsed interval is reclassified after the fact —
  // e.g. a replica death turning in-flight execute time into wasted kPreempt.
  void AdvanceInto(TimeUs now, Phase into, Phase next) {
    if (!active_) return;
    phase_us_[PhaseIndex(into)] += now - mark_us_;
    mark_us_ = now;
    open_ = next;
  }

  // Entering a batcher queue. Charges the preceding interval to the open
  // phase (wire time for a forwarded request, kPreempt for a failover
  // orphan), opens kQueue, and snapshots the replica's cumulative idle time
  // so LeaveQueue can split the wait into capacity-bound kQueue vs
  // idle-replica kLinger.
  void EnterQueue(TimeUs now, DurationUs replica_idle_us) {
    if (!active_) return;
    Advance(now, Phase::kQueue);
    queue_idle_snapshot_us_ = replica_idle_us;
  }

  // Leaving the queue for dispatch (or being drained by a replica death —
  // then `next` is kPreempt). If the open phase is kQueue, the elapsed wait
  // splits into kLinger (the part the replica spent idle, i.e. the batcher
  // lingering for companions) and kQueue (the part the replica was busy).
  // A KV-evicted sequence re-queued via DynamicBatcher::Requeue never went
  // through EnterQueue, so its open phase is kPreempt and the whole rejoin
  // wait is charged there (recompute wait, not admission queueing).
  void LeaveQueue(TimeUs now, DurationUs replica_idle_us, Phase next) {
    if (!active_) return;
    const DurationUs elapsed = now - mark_us_;
    if (open_ == Phase::kQueue) {
      const DurationUs linger = std::min(
          std::max(replica_idle_us - queue_idle_snapshot_us_, 0.0), elapsed);
      phase_us_[PhaseIndex(Phase::kLinger)] += linger;
      phase_us_[PhaseIndex(Phase::kQueue)] += elapsed - linger;
    } else {
      phase_us_[PhaseIndex(open_)] += elapsed;
    }
    mark_us_ = now;
    open_ = next;
  }

  // Charges one completed execution step [mark, now]: min(iso_us, elapsed)
  // to kExecute (the isolated-roofline price) and the rest to kInterference
  // (actual minus isolated = collocation stall). The phase stays open on
  // kExecute so continuous-batching callers can charge step after step.
  void ChargeExecStep(TimeUs now, DurationUs iso_us) {
    if (!active_) return;
    const DurationUs elapsed = now - mark_us_;
    const DurationUs execute = std::min(std::max(iso_us, 0.0), elapsed);
    phase_us_[PhaseIndex(Phase::kExecute)] += execute;
    phase_us_[PhaseIndex(Phase::kInterference)] += elapsed - execute;
    mark_us_ = now;
    open_ = Phase::kExecute;
  }

  // LLM: snapshots the phase vector at first-token delivery, so TTFT can be
  // attributed separately from the decode tail (TPOT). Continuous batching
  // calls this right after the step that produced the first token was
  // charged, so the snapshot sums exactly to TTFT.
  void MarkFirstToken() {
    if (!active_) return;
    for (std::size_t i = 0; i < kNumPhases; ++i) ttft_phase_us_[i] = phase_us_[i];
    ttft_marked_ = true;
  }

  bool ttft_marked() const { return ttft_marked_; }

  // LLM request-level batching delivers the whole batch at once; the first
  // token's timestamp is interpolated inside the batch. Called after
  // Finalize with frac = (first_token - exec_begin) / exec_duration: the
  // pre-execute phases belong entirely to TTFT, execute/interference split
  // proportionally, and the response wire leg is all decode tail.
  void SynthesizeFirstToken(double frac) {
    frac = std::min(std::max(frac, 0.0), 1.0);
    for (std::size_t i = 0; i < kNumPhases; ++i) ttft_phase_us_[i] = phase_us_[i];
    ttft_phase_us_[PhaseIndex(Phase::kExecute)] *= frac;
    ttft_phase_us_[PhaseIndex(Phase::kInterference)] *= frac;
    ttft_phase_us_[PhaseIndex(Phase::kPaging)] *= frac;
    ttft_phase_us_[PhaseIndex(Phase::kNetResponse)] = 0.0;
    ttft_phase_us_[PhaseIndex(Phase::kResidual)] = 0.0;
    ttft_marked_ = true;
  }

  // Splits the finalized phase vector at the first-token snapshot:
  // ttft[i] + tpot[i] == phase_us[i] for every phase (ttft all-zero when no
  // first token was marked). Phases only ever accumulate, so the subtraction
  // is non-negative up to FP rounding, which the max() clamps.
  void SplitTtft(double ttft[kNumPhases], double tpot[kNumPhases]) const {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      ttft[i] = ttft_marked_ ? ttft_phase_us_[i] : 0.0;
      tpot[i] = std::max(phase_us_[i] - ttft[i], 0.0);
    }
  }

  // Closes the open phase at `complete` and reconciles against the measured
  // e2e: any difference lands in kResidual and is returned so the caller can
  // ORION_CHECK it against an FP tolerance. After Finalize the phase vector
  // is final: sum == complete - arrival exactly.
  DurationUs Finalize(TimeUs arrival, TimeUs complete) {
    if (!active_) return 0.0;
    Advance(complete, open_);
    const DurationUs e2e = complete - arrival;
    DurationUs sum = 0.0;
    for (std::size_t i = 0; i < kNumPhases; ++i) sum += phase_us_[i];
    const DurationUs residual = e2e - sum;
    phase_us_[PhaseIndex(Phase::kResidual)] += residual;
    return residual;
  }

  const double* phases() const { return phase_us_; }
  double phase(Phase p) const { return phase_us_[PhaseIndex(p)]; }

 private:
  double phase_us_[kNumPhases] = {};
  double ttft_phase_us_[kNumPhases] = {};
  TimeUs mark_us_ = 0.0;
  DurationUs queue_idle_snapshot_us_ = 0.0;
  Phase open_ = Phase::kQueue;
  bool active_ = false;
  bool ttft_marked_ = false;
};

}  // namespace attribution
}  // namespace orion

#endif  // SRC_TELEMETRY_ATTRIBUTION_LEDGER_H_
