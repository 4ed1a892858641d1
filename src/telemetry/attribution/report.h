// Aggregation of per-request LatencyLedgers into per-service SLO-miss blame
// reports, plus the CSV exporter (tools/attribution_report.py renders the
// CSV into top-N blame tables).
//
// One ServiceAttribution per service (model label on the serving path,
// client label on the harness path), owned by the hub's AttributionRegistry.
// Each holds up to three scopes:
//
//   e2e    every request's full phase decomposition (always recorded)
//   ttft   time-to-first-token decomposition (LLM services only)
//   tpot   decode-tail decomposition, first token -> completion (LLM only)
//
// A scope tracks, per phase: a LatencyRecorder (exact percentiles), the
// running sum, and a blame counter — for every request that missed its SLO,
// the *dominant* phase (largest non-execute contribution) takes the blame.
// kExecute is excluded from blame because pure isolated execute time is the
// workload's own cost; if nothing else contributed, the blame falls back to
// kExecute, which reads as "the SLO is infeasible for this model".
#ifndef SRC_TELEMETRY_ATTRIBUTION_REPORT_H_
#define SRC_TELEMETRY_ATTRIBUTION_REPORT_H_

#include <cstddef>
#include <map>
#include <ostream>
#include <string>

#include "src/common/stats.h"
#include "src/telemetry/attribution/ledger.h"

namespace orion {
namespace attribution {

// Picks the blame phase for one request's phase vector: the largest
// contribution excluding kExecute; kExecute itself when nothing else
// contributed (infeasible SLO).
Phase DominantPhase(const double phases[kNumPhases]);

// Per-(service, scope) aggregate.
struct ScopeStats {
  std::size_t count = 0;
  std::size_t misses = 0;
  LatencyRecorder total;
  LatencyRecorder phase[kNumPhases];
  double phase_sum_us[kNumPhases] = {};
  // Blame counts over SLO-missing requests only: blame[p] = number of
  // misses whose dominant phase was p.
  std::size_t blame[kNumPhases] = {};

  void Record(const double phases[kNumPhases], double total_us, bool miss);
  // The phase with the highest blame count (ties: lowest phase index);
  // kExecute when there were no misses.
  Phase DominantBlame() const;
};

class ServiceAttribution {
 public:
  void set_tier(const std::string& tier) { tier_ = tier; }
  const std::string& tier() const { return tier_; }

  void RecordE2e(const double phases[kNumPhases], double total_us, bool miss) {
    e2e_.Record(phases, total_us, miss);
  }
  void RecordTtft(const double phases[kNumPhases], double total_us, bool miss) {
    ttft_.Record(phases, total_us, miss);
  }
  void RecordTpot(const double phases[kNumPhases], double total_us, bool miss) {
    tpot_.Record(phases, total_us, miss);
  }

  const ScopeStats& e2e() const { return e2e_; }
  const ScopeStats& ttft() const { return ttft_; }
  const ScopeStats& tpot() const { return tpot_; }

 private:
  std::string tier_;
  ScopeStats e2e_;
  ScopeStats ttft_;
  ScopeStats tpot_;
};

// Owned by telemetry::Hub. Ordered by service name so exports are
// deterministic.
class AttributionRegistry {
 public:
  // Returns the ServiceAttribution for `service`, creating it on first use.
  // References stay valid for the registry's lifetime (node-based map).
  ServiceAttribution& Service(const std::string& service) { return services_[service]; }

  const std::map<std::string, ServiceAttribution>& services() const { return services_; }

 private:
  std::map<std::string, ServiceAttribution> services_;
};

// CSV schema (one row per service/scope/phase, plus a phase="total" row per
// scope carrying the scope's overall latency distribution and miss count):
//   service,tier,scope,phase,count,sum_us,mean_us,p50_us,p95_us,p99_us,blame_misses
// Rows are emitted in (service, scope, phase-index) order — deterministic.
void WriteAttributionCsv(const AttributionRegistry& registry, std::ostream& out);

// Writes the CSV to `path`; aborts (ORION_CHECK) on I/O error, matching the
// other telemetry exporters.
void ExportAttributionCsv(const AttributionRegistry& registry, const std::string& path);

}  // namespace attribution
}  // namespace orion

#endif  // SRC_TELEMETRY_ATTRIBUTION_REPORT_H_
