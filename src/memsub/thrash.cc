#include "src/memsub/thrash.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace memsub {

ThrashDetector::ThrashDetector(Options options) : options_(options) {
  ORION_CHECK(options_.enter_busy > options_.exit_busy);
  ORION_CHECK(options_.enter_windows >= 1 && options_.exit_windows >= 1);
}

bool ThrashDetector::Observe(double paging_busy_fraction, bool oversubscribed) {
  const bool high = paging_busy_fraction >= options_.enter_busy;
  const bool low = paging_busy_fraction <= options_.exit_busy;
  high_streak_ = high ? high_streak_ + 1 : 0;
  low_streak_ = low ? low_streak_ + 1 : 0;
  if (!thrashing_) {
    if (oversubscribed && high_streak_ >= options_.enter_windows) {
      thrashing_ = true;
      low_streak_ = 0;
    }
  } else {
    // One-way while oversubscribed: reverting to free sharing would thrash
    // again immediately. Only a real capacity change (client exit) plus a
    // sustained quiet period ends the exclusive schedule.
    if (!oversubscribed && low_streak_ >= options_.exit_windows) {
      thrashing_ = false;
      high_streak_ = 0;
    }
  }
  return thrashing_;
}

DurationUs QuantumFromSwapCost(DurationUs measured_swap_us, const QuantumOptions& options) {
  ORION_CHECK(options.min_quantum_us > 0.0 &&
              options.max_quantum_us >= options.min_quantum_us);
  ORION_CHECK(options.swap_cost_factor > 0.0);
  return std::clamp(options.swap_cost_factor * measured_swap_us, options.min_quantum_us,
                    options.max_quantum_us);
}

}  // namespace memsub
}  // namespace orion
