#include "src/memsub/thrash.h"

#include <algorithm>


namespace orion {
namespace memsub {

bool ThrashDetector::Observe(double paging_busy_fraction, bool oversubscribed) {
  const bool high = paging_busy_fraction >= kThrashEnterBusy;
  const bool low = paging_busy_fraction <= kThrashExitBusy;
  high_streak_ = high ? high_streak_ + 1 : 0;
  low_streak_ = low ? low_streak_ + 1 : 0;
  if (!thrashing_) {
    if (oversubscribed && high_streak_ >= kThrashEnterWindows) {
      thrashing_ = true;
      low_streak_ = 0;
    }
  } else {
    // One-way while oversubscribed: reverting to free sharing would thrash
    // again immediately. Only a real capacity change (client exit) plus a
    // sustained quiet period ends the exclusive schedule.
    if (!oversubscribed && low_streak_ >= kThrashExitWindows) {
      thrashing_ = false;
      high_streak_ = 0;
    }
  }
  return thrashing_;
}

DurationUs QuantumFromSwapCost(DurationUs measured_swap_us) {
  return std::clamp(kSwapCostFactor * measured_swap_us, kMinQuantumUs, kMaxQuantumUs);
}

}  // namespace memsub
}  // namespace orion
