#include "src/gpusim/utilization.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace gpusim {

void UtilizationTracker::Record(TimeUs start, TimeUs end, double compute, double membw,
                                double sm_busy) {
  ORION_CHECK_MSG(end >= start, "utilization interval reversed");
  if (end <= start) {
    return;
  }
  if (has_open_) {
    // Merge with the open sample when the signal did not change; keeps one
    // sample over long idle stretches (and each window clips it once).
    if (open_.end == start && open_.compute == compute && open_.membw == membw &&
        open_.sm_busy == sm_busy) {
      open_.end = end;
      return;
    }
    for (Window& window : windows_) {
      Fold(open_, &window);
    }
    folded_until_ = std::max(folded_until_, open_.end);
  }
  open_ = UtilizationSample{start, end, compute, membw, sm_busy};
  has_open_ = true;
  ++sample_count_;
}

void UtilizationTracker::Fold(const UtilizationSample& sample, Window* window) {
  const TimeUs lo = std::max(sample.start, window->from);
  const TimeUs hi = std::min(sample.end, window->to);
  if (hi <= lo) {
    return;
  }
  const double width = hi - lo;
  window->total += width;
  window->compute_sum += width * sample.compute;
  window->membw_sum += width * sample.membw;
  window->sm_sum += width * sample.sm_busy;
}

void UtilizationTracker::DeclareWindow(TimeUs from, TimeUs to) {
  ORION_CHECK_MSG(from >= folded_until_, "utilization window [" << from << ", " << to
                                             << ") declared after samples up to "
                                             << folded_until_ << " were folded");
  windows_.push_back(Window{from, to});
}

template <typename F>
void UtilizationTracker::ForEachBucket(TimeUs from, TimeUs to, int buckets, F f) {
  ORION_CHECK(buckets > 0);
  ORION_CHECK(to > from);
  const double width = (to - from) / buckets;
  for (int b = 0; b < buckets; ++b) {
    const TimeUs lo = from + b * width;
    f(lo, lo + width);
  }
}

void UtilizationTracker::DeclareTimeline(TimeUs from, TimeUs to, int buckets) {
  ForEachBucket(from, to, buckets, [this](TimeUs lo, TimeUs hi) { DeclareWindow(lo, hi); });
}

UtilizationSample UtilizationTracker::AverageOver(TimeUs from, TimeUs to) const {
  const auto it = std::find_if(windows_.begin(), windows_.end(), [&](const Window& window) {
    return window.from == from && window.to == to;
  });
  ORION_CHECK_MSG(it != windows_.end(),
                  "utilization window [" << from << ", " << to << ") was never declared");
  Window window = *it;
  if (has_open_) {
    Fold(open_, &window);
  }
  UtilizationSample out;
  out.start = from;
  out.end = to;
  if (window.total > 0.0) {
    out.compute = window.compute_sum / window.total;
    out.membw = window.membw_sum / window.total;
    out.sm_busy = window.sm_sum / window.total;
  }
  return out;
}

std::vector<UtilizationSample> UtilizationTracker::Timeline(TimeUs from, TimeUs to,
                                                            int buckets) const {
  std::vector<UtilizationSample> out;
  out.reserve(static_cast<std::size_t>(std::max(buckets, 0)));
  ForEachBucket(from, to, buckets,
                [&](TimeUs lo, TimeUs hi) { out.push_back(AverageOver(lo, hi)); });
  return out;
}

}  // namespace gpusim
}  // namespace orion
