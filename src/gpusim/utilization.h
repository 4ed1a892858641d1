// GPU utilization tracking over declared windows.
//
// The device model reports piecewise-constant utilization between simulator
// events: compute throughput utilization, memory bandwidth utilization, and
// fraction of busy SMs (the three metrics defined in §2 of the paper).
// Benches use both time-weighted averages (Table 1) and downsampled
// timelines (Figures 1, 8, 9).
//
// The tracker keeps no history. Callers declare the windows they will ask
// about before those windows start; each recorded sample is folded into the
// running sums of every declared window when it closes. Memory is
// O(declared windows), independent of run length. Adjacent samples with an
// identical signal merge into one open sample, and every window clips the
// merged sample once, exactly as a full-history scan would: AverageOver is
// bit-identical to averaging over the complete sample list.
#ifndef SRC_GPUSIM_UTILIZATION_H_
#define SRC_GPUSIM_UTILIZATION_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "src/common/time_types.h"

namespace orion {
namespace gpusim {

struct UtilizationSample {
  TimeUs start = 0.0;
  TimeUs end = 0.0;
  double compute = 0.0;   // fraction of peak compute throughput in use
  double membw = 0.0;     // fraction of peak memory bandwidth in use
  double sm_busy = 0.0;   // fraction of SMs executing at least one warp
};

class UtilizationTracker {
 public:
  // Upper bound for a window whose end is not known when it is declared.
  // Since no sample extends past the current time, AverageOver(from,
  // kOpenEnded) at time t equals the full-history average over [from, t).
  static constexpr TimeUs kOpenEnded = std::numeric_limits<TimeUs>::infinity();

  void Record(TimeUs start, TimeUs end, double compute, double membw, double sm_busy);

  // Declares [from, to) for a later AverageOver(from, to). `from` must not
  // precede the end of any sample already closed (declare before the window
  // starts).
  void DeclareWindow(TimeUs from, TimeUs to);
  // Declares the `buckets` equal-width windows Timeline(from, to, buckets)
  // reads.
  void DeclareTimeline(TimeUs from, TimeUs to, int buckets);

  // Time-weighted averages over the declared window [from, to). Asking for
  // a window that was never declared is a checked error.
  UtilizationSample AverageOver(TimeUs from, TimeUs to) const;

  // Downsamples the timeline into `buckets` equal-width windows over
  // [from, to); each bucket holds the time-weighted mean of its window.
  // The buckets must have been declared with DeclareTimeline.
  std::vector<UtilizationSample> Timeline(TimeUs from, TimeUs to, int buckets) const;

  // Distinct samples recorded so far (after merging identical neighbours).
  std::size_t sample_count() const { return sample_count_; }
  // Bytes held by the tracker: grows with declared windows only.
  std::size_t retained_bytes() const {
    return sizeof(*this) + windows_.capacity() * sizeof(Window);
  }

 private:
  struct Window {
    TimeUs from = 0.0;
    TimeUs to = 0.0;
    double total = 0.0;
    double compute_sum = 0.0;
    double membw_sum = 0.0;
    double sm_sum = 0.0;
  };

  static void Fold(const UtilizationSample& sample, Window* window);
  // Calls f(lo, hi) for each of the `buckets` equal-width windows of
  // [from, to); DeclareTimeline and Timeline share it so both compute
  // bit-identical bounds.
  template <typename F>
  static void ForEachBucket(TimeUs from, TimeUs to, int buckets, F f);

  UtilizationSample open_;  // last sample; still grows while the signal holds
  bool has_open_ = false;
  // Latest end of any closed (already folded) sample.
  TimeUs folded_until_ = -std::numeric_limits<TimeUs>::infinity();
  std::size_t sample_count_ = 0;
  std::vector<Window> windows_;
};

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_UTILIZATION_H_
