// In-memory host-time spans for the traced run.
//
// Each span has a name, a start, an end, the span open around it (its
// parent) and the arm it belongs to (-1 outside arms). Spans are recorded
// only from the benchmark's own code, around its calls into the simulator's
// public functions; a disabled recorder costs one branch per scope.
#ifndef E2EBENCH_RUNNER_SPANS_H_
#define E2EBENCH_RUNNER_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

// Monotonic host clock in nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into SpanRecorder::spans(), -1 for a root
  int arm = -1;
};

// Per span name: how often it ran, its total duration and its self time
// (duration minus the part covered by its child spans).
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // RAII scope: opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int arm);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  std::map<std::string, SpanTotals> Totals() const;
  // Chrome trace-event JSON ("X" events, one thread); false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  int open_ = -1;  // innermost open span
};

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_SPANS_H_
