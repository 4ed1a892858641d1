#include "e2ebench/runner/spans.h"

#include <chrono>
#include <fstream>
#include <iomanip>

namespace e2e {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name, int arm)
    : recorder_(recorder) {
  if (recorder_ == nullptr || !recorder_->enabled_) {
    return;
  }
  index_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back({name, NowNs(), 0, recorder_->open_, arm});
  recorder_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  SpanRecord& span = recorder_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = NowNs();
  recorder_->open_ = span.parent;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += (span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return totals;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << (s.start_ns - origin) / 1e3
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"arm\":" << s.arm << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
