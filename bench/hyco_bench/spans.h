// In-memory span log for the traced pass. Spans are recorded by the
// benchmark around its calls into each layer (nothing inside src/ is
// instrumented), kept in memory, and written at exit as Chrome trace-event
// JSON, which Perfetto opens beside hyco-trace exports. Every per-layer
// time the traced pass reports is a sum over these spans, so the trace and
// the numbers agree.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "measure.h"

namespace hyco_bench {

class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  /// Chrome-trace thread lanes, so Perfetto draws each kind on its own row.
  enum Lane : std::int32_t { kRepLane = 0, kRunLane = 1, kLayerLane = 2 };

  struct Span {
    const char* name;  ///< a string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into the log, or kNoParent
    std::int32_t lane;
    std::int64_t run;  ///< global run index, -1 when not a run's span
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Appends a span and returns its index (for children to name as parent).
  std::int32_t add(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int32_t parent, Lane lane,
                   std::int64_t run = -1) {
    spans_.push_back({name, ns_since_origin(start), ns_since_origin(end),
                      parent, lane, run});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Summed duration and count of the spans with this name.
  struct Total {
    double ns = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Total total(const std::string& name) const {
    Total t;
    for (const Span& s : spans_) {
      if (name != s.name) continue;
      t.ns += static_cast<double>(s.end_ns - s.start_ns);
      ++t.count;
    }
    return t;
  }

  /// Largest relative gap between a parent span and the sum of its
  /// children, over parents with children — 0 when children tile parents.
  [[nodiscard]] double max_child_gap() const {
    std::map<std::int32_t, double> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    double worst = 0.0;
    for (const auto& [idx, sum] : child_ns) {
      const Span& p = spans_[static_cast<std::size_t>(idx)];
      const auto dur = static_cast<double>(p.end_ns - p.start_ns);
      if (dur > 0.0) worst = std::max(worst, std::abs(dur - sum) / dur);
    }
    return worst;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond stamps).
  void write_chrome(std::ostream& out) const {
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_string(s.name)
          << ", \"cat\": \"hyco_bench\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << s.lane
          << ", \"ts\": " << json_number(static_cast<double>(s.start_ns) / 1e3)
          << ", \"dur\": "
          << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
          << ", \"run\": " << s.run << "}}";
    }
    out << "\n]}\n";
  }

 private:
  [[nodiscard]] std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace hyco_bench
