// hyco_bench measurement helpers: quantiles, the record digest, the outcome
// of one repetition (counts, sums and correctness gates read from the
// retained records), and metric output.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sink.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hyco_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the rule of Python's statistics.quantiles(xs, n=4) (the
/// default "exclusive" method), so compare.py and this binary agree on
/// every reported spread.
inline Quartiles quartiles(std::vector<double> xs) {
  Quartiles q;
  if (xs.empty()) return q;
  std::sort(xs.begin(), xs.end());
  q.median = median(xs);
  if (xs.size() == 1) {
    q.q1 = q.q3 = xs[0];
    return q;
  }
  const auto ld = static_cast<std::int64_t>(xs.size());
  const std::int64_t m = ld + 1;
  const auto cut = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    return (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

/// Percentile q in [0, 100] of an ascending sample, interpolated between
/// order statistics (rank q/100 * (n-1)) — exact: every sample is present.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Percentile of a power-of-two LogHistogram, interpolated inside the
/// bucket that holds the rank and clamped to the exact [min, max] of the
/// same samples. Coarse (a bucket spans a factor of 2), but never outside
/// the data: LogHistogram::percentile interpolates to the bucket top with
/// no clamp, and reports a p99 above the maximum on service sweeps.
inline double log_bucket_percentile(const hyco::obs::LogHistogram& h,
                                    const hyco::ExactMoments& m, double q) {
  if (h.total() == 0) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(h.total() - 1);
  double seen = 0.0;
  double v = m.max();
  for (std::size_t i = 0; i < hyco::obs::LogHistogram::kBuckets; ++i) {
    const auto count = static_cast<double>(h.bucket(i));
    if (count == 0.0) continue;
    if (rank >= seen + count) {
      seen += count;
      continue;
    }
    if (i == 0) {
      v = 0.0;
    } else {
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      v = lo + lo * (rank - seen) / count;  // bucket i spans [lo, 2*lo)
    }
    break;
  }
  return std::clamp(v, m.min(), m.max());
}

/// What one repetition produced, read from its retained records: the
/// digest that pins it, the counts behind every per-run ratio, and the
/// correctness verdict. Both passes (executor and traced) summarize
/// through here, so their numbers are computed identically.
struct Outcome {
  bool service = false;
  std::uint64_t digest = 0;
  std::uint64_t runs = 0;
  std::uint64_t terminated = 0;
  std::uint64_t unsafe = 0;
  std::uint64_t ops_attempted = 0;  ///< service: clients x ops x runs
  std::uint64_t ops_completed = 0;
  std::uint64_t msgs = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shm_proposals = 0;
  std::uint64_t objects = 0;
  std::uint64_t coin_flips = 0;
  std::uint64_t lost = 0;
  std::uint64_t dup = 0;
  std::uint64_t held = 0;
  std::uint64_t crashed = 0;
  std::uint64_t rounds = 0;  ///< summed over terminated runs (grids)
  std::uint64_t slots = 0;   ///< service
  std::uint64_t sim_time = 0;  ///< service: summed run end times, ns
  double batch_wait_ns = 0.0;  ///< service: summed per-op components, ns
  double seq_wait_ns = 0.0;
  double consensus_ns = 0.0;
  hyco::ExactMoments latency;  ///< service: pooled per-op latency
  hyco::obs::LogHistogram latency_hist;
  std::vector<double> decision_times;  ///< grids: terminated runs, sorted
  std::vector<std::string> errors;     ///< correctness gate failures

  [[nodiscard]] std::uint64_t attempted() const {
    return service ? ops_attempted : runs;
  }
  [[nodiscard]] std::uint64_t decided() const {
    return service ? ops_completed : terminated;
  }
  [[nodiscard]] std::uint64_t failed() const { return attempted() - decided(); }
};

inline void add_record(Outcome& o, const hyco::RunRecord& r) {
  using hyco::mix64;
  using hyco::obs::ObsId;
  std::uint64_t d = o.digest;
  for (const std::uint64_t x :
       {r.run, r.seed, static_cast<std::uint64_t>(r.terminated),
        static_cast<std::uint64_t>(r.safe_ok),
        static_cast<std::uint64_t>(r.rounds),
        static_cast<std::uint64_t>(r.decision_time), r.msgs, r.shm_proposals,
        r.consensus_objects, r.events, r.crashed, r.service.ops,
        r.service.slots, r.service.batches,
        static_cast<std::uint64_t>(r.service.latency.raw_sum())}) {
    d = mix64(d, x);
  }
  for (const std::uint64_t x : r.obs.v) d = mix64(d, x);
  o.digest = d;

  ++o.runs;
  if (r.terminated) {
    ++o.terminated;
    // A service record's rounds and decision time are its slot count and
    // end time; the service's own latency moments stand in for them.
    if (!r.service.active) {
      o.rounds += static_cast<std::uint64_t>(r.rounds);
      o.decision_times.push_back(static_cast<double>(r.decision_time));
    }
  }
  if (!r.safe_ok) ++o.unsafe;
  o.msgs += r.msgs;
  o.events += r.events;
  o.shm_proposals += r.shm_proposals;
  o.objects += r.consensus_objects;
  o.crashed += r.crashed;
  o.delivered += r.obs[ObsId::kDelivered];
  o.coin_flips += r.obs[ObsId::kCoinFlips];
  o.lost += r.obs[ObsId::kDroppedLost];
  o.dup += r.obs[ObsId::kDuplicated];
  o.held += r.obs[ObsId::kHeldPartitioned];
  if (r.service.active) {
    o.ops_completed += r.service.ops;
    o.slots += r.service.slots;
    o.sim_time += static_cast<std::uint64_t>(r.decision_time);
    o.batch_wait_ns += static_cast<double>(r.service.batch_wait.raw_sum());
    o.seq_wait_ns += static_cast<double>(r.service.seq_wait.raw_sum());
    o.consensus_ns += static_cast<double>(r.service.consensus.raw_sum());
    o.latency.merge(r.service.latency);
    o.latency_hist.merge(r.service.latency_hist);
  }
}

/// Summarizes a repetition's cell results (records retained) and checks
/// that each cell's accumulator folded exactly its records.
inline Outcome summarize(const std::vector<hyco::CellResult>& results,
                         bool service) {
  Outcome o;
  o.service = service;
  for (const hyco::CellResult& cr : results) {
    const hyco::ExperimentCell& cell = cr.cell;
    if (service) {
      o.ops_attempted +=
          cell.runs * cell.service.clients * cell.service.ops_per_client;
    }
    std::uint64_t terminated = 0;
    std::uint64_t unsafe = 0;
    for (const hyco::RunRecord& r : cr.records) {
      add_record(o, r);
      terminated += r.terminated ? 1 : 0;
      unsafe += r.safe_ok ? 0 : 1;
    }
    if (cr.records.size() != cell.runs || cr.acc.runs != cell.runs ||
        cr.acc.terminated != terminated || cr.acc.violations != unsafe) {
      std::ostringstream os;
      os << "cell " << cell.index << ": accumulator (runs " << cr.acc.runs
         << ", terminated " << cr.acc.terminated << ", violations "
         << cr.acc.violations << ") disagrees with its " << cr.records.size()
         << " records";
      o.errors.push_back(os.str());
    }
  }
  std::sort(o.decision_times.begin(), o.decision_times.end());
  if (o.unsafe > 0) {
    o.errors.push_back(std::to_string(o.unsafe) + " unsafe run(s)");
  }
  return o;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One reported metric. `samples` holds the per-repetition values when the
/// value is their median; exact metrics carry `count`, the sample size the
/// value was computed from.
struct Metric {
  Metric(std::string n, double v, std::string u,
         std::vector<double> s = {}, std::uint64_t c = 1)
      : name(std::move(n)),
        value(v),
        unit(std::move(u)),
        samples(std::move(s)),
        count(c) {}

  std::string name;
  double value;
  std::string unit;
  std::vector<double> samples;
  std::uint64_t count;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline void print_metrics(std::FILE* out, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::fprintf(out, "%-28s %.10g %s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (!m.samples.empty()) {
      const Quartiles q = quartiles(m.samples);
      std::fprintf(out, "   [q1 %.6g q3 %.6g n=%zu]", q.q1, q.q3,
                   m.samples.size());
    }
    std::fputc('\n', out);
  }
}

inline void write_metrics_json(std::ostream& out,
                               const std::vector<Metric>& ms) {
  out << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    out << (i == 0 ? "\n" : ",\n") << "    " << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit);
    if (m.samples.empty()) {
      out << ", \"n\": " << m.count;
    } else {
      const Quartiles q = quartiles(m.samples);
      out << ", \"median\": " << json_number(q.median)
          << ", \"q1\": " << json_number(q.q1)
          << ", \"q3\": " << json_number(q.q3)
          << ", \"n\": " << m.samples.size() << ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        out << (k == 0 ? "" : ", ") << json_number(m.samples[k]);
      }
      out << "]";
    }
    out << "}";
  }
  out << "\n  }";
}

}  // namespace hyco_bench
