// Metrics registry for the observability layer: a fixed set of per-run
// counters and latency metrics keyed by stable ids, plus the mergeable
// accumulator that aggregates them per cell.
//
// Two invariants carry everything downstream:
//  * *Out-of-band*: samples are filled from instrumentation that never
//    touches the seeded RNG, so collecting them cannot change a run — a
//    metrics-on sweep emits byte-identical core artifacts to a metrics-off
//    one.
//  * *Merge-order-invariant*: aggregation state is exact integer sums
//    (ExactMoments) and elementwise-added histogram buckets, so merging
//    chunk accumulators in any order or grouping — one thread, sixty-four,
//    or a fleet of TCP workers — yields bit-identical metric values.
#pragma once

#include <array>
#include <cstdint>

#include "util/stats.h"

namespace hyco::obs {

/// Stable metric ids. The enumerator order is the serialization order of
/// checkpoint/wire "o" lines and of report columns — append only.
enum class ObsId : std::uint8_t {
  // Message-class counters (filled from NetStats / ProcessStats on every
  // run — free, they are already counted):
  kDelivered = 0,
  kDroppedPartitioned,
  kDroppedLost,
  kDuplicated,
  kHeldPartitioned,
  kCoinFlips,
  // Per-run latency metrics in sim-time ns (filled only when
  // RunConfig::collect_obs installs the phase-timing observer):
  kPhase1Ns,
  kPhase2Ns,
  kDecideSpreadNs,
  // Appended per the serialization contract (old checkpoints still load —
  // the "o" reader is name-keyed and skips unknown ids):
  kRounds,        ///< max decision round of the run (always filled)
  kQuorumWaitNs,  ///< sim-time from phase begin to quorum satisfaction,
                  ///< summed over processes and rounds (collect_obs only)
  // Pooled per op, not per run: a replicated-service run merges its per-op
  // client latency samples (ns) into these, and consensus runs leave them
  // empty. No ObsSample carries them.
  kSvcLatencyNs,    ///< client-visible latency, the sum of the three below
  kSvcBatchWaitNs,  ///< submit -> batch flush
  kSvcSeqWaitNs,    ///< flush -> the deciding slot's consensus start
  kSvcConsensusNs,  ///< slot start -> delivery
};

inline constexpr std::size_t kObsIdCount = 15;
inline constexpr std::size_t kObsRunIdCount = 11;  ///< leading per-run ids
inline constexpr std::size_t kObsLatencyCount = 9;  ///< trailing latency ids

/// Stable string id ("delivered", "phase1_ns", ...) — the registry key used
/// in checkpoint lines, report columns, and JSON.
const char* obs_id_name(ObsId id);

/// True for the latency-class ids, which additionally aggregate into a
/// log-bucket histogram (counters only need exact sums).
[[nodiscard]] constexpr bool obs_id_is_latency(ObsId id) {
  return static_cast<std::size_t>(id) >= kObsIdCount - kObsLatencyCount;
}

/// One run's values of the per-run ids, indexed by ObsId. Plain array of
/// u64 — cheap to fill, copy, and carry through RunResult/RunRecord.
struct ObsSample {
  std::array<std::uint64_t, kObsRunIdCount> v{};

  std::uint64_t& operator[](ObsId id) {
    return v[static_cast<std::size_t>(id)];
  }
  std::uint64_t operator[](ObsId id) const {
    return v[static_cast<std::size_t>(id)];
  }
};

/// Power-of-two-bucket histogram over u64 values: bucket 0 counts zeros,
/// bucket i counts values with bit width i (i.e. [2^(i-1), 2^i)). Merging is
/// elementwise addition — a pure function of the sample multiset — and
/// quantiles interpolate inside a bucket deterministically, so single-machine
/// and distributed aggregation report identical percentiles without shipping
/// raw samples.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  ///< zeros + bit widths 1..64

  void add(std::uint64_t x);
  void merge(const LogHistogram& other);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_[i];
  }
  /// Interpolated quantile, q in [0, 100]. 0 when empty.
  [[nodiscard]] double percentile(double q) const;

  static LogHistogram from_counts(
      const std::array<std::uint64_t, kBuckets>& counts);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Per-cell aggregation: exact moments for every id, plus a log histogram
/// per latency id. Every run of the cell adds its ObsSample (counters are
/// meaningful whether or not the run terminated); pooled ids take whole
/// per-op distributions instead.
class ObsAccumulator {
 public:
  void add(const ObsSample& s);
  /// Merges a run's per-op samples of the pooled latency id `id`.
  void pool(ObsId id, const ExactMoments& moments, const LogHistogram& hist);
  void merge(const ObsAccumulator& other);

  [[nodiscard]] const ExactMoments& moments(ObsId id) const {
    return moments_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] ExactMoments& moments(ObsId id) {
    return moments_[static_cast<std::size_t>(id)];
  }
  /// Histogram of a latency id (obs_id_is_latency(id) must hold).
  [[nodiscard]] const LogHistogram& histogram(ObsId id) const;
  [[nodiscard]] LogHistogram& histogram(ObsId id);

  /// Exact sum over all added samples (counter semantics).
  [[nodiscard]] std::uint64_t sum(ObsId id) const {
    return static_cast<std::uint64_t>(moments(id).raw_sum());
  }

 private:
  std::array<ExactMoments, kObsIdCount> moments_{};
  std::array<LogHistogram, kObsLatencyCount> hists_{};
};

}  // namespace hyco::obs
