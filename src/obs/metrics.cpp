#include "obs/metrics.h"

#include <bit>

#include "util/assert.h"

namespace hyco::obs {

const char* obs_id_name(ObsId id) {
  switch (id) {
    case ObsId::kDelivered: return "delivered";
    case ObsId::kDroppedPartitioned: return "dropped_partitioned";
    case ObsId::kDroppedLost: return "dropped_lost";
    case ObsId::kDuplicated: return "duplicated";
    case ObsId::kHeldPartitioned: return "held_partitioned";
    case ObsId::kCoinFlips: return "coin_flips";
    case ObsId::kPhase1Ns: return "phase1_ns";
    case ObsId::kPhase2Ns: return "phase2_ns";
    case ObsId::kDecideSpreadNs: return "decide_spread_ns";
    case ObsId::kRounds: return "decision_rounds";
    case ObsId::kQuorumWaitNs: return "quorum_wait_ns";
    case ObsId::kSvcLatencyNs: return "svc_latency_ns";
    case ObsId::kSvcBatchWaitNs: return "svc_batch_wait_ns";
    case ObsId::kSvcSeqWaitNs: return "svc_seq_wait_ns";
    case ObsId::kSvcConsensusNs: return "svc_consensus_ns";
  }
  return "?";
}

void LogHistogram::add(std::uint64_t x) {
  ++counts_[x == 0 ? 0 : static_cast<std::size_t>(std::bit_width(x))];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LogHistogram::percentile(double q) const {
  HYCO_CHECK_MSG(q >= 0.0 && q <= 100.0, "percentile " << q << " out of range");
  if (total_ == 0) return 0.0;
  // Rank of the requested quantile over the total count; walk buckets and
  // linearly interpolate inside the first bucket whose cumulative count
  // covers it. Bucket i > 0 spans [2^(i-1), 2^i); bucket 0 is exactly 0.
  const double rank = q / 100.0 * static_cast<double>(total_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += counts_[i];
    if (rank >= static_cast<double>(seen)) continue;
    if (i == 0) return 0.0;
    const double lo = i == 1 ? 1.0 : static_cast<double>(std::uint64_t{1} << (i - 1));
    const double hi = i >= 64 ? 1.8446744073709552e19
                              : static_cast<double>(std::uint64_t{1} << i);
    const double span = static_cast<double>(counts_[i]);
    const double frac = (rank - lo_rank) / span;
    return lo + (hi - lo) * frac;
  }
  // rank == total - 1 fell off the loop via floating rounding; return the
  // top of the highest occupied bucket's lower edge.
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (counts_[i] == 0) continue;
    if (i == 0) return 0.0;
    return i == 1 ? 1.0 : static_cast<double>(std::uint64_t{1} << (i - 1));
  }
  return 0.0;
}

LogHistogram LogHistogram::from_counts(
    const std::array<std::uint64_t, kBuckets>& counts) {
  LogHistogram h;
  h.counts_ = counts;
  h.total_ = 0;
  for (const std::uint64_t c : counts) h.total_ += c;
  return h;
}

void ObsAccumulator::add(const ObsSample& s) {
  for (std::size_t i = 0; i < kObsRunIdCount; ++i) {
    moments_[i].add(s.v[i]);
    const auto id = static_cast<ObsId>(i);
    if (obs_id_is_latency(id)) histogram(id).add(s.v[i]);
  }
}

void ObsAccumulator::pool(ObsId id, const ExactMoments& moments,
                          const LogHistogram& hist) {
  HYCO_CHECK_MSG(static_cast<std::size_t>(id) >= kObsRunIdCount,
                 "metric \"" << obs_id_name(id) << "\" is per run, not pooled");
  this->moments(id).merge(moments);
  histogram(id).merge(hist);
}

void ObsAccumulator::merge(const ObsAccumulator& other) {
  for (std::size_t i = 0; i < kObsIdCount; ++i) {
    moments_[i].merge(other.moments_[i]);
  }
  for (std::size_t i = 0; i < kObsLatencyCount; ++i) {
    hists_[i].merge(other.hists_[i]);
  }
}

const LogHistogram& ObsAccumulator::histogram(ObsId id) const {
  HYCO_CHECK_MSG(obs_id_is_latency(id),
                 "metric \"" << obs_id_name(id) << "\" has no histogram");
  return hists_[static_cast<std::size_t>(id) - (kObsIdCount - kObsLatencyCount)];
}

LogHistogram& ObsAccumulator::histogram(ObsId id) {
  HYCO_CHECK_MSG(obs_id_is_latency(id),
                 "metric \"" << obs_id_name(id) << "\" has no histogram");
  return hists_[static_cast<std::size_t>(id) - (kObsIdCount - kObsLatencyCount)];
}

}  // namespace hyco::obs
