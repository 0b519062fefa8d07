#include "exp/sink.h"

#include <algorithm>
#include <utility>

#include "exp/checkpoint.h"
#include "service/service_runner.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

namespace {

// Per-metric reservoir salts: each metric keys its priorities off the run
// seed with a distinct stream id so the kept subsets are independent.
constexpr std::uint64_t kSaltRounds = 0x9E1;
constexpr std::uint64_t kSaltMsgs = 0x9E2;
constexpr std::uint64_t kSaltShm = 0x9E3;
constexpr std::uint64_t kSaltObjects = 0x9E4;
constexpr std::uint64_t kSaltDecisionTime = 0x9E5;
constexpr std::uint64_t kSaltSvcOps = 0x9E6;
constexpr std::uint64_t kSaltSvcRate = 0x9E7;
constexpr std::uint64_t kSaltSvcBatches = 0x9E8;
constexpr std::uint64_t kSaltSvcSlots = 0x9E9;

/// Max-heap order on run index: the *highest* retained run index sits at
/// the top, so the failure ring deterministically keeps the lowest indices.
bool run_less(const RunScalars& a, const RunScalars& b) {
  return a.run < b.run;
}

/// Bounded insert keeping the kFailureCapacity failures with the lowest
/// run indices.
void push_failure(std::vector<RunScalars>& heap, const RunScalars& r) {
  if (heap.size() < CellAccumulator::kFailureCapacity) {
    heap.push_back(r);
    std::push_heap(heap.begin(), heap.end(), run_less);
    return;
  }
  if (!(r.run < heap.front().run)) return;
  std::pop_heap(heap.begin(), heap.end(), run_less);
  heap.back() = r;
  std::push_heap(heap.begin(), heap.end(), run_less);
}

}  // namespace

RunRecord extract_record(std::uint64_t run, std::uint64_t seed,
                         const RunResult& r) {
  RunRecord rec;
  rec.run = run;
  rec.seed = seed;
  rec.terminated = r.all_correct_decided;
  rec.safe_ok = r.safe();
  rec.success = r.success();
  rec.rounds = r.max_decision_round;
  rec.decision_time = r.last_decision_time;
  rec.msgs = r.net.unicasts_sent;
  rec.shm_proposals = r.shm.consensus_proposals;
  rec.consensus_objects = r.consensus_objects;
  rec.events = r.events;
  rec.crashed = r.crashed;
  rec.obs = r.obs;
  return rec;
}

RunRecord extract_service_record(std::uint64_t run, std::uint64_t seed,
                                 const ServiceRunResult& r) {
  RunRecord rec;
  rec.run = run;
  rec.seed = seed;
  rec.terminated = r.terminated;
  rec.safe_ok = r.safe_ok;
  rec.success = r.success();
  rec.rounds = static_cast<Round>(r.slots);
  rec.decision_time = r.end_time;
  rec.msgs = r.net.unicasts_sent;
  rec.shm_proposals = r.shm.consensus_proposals;
  rec.consensus_objects = r.consensus_objects;
  rec.events = r.events;
  rec.crashed = r.crashed;
  // Message-class counters are free here too; phase-latency ids stay zero
  // (the service does not instrument consensus phases).
  rec.obs[obs::ObsId::kDelivered] = r.net.delivered;
  rec.obs[obs::ObsId::kDroppedPartitioned] = r.net.dropped_partitioned;
  rec.obs[obs::ObsId::kDroppedLost] = r.net.dropped_lost;
  rec.obs[obs::ObsId::kDuplicated] = r.net.duplicated;
  rec.obs[obs::ObsId::kHeldPartitioned] = r.net.held_partitioned;
  rec.service.active = true;
  rec.service.ops = r.ops_completed;
  rec.service.submitted = r.ops_submitted;
  rec.service.batches = r.batches;
  rec.service.slots = r.slots;
  rec.service.ops_per_sec = r.ops_per_sec();
  rec.service.latency = r.latency;
  rec.service.latency_hist = r.latency_hist;
  rec.service.batch_wait = r.batch_wait;
  rec.service.batch_wait_hist = r.batch_wait_hist;
  rec.service.seq_wait = r.seq_wait;
  rec.service.seq_wait_hist = r.seq_wait_hist;
  rec.service.consensus = r.consensus;
  rec.service.consensus_hist = r.consensus_hist;
  return rec;
}

void MetricStats::add(std::uint64_t value, std::uint64_t priority) {
  moments_.add(value);
  reservoir_.add(priority, static_cast<double>(value));
}

void MetricStats::merge(const MetricStats& other) {
  moments_.merge(other.moments_);
  reservoir_.merge(other.reservoir_);
}

double MetricStats::percentile(double q) const {
  HYCO_CHECK_MSG(q >= 0.0 && q <= 100.0,
                 "percentile " << q << " out of range");
  const std::vector<double>& xs = reservoir_.sorted_values();
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  const double rank = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

void CellAccumulator::add(const RunRecord& r) {
  ++runs;
  if (r.terminated) {
    ++terminated;
    rounds.add(static_cast<std::uint64_t>(r.rounds),
               mix64(r.seed, kSaltRounds));
    msgs.add(r.msgs, mix64(r.seed, kSaltMsgs));
    shm_proposals.add(r.shm_proposals, mix64(r.seed, kSaltShm));
    objects.add(r.consensus_objects, mix64(r.seed, kSaltObjects));
    decision_time.add(static_cast<std::uint64_t>(r.decision_time),
                      mix64(r.seed, kSaltDecisionTime));
  }
  if (!r.safe_ok) ++violations;
  if (!r.success) push_failure(failures, r);
  obs.add(r.obs);
  if (r.service.active) {
    svc_ops.add(r.service.ops, mix64(r.seed, kSaltSvcOps));
    svc_rate.add(r.service.ops_per_sec, mix64(r.seed, kSaltSvcRate));
    svc_batches.add(r.service.batches, mix64(r.seed, kSaltSvcBatches));
    svc_slots.add(r.service.slots, mix64(r.seed, kSaltSvcSlots));
    obs.pool(obs::ObsId::kSvcLatencyNs, r.service.latency,
             r.service.latency_hist);
    obs.pool(obs::ObsId::kSvcBatchWaitNs, r.service.batch_wait,
             r.service.batch_wait_hist);
    obs.pool(obs::ObsId::kSvcSeqWaitNs, r.service.seq_wait,
             r.service.seq_wait_hist);
    obs.pool(obs::ObsId::kSvcConsensusNs, r.service.consensus,
             r.service.consensus_hist);
  }
}

void CellAccumulator::merge(const CellAccumulator& other) {
  runs += other.runs;
  terminated += other.terminated;
  violations += other.violations;
  rounds.merge(other.rounds);
  msgs.merge(other.msgs);
  shm_proposals.merge(other.shm_proposals);
  objects.merge(other.objects);
  decision_time.merge(other.decision_time);
  svc_ops.merge(other.svc_ops);
  svc_rate.merge(other.svc_rate);
  svc_batches.merge(other.svc_batches);
  svc_slots.merge(other.svc_slots);
  for (const RunScalars& r : other.failures) {
    push_failure(failures, r);
  }
  obs.merge(other.obs);
}

void CellAccumulator::finalize() {
  std::sort(failures.begin(), failures.end(), run_less);
}

double CellAccumulator::termination_rate() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(terminated) /
                         static_cast<double>(runs);
}

CollectingSink::CollectingSink(std::vector<ExperimentCell> cells, Options opts)
    : cells_(std::move(cells)), opts_(std::move(opts)) {
  slots_.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void CollectingSink::Slot::fold(CellAccumulator&& chunk) {
  if (!has_acc) {
    acc = std::move(chunk);
    has_acc = true;
  } else {
    acc.merge(chunk);
  }
}

std::uint64_t CollectingSink::resume(CheckpointData checkpoint) {
  std::uint64_t completed = 0;
  for (auto& [pos, trail] : checkpoint.chunks) {
    HYCO_CHECK_MSG(pos < slots_.size(),
                   "resume: cell position " << pos << " out of range");
    Slot& slot = *slots_[pos];
    const std::lock_guard<std::mutex> lock(slot.mu);
    std::uint64_t covered = 0;
    for (ChunkCheckpoint& c : trail) {
      covered += c.end - c.begin;
      slot.fold(std::move(c.acc));
    }
    if (covered == cells_[pos].runs) {
      slot.acc.finalize();
      ++completed;
    }
  }
  return completed;
}

void CollectingSink::absorb(std::uint64_t cell_pos, std::uint64_t begin,
                            std::uint64_t end, CellAccumulator&& chunk,
                            std::vector<RunRecord>&& records) {
  HYCO_CHECK_MSG(cell_pos < slots_.size(),
                 "absorb: cell position " << cell_pos << " out of range");
  if (opts_.on_chunk) {
    const std::lock_guard<std::mutex> lock(complete_mu_);
    opts_.on_chunk(cells_[cell_pos], begin, end, chunk);
  }
  Slot& slot = *slots_[cell_pos];
  const std::lock_guard<std::mutex> lock(slot.mu);
  slot.fold(std::move(chunk));
  if (opts_.retain_records) {
    slot.records.insert(slot.records.end(), records.begin(), records.end());
  }
}

void CollectingSink::absorb_profile(std::uint64_t cell_pos,
                                    const ChunkProfile& prof) {
  HYCO_CHECK_MSG(cell_pos < slots_.size(),
                 "absorb_profile: cell position " << cell_pos
                                                  << " out of range");
  Slot& slot = *slots_[cell_pos];
  const std::lock_guard<std::mutex> lock(slot.mu);
  slot.profile.merge(prof);
}

void CollectingSink::on_cell_complete(std::uint64_t cell_pos) {
  HYCO_CHECK_MSG(cell_pos < slots_.size(),
                 "on_cell_complete: cell position " << cell_pos
                                                    << " out of range");
  Slot& slot = *slots_[cell_pos];
  {
    const std::lock_guard<std::mutex> lock(slot.mu);
    slot.acc.finalize();
    std::sort(slot.records.begin(), slot.records.end(), run_less);
  }
  if (opts_.on_complete) {
    const std::lock_guard<std::mutex> lock(complete_mu_);
    opts_.on_complete(cells_[cell_pos], slot.acc);
  }
}

std::vector<CellResult> CollectingSink::take_results() {
  std::vector<CellResult> results;
  results.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellResult res(std::move(cells_[i]), std::move(slots_[i]->acc));
    res.records = std::move(slots_[i]->records);
    res.profile = slots_[i]->profile;
    results.push_back(std::move(res));
  }
  return results;
}

}  // namespace hyco
