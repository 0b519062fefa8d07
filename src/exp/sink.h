// Streaming run pipeline: where executed runs land.
//
// Workers fold each chunk of a cell's runs into a fresh CellAccumulator —
// exact integer moments, deterministic bottom-k quantile reservoirs, and a
// bounded worst-failure ring — and hand it to a RunSink. Every accumulator
// component is a pure function of the run *multiset* (integer sums;
// priority-keyed reservoirs; run-index-bounded rings), so merging chunks in
// any order or grouping produces bit-identical cell statistics: streaming
// execution is byte-identical to batch at any thread count by
// construction, and memory stays O(cells), not O(runs).
//
// CollectingSink is the standard sink and the only place chunks merge:
// the local executor and the distributed coordinator both fold into it,
// and a resumed sweep seeds it with its checkpoint. It can optionally
// retain raw RunRecords (batch mode — the thin record-keeping sink
// existing tests pin streaming-vs-batch equivalence against), and invokes
// per-chunk and per-cell hooks (checkpoint appends, live progress).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/runner.h"
#include "exp/spec.h"
#include "util/stats.h"

namespace hyco {

struct CheckpointData;
struct ServiceRunResult;

/// Per-run stats of a replicated-service run (all-zero / inactive for
/// plain consensus runs). Latency rides as exact moments plus a log
/// histogram — both pure functions of the per-op sample multiset — NOT as
/// extra ObsIds: ObsAccumulator adds every id on every run, so consensus
/// runs would pollute service latency histograms with zeros.
struct ServiceRunStats {
  bool active = false;
  std::uint64_t ops = 0;        ///< completed client ops
  std::uint64_t submitted = 0;  ///< submitted client ops
  std::uint64_t batches = 0;    ///< batches minted
  std::uint64_t slots = 0;      ///< most slots decided by any replica
  std::uint64_t ops_per_sec = 0;  ///< exact integer ops * 1e9 / end_time
  ExactMoments latency;           ///< per-op client latency, sim ns
  obs::LogHistogram latency_hist;
  /// Latency attribution components (batching wait / slot queueing /
  /// consensus+delivery); per-op samples that sum to `latency` exactly.
  ExactMoments batch_wait;
  obs::LogHistogram batch_wait_hist;
  ExactMoments seq_wait;
  obs::LogHistogram seq_wait_hist;
  ExactMoments consensus;
  obs::LogHistogram consensus_hist;
};

/// Compact per-run metrics extracted from a RunResult (a full RunResult per
/// run would hold O(n) vectors; large grids only need these scalars).
struct RunRecord {
  std::uint64_t run = 0;  ///< run index within the cell
  std::uint64_t seed = 0;
  bool terminated = false;  ///< RunResult::all_correct_decided
  bool safe_ok = true;      ///< RunResult::safe()
  bool success = false;     ///< RunResult::success()
  Round rounds = 0;         ///< deepest deciding round
  SimTime decision_time = kSimTimeNever;
  std::uint64_t msgs = 0;  ///< unicasts scheduled
  std::uint64_t shm_proposals = 0;
  std::uint64_t consensus_objects = 0;
  std::uint64_t events = 0;
  std::uint64_t crashed = 0;
  obs::ObsSample obs;  ///< observability counters (RunResult::obs)
  ServiceRunStats service;  ///< inactive unless the cell runs the service
};

RunRecord extract_record(std::uint64_t run, std::uint64_t seed,
                         const RunResult& r);

/// The service analogue of extract_record: maps a ServiceRunResult into a
/// RunRecord (rounds := decided slots, decision_time := end time, plus the
/// dedicated service block).
RunRecord extract_service_record(std::uint64_t run, std::uint64_t seed,
                                 const ServiceRunResult& r);

/// Online statistics for one metric: exact moments for count/mean/sd/min/max
/// plus a deterministic reservoir for quantiles. Priorities fed to add()
/// must be pure hashes of run identity (we use the run's seed) so the
/// reservoir — and therefore every emitted percentile — is independent of
/// execution order. While a cell has at most `reservoir capacity` samples,
/// percentiles are exact (the reservoir holds every value).
class MetricStats {
 public:
  static constexpr std::size_t kDefaultReservoir = 1024;

  explicit MetricStats(std::size_t reservoir_capacity = kDefaultReservoir)
      : reservoir_(reservoir_capacity) {}
  MetricStats(ExactMoments moments, ReservoirSample reservoir)
      : moments_(moments), reservoir_(std::move(reservoir)) {}

  void add(std::uint64_t value, std::uint64_t priority);
  void merge(const MetricStats& other);

  [[nodiscard]] std::uint64_t count() const { return moments_.count(); }
  [[nodiscard]] double mean() const { return moments_.mean(); }
  [[nodiscard]] double stddev() const { return moments_.stddev(); }
  [[nodiscard]] double min() const { return moments_.min(); }
  [[nodiscard]] double max() const { return moments_.max(); }
  /// Linear-interpolated percentile over the reservoir, q in [0, 100].
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const ExactMoments& moments() const { return moments_; }
  [[nodiscard]] const ReservoirSample& reservoir() const { return reservoir_; }

 private:
  ExactMoments moments_;
  ReservoirSample reservoir_;
};

/// Merge-order-invariant per-cell aggregate of the service workload:
/// MetricStats over the per-run scalars, pooled exact latency moments, and
/// the pooled per-op latency log-histogram (p50/p99/p999 come from here).
/// Dormant (active_runs == 0) on plain consensus cells, so non-service
/// artifacts stay byte-identical to pre-service builds.
struct ServiceAgg {
  explicit ServiceAgg(
      std::size_t reservoir_capacity = MetricStats::kDefaultReservoir)
      : ops(reservoir_capacity),
        rate(reservoir_capacity),
        batches(reservoir_capacity),
        slots(reservoir_capacity) {}

  std::uint64_t active_runs = 0;
  MetricStats ops;      ///< completed ops per run
  MetricStats rate;     ///< decided-ops/sec per run (exact integer)
  MetricStats batches;  ///< batches minted per run
  MetricStats slots;    ///< slots decided per run
  ExactMoments latency;            ///< pooled per-op latency moments
  obs::LogHistogram latency_hist;  ///< pooled per-op latency histogram
  /// Pooled latency attribution components (see ServiceRunStats).
  ExactMoments batch_wait;
  obs::LogHistogram batch_wait_hist;
  ExactMoments seq_wait;
  obs::LogHistogram seq_wait_hist;
  ExactMoments consensus;
  obs::LogHistogram consensus_hist;

  void add(const RunRecord& r);
  void merge(const ServiceAgg& other);
};

/// Aggregated outcome of one cell (or one chunk of it, pre-merge).
/// Summaries cover terminated runs only (matching how the paper's tables
/// report cost conditioned on deciding).
struct CellAccumulator {
  static constexpr std::size_t kDefaultFailureCap = 64;

  explicit CellAccumulator(
      std::size_t reservoir_capacity = MetricStats::kDefaultReservoir,
      std::size_t failure_cap = kDefaultFailureCap);

  std::uint64_t runs = 0;
  std::uint64_t terminated = 0;
  std::uint64_t violations = 0;  ///< runs where safety did not hold

  MetricStats rounds;
  MetricStats msgs;
  MetricStats shm_proposals;
  MetricStats objects;
  MetricStats decision_time;

  /// Observability metrics over ALL runs (not just terminated ones):
  /// message-class counters and — when the spec collects them — per-phase
  /// latency moments + log-scale histograms. Merge-order-invariant like
  /// every other component.
  obs::ObsAccumulator obs;

  /// Service-workload aggregate; dormant on plain consensus cells.
  ServiceAgg svc;

  /// Bounded ring of failing runs: the `failure_cap` non-success() runs
  /// with the lowest run indices — a deterministic replay work list that
  /// survives streaming execution (no retained records needed). Sorted by
  /// run index after finalize().
  std::vector<RunRecord> failures;
  std::size_t failure_cap = kDefaultFailureCap;

  void add(const RunRecord& r);
  void merge(const CellAccumulator& other);
  /// Sorts the failure ring into run order; call once per finished cell.
  void finalize();

  [[nodiscard]] double termination_rate() const;
};

/// Wall-clock execution profile of the chunks folded into one cell.
/// Non-deterministic by nature (it measures the host, not the simulation),
/// so it lives beside the accumulator, never inside checkpoint or wire
/// artifacts.
struct ChunkProfile {
  std::uint64_t wall_ns = 0;  ///< summed per-chunk wall time
  std::uint64_t cpu_ns = 0;   ///< summed per-chunk thread CPU time
  std::uint64_t msgs = 0;     ///< unicasts simulated in profiled chunks
  std::uint64_t events = 0;   ///< simulator events in profiled chunks
  std::uint64_t runs = 0;     ///< runs covered by profiled chunks
  std::uint64_t chunks = 0;   ///< chunks profiled

  void merge(const ChunkProfile& other) {
    wall_ns += other.wall_ns;
    cpu_ns += other.cpu_ns;
    msgs += other.msgs;
    events += other.events;
    runs += other.runs;
    chunks += other.chunks;
  }
};

/// One finished cell: its grid coordinates plus merged statistics, and —
/// batch mode only — the retained per-run records.
struct CellResult {
  explicit CellResult(ExperimentCell c) : cell(std::move(c)) {}
  CellResult(ExperimentCell c, CellAccumulator a)
      : cell(std::move(c)), acc(std::move(a)) {}

  ExperimentCell cell;
  CellAccumulator acc;
  /// Raw per-run metrics in run order; empty under streaming sinks.
  std::vector<RunRecord> records;
  /// Wall-clock execution profile; all-zero unless the executor profiled.
  ChunkProfile profile;

  [[nodiscard]] std::uint64_t runs() const { return acc.runs; }
  [[nodiscard]] std::uint64_t terminated() const { return acc.terminated; }
  [[nodiscard]] std::uint64_t violations() const { return acc.violations; }
  [[nodiscard]] const MetricStats& rounds() const { return acc.rounds; }
  [[nodiscard]] const MetricStats& msgs() const { return acc.msgs; }
  [[nodiscard]] const MetricStats& shm_proposals() const {
    return acc.shm_proposals;
  }
  [[nodiscard]] const MetricStats& objects() const { return acc.objects; }
  [[nodiscard]] const MetricStats& decision_time() const {
    return acc.decision_time;
  }
  [[nodiscard]] const obs::ObsAccumulator& obs() const { return acc.obs; }
  [[nodiscard]] const std::vector<RunRecord>& failures() const {
    return acc.failures;
  }
  [[nodiscard]] double termination_rate() const {
    return acc.termination_rate();
  }
};

/// A contiguous range of one cell's run indices, [begin, end). The executor
/// and the distributed work ledger both speak spans: a whole cell is the
/// span [0, runs), and a mid-cell resume executes only the spans a chunk
/// checkpoint has not folded yet.
struct RunSpan {
  std::uint64_t cell_pos = 0;  ///< position in the executed cell list
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t length() const { return end - begin; }
};

/// Executor-facing consumer of finished chunks. All methods may be called
/// concurrently from worker threads.
class RunSink {
 public:
  virtual ~RunSink() = default;

  /// True when workers should also collect raw RunRecords per chunk
  /// (batch mode); streaming sinks return false and never see a record.
  [[nodiscard]] virtual bool wants_records() const { return false; }

  /// Folds one finished chunk — runs [begin, end) of cell `cell_pos`
  /// (position in the executed cell list, not the spec-expansion index) —
  /// into the sink.
  virtual void absorb(std::uint64_t cell_pos, std::uint64_t begin,
                      std::uint64_t end, CellAccumulator&& chunk,
                      std::vector<RunRecord>&& records) = 0;

  /// Executor profiling hook: wall/CPU cost of one finished chunk of cell
  /// `cell_pos`. Called only when the executor profiles (Options::profile);
  /// host-side measurement, kept apart from the deterministic absorb path.
  virtual void absorb_profile(std::uint64_t cell_pos,
                              const ChunkProfile& prof) {
    (void)cell_pos;
    (void)prof;
  }

  /// Every scheduled run of the cell has been absorbed. Cells complete in
  /// any order; called from whichever worker finished the last chunk.
  virtual void on_cell_complete(std::uint64_t cell_pos) { (void)cell_pos; }

  /// True when absorbing also appends checkpoint blocks; the coordinator's
  /// health endpoint then reports how long ago the last one flushed.
  [[nodiscard]] virtual bool checkpoints() const { return false; }
};

/// The standard sink: merges chunks into one accumulator per cell and
/// yields CellResults in cell order. With `retain_records` it is the thin
/// batch-mode sink (records kept, bounded by `max_records_per_cell`, the
/// lowest run indices winning — deterministic under any schedule); without,
/// it is the bounded-memory streaming sink.
class CollectingSink : public RunSink {
 public:
  struct Options {
    bool retain_records = false;
    std::uint64_t max_records_per_cell =
        std::numeric_limits<std::uint64_t>::max();
    /// Invoked once per finished cell (from a worker thread; completions
    /// are serialized by the sink) with the cell and its final, finalized
    /// accumulator — the checkpoint-append / live-emission hook.
    std::function<void(const ExperimentCell&, const CellAccumulator&)>
        on_complete;
    /// Invoked once per absorbed chunk (serialized by the sink) with the
    /// cell, the chunk's run range [begin, end), and the chunk accumulator
    /// *before* it merges into the cell slot — the chunk-granular
    /// checkpoint-append hook that lets a monster cell resume mid-flight.
    std::function<void(const ExperimentCell&, std::uint64_t begin,
                       std::uint64_t end, const CellAccumulator&)>
        on_chunk;
  };

  CollectingSink(std::vector<ExperimentCell> cells, Options opts);

  [[nodiscard]] bool wants_records() const override {
    return opts_.retain_records;
  }
  void absorb(std::uint64_t cell_pos, std::uint64_t begin, std::uint64_t end,
              CellAccumulator&& chunk,
              std::vector<RunRecord>&& records) override;
  void absorb_profile(std::uint64_t cell_pos,
                      const ChunkProfile& prof) override;
  void on_cell_complete(std::uint64_t cell_pos) override;
  [[nodiscard]] bool checkpoints() const override {
    return static_cast<bool>(opts_.on_chunk);
  }

  /// Seeds the cells with the runs a resumed checkpoint already folded
  /// (its keys are cell positions, which on a whole expanded grid are the
  /// cell indices; see plan_resume). A cell block becomes that cell's
  /// finished result, and a chunk trail is merged into the cell before
  /// the runs still to execute. No hook fires for them: the checkpoint
  /// already holds those blocks. Call before execution starts.
  void resume(CheckpointData checkpoint);

  /// Results in cell order; call after the executor returns.
  [[nodiscard]] std::vector<CellResult> take_results();

 private:
  struct Slot {
    std::mutex mu;
    bool has_acc = false;
    CellAccumulator acc;
    std::vector<RunRecord> records;
    ChunkProfile profile;

    /// Merges one chunk (or checkpointed block) in; call under `mu`.
    void fold(CellAccumulator&& chunk);
  };

  std::vector<ExperimentCell> cells_;
  Options opts_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex complete_mu_;  ///< serializes on_complete/on_chunk invocations
};

}  // namespace hyco
