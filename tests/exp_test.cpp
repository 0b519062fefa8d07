// Unit tests for the experiment engine (src/exp/): grid expansion,
// thread-count-independent execution, the streaming sink pipeline
// (streaming-vs-batch byte equivalence, bounded failure rings, checkpoint
// save/load/resume), report emission, and failure replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/executor.h"
#include "exp/replay.h"
#include "exp/report.h"
#include "util/assert.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "exp-test";
  spec.algorithms = {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin};
  spec.layouts = {ClusterLayout::even(4, 2), ClusterLayout::even(6, 3)};
  spec.runs_per_cell = 4;
  spec.base_seed = 42;
  return spec;
}

TEST(ExperimentSpec, ExpandCoversCrossProductWithoutDuplicates) {
  ExperimentSpec spec = small_spec();
  spec.delays = {DelayAxis::of("d1", DelayConfig::uniform(50, 150)),
                 DelayAxis::of("d2", DelayConfig::constant_of(100))};
  spec.crashes = {CrashAxis::none(),
                  CrashAxis::of("minority", [](const ClusterLayout& l) {
                    Rng rng(7);
                    return failure_patterns::random_minority(l, rng, 300).plan;
                  })};
  spec.coin_epsilons = {0.0, 0.25};

  const auto cells = spec.expand();
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 2u * 2u * 2u);
  ASSERT_EQ(cells.size(), spec.cell_count());

  std::set<std::tuple<int, ProcId, ClusterId, std::string, std::string, double>>
      seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);  // index matches expansion position
    seen.insert({static_cast<int>(cells[i].alg), cells[i].layout.n(),
                 cells[i].layout.m(), cells[i].delay.name,
                 cells[i].crash.name, cells[i].coin_epsilon});
  }
  EXPECT_EQ(seen.size(), cells.size());  // no duplicate combination
}

TEST(ExperimentSpec, ExpandRejectsEmptyAxes) {
  ExperimentSpec spec = small_spec();
  spec.algorithms.clear();
  EXPECT_THROW(spec.expand(), ContractViolation);

  spec = small_spec();
  spec.layouts.clear();
  EXPECT_THROW(spec.expand(), ContractViolation);

  spec = small_spec();
  spec.runs_per_cell = 0;
  EXPECT_THROW(spec.expand(), ContractViolation);
}

TEST(ExperimentSpec, TotalRunsIsOverflowChecked) {
  ExperimentSpec spec = small_spec();
  EXPECT_EQ(spec.total_runs(), spec.cell_count() * 4u);
  spec.runs_per_cell = std::uint64_t{1} << 62;
  EXPECT_THROW((void)spec.total_runs(), ContractViolation);
}

TEST(ExperimentCell, SeedsAreDeterministicAndDistinct) {
  const auto cells = small_spec().expand();
  std::set<std::uint64_t> seeds;
  for (const auto& c : cells) {
    for (std::uint64_t k = 0; k < c.runs; ++k) {
      EXPECT_EQ(c.seed_for(k), c.seed_for(k));
      seeds.insert(c.seed_for(k));
    }
  }
  // 4 cells x 4 runs, all distinct.
  EXPECT_EQ(seeds.size(), cells.size() * 4u);
}

TEST(ExperimentCell, SeedsStayDistinctBeyond32Bits) {
  // Run indices above 2^32 must not alias low indices (the multi-million
  // run grids of the streaming pipeline live in 64-bit index space).
  ExperimentCell cell(ClusterLayout::even(4, 2));
  cell.runs = std::uint64_t{1} << 40;
  const std::uint64_t hi = (std::uint64_t{1} << 33) + 17;
  EXPECT_NE(cell.seed_for(hi), cell.seed_for(17));
  EXPECT_NE(cell.seed_for(hi), cell.seed_for(hi - 1));
}

TEST(ExperimentCell, RunConfigReflectsAxes) {
  ExperimentSpec spec = small_spec();
  spec.coin_epsilons = {0.25};
  spec.max_rounds = 77;
  const auto cells = spec.expand();
  const RunConfig cfg = cells.front().run_config(1);
  EXPECT_EQ(cfg.alg, Algorithm::HybridLocalCoin);
  EXPECT_EQ(cfg.seed, cells.front().seed_for(1));
  EXPECT_EQ(cfg.max_rounds, 77);
  EXPECT_DOUBLE_EQ(cfg.coin_epsilon, 0.25);
  EXPECT_EQ(cfg.inputs.size(), static_cast<std::size_t>(cfg.layout.n()));
  EXPECT_THROW(cells.front().run_config(99), ContractViolation);
}

std::string render_artifacts(const std::string& name,
                             const std::vector<CellResult>& results) {
  std::ostringstream csv, json;
  write_cell_csv(csv, results);
  write_cell_json(json, name, results);
  return csv.str() + "\n---\n" + json.str();
}

std::string run_to_json(const ExperimentSpec& spec, unsigned threads) {
  ParallelExecutor::Options opts;
  opts.threads = threads;
  const auto results = ParallelExecutor(opts).run(spec);
  std::ostringstream os;
  write_cell_json(os, spec.name, results);
  return os.str();
}

TEST(ParallelExecutor, RejectsNegativeThreadCount) {
  ParallelExecutor::Options opts;
  opts.threads = -1;
  EXPECT_THROW((void)ParallelExecutor(opts).worker_count(4),
               ContractViolation);
}

TEST(ParallelExecutor, JsonIsByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = small_spec();
  const std::string one = run_to_json(spec, 1);
  const std::string eight = run_to_json(spec, 8);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"experiment\":\"exp-test\""), std::string::npos);
}

TEST(ParallelExecutor, AggregatesEveryRun) {
  const ExperimentSpec spec = small_spec();
  const auto results = ParallelExecutor().run(spec);
  ASSERT_EQ(results.size(), spec.cell_count());
  for (const auto& r : results) {
    EXPECT_EQ(r.runs(), spec.runs_per_cell);
    EXPECT_EQ(r.terminated(), spec.runs_per_cell);  // no crashes => all decide
    EXPECT_EQ(r.violations(), 0u);
    EXPECT_TRUE(r.failures().empty());
    EXPECT_EQ(r.rounds().count(), r.terminated());
    EXPECT_DOUBLE_EQ(r.termination_rate(), 1.0);
    // Batch mode retains the raw records in run order.
    ASSERT_EQ(r.records.size(), static_cast<std::size_t>(r.runs()));
    for (std::size_t k = 0; k < r.records.size(); ++k) {
      EXPECT_EQ(r.records[k].run, k);
      EXPECT_EQ(r.records[k].seed, r.cell.seed_for(k));
    }
  }
}

TEST(ParallelExecutor, HeterogeneousRunCountsPerCell) {
  auto cells = small_spec().expand();
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].runs = 2 + i;
  const auto results = ParallelExecutor().run(cells);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].runs(), 2u + i);
  }
}

TEST(ParallelExecutor, CsvHasOneRowPerCell) {
  const ExperimentSpec spec = small_spec();
  const auto results = ParallelExecutor().run(spec);
  std::ostringstream os;
  write_cell_csv(os, results);
  std::size_t lines = 0;
  std::string line;
  std::istringstream is(os.str());
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, results.size() + 1);  // header + cells
}

// ---- streaming pipeline ----------------------------------------------------

/// A grid with both success and failure cells (covering-dead blocks every
/// run) so streaming equivalence covers the failure ring too.
ExperimentSpec mixed_spec() {
  ExperimentSpec spec;
  spec.name = "stream-test";
  spec.algorithms = {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin};
  spec.layouts = {ClusterLayout::even(4, 2), ClusterLayout::even(6, 3)};
  spec.crashes = {CrashAxis::none(),
                  CrashAxis::of("covering-dead", [](const ClusterLayout& l) {
                    Rng rng(3);
                    return failure_patterns::kill_covering_set(l, rng, 0).plan;
                  })};
  spec.runs_per_cell = 6;
  spec.max_rounds = 60;
  spec.base_seed = 0xBEE;
  return spec;
}

std::string run_with_sink(const ExperimentSpec& spec, std::int64_t threads,
                          bool retain_records, std::uint64_t chunk_size) {
  ParallelExecutor::Options opts;
  opts.threads = threads;
  opts.chunk_size = chunk_size;
  const auto cells = spec.expand();
  CollectingSink::Options sink_opts;
  sink_opts.retain_records = retain_records;
  CollectingSink sink(cells, std::move(sink_opts));
  ParallelExecutor(opts).run(cells, sink);
  return render_artifacts(spec.name, sink.take_results());
}

TEST(StreamingPipeline, StreamingMatchesBatchByteForByteAtAnyThreadCount) {
  const ExperimentSpec spec = mixed_spec();
  const std::string batch_1 = run_with_sink(spec, 1, true, 2);
  const std::string batch_8 = run_with_sink(spec, 8, true, 2);
  const std::string stream_1 = run_with_sink(spec, 1, false, 2);
  const std::string stream_8 = run_with_sink(spec, 8, false, 2);
  const std::string stream_big_chunks = run_with_sink(spec, 8, false, 1024);
  EXPECT_EQ(batch_1, batch_8);
  EXPECT_EQ(batch_1, stream_1);
  EXPECT_EQ(batch_1, stream_8);
  // Chunking only changes merge grouping, which the accumulators are
  // invariant to.
  EXPECT_EQ(batch_1, stream_big_chunks);
}

TEST(StreamingPipeline, StreamingSinkRetainsNoRecords) {
  const ExperimentSpec spec = mixed_spec();
  const auto cells = spec.expand();
  CollectingSink sink(cells, {});
  ParallelExecutor().run(cells, sink);
  for (const auto& r : sink.take_results()) {
    EXPECT_TRUE(r.records.empty());
    // ... but the failure ring still names the failing seeds.
    if (r.terminated() < r.runs()) EXPECT_FALSE(r.failures().empty());
  }
}

TEST(StreamingPipeline, FailureRingKeepsLowestRunsAndRecordCapApplies) {
  ExperimentSpec spec = mixed_spec();
  spec.algorithms = {Algorithm::HybridLocalCoin};
  spec.layouts = {ClusterLayout::even(4, 2)};
  spec.crashes = {CrashAxis::of("covering-dead", [](const ClusterLayout& l) {
    Rng rng(3);
    return failure_patterns::kill_covering_set(l, rng, 0).plan;
  })};
  spec.runs_per_cell = 9;
  const auto cells = spec.expand();

  ParallelExecutor::Options opts;
  opts.threads = 4;
  opts.chunk_size = 2;
  opts.failure_capacity = 3;
  CollectingSink::Options sink_opts;
  sink_opts.retain_records = true;
  sink_opts.max_records_per_cell = 4;
  CollectingSink sink(cells, std::move(sink_opts));
  ParallelExecutor(opts).run(cells, sink);
  const auto results = sink.take_results();
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  EXPECT_EQ(r.terminated(), 0u);  // covering set dead => every run fails
  ASSERT_EQ(r.failures().size(), 3u);  // capped, lowest runs win, sorted
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(r.failures()[i].run, i);
  ASSERT_EQ(r.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.records[i].run, i);
}

TEST(StreamingPipeline, CellCompletionFiresOncePerCell) {
  const ExperimentSpec spec = mixed_spec();
  const auto cells = spec.expand();
  std::mutex mu;
  std::map<std::size_t, int> completions;
  CollectingSink::Options sink_opts;
  sink_opts.on_complete = [&](const ExperimentCell& cell,
                              const CellAccumulator& acc) {
    const std::lock_guard<std::mutex> lock(mu);
    ++completions[cell.index];
    EXPECT_EQ(acc.runs, cell.runs);
  };
  CollectingSink sink(cells, std::move(sink_opts));
  ParallelExecutor::Options opts;
  opts.threads = 4;
  opts.chunk_size = 2;
  ParallelExecutor(opts).run(cells, sink);
  ASSERT_EQ(completions.size(), cells.size());
  for (const auto& [idx, count] : completions) EXPECT_EQ(count, 1);
}

// ---- checkpoint / resume ---------------------------------------------------

TEST(Checkpoint, RoundTripsCellStateExactly) {
  const ExperimentSpec spec = mixed_spec();
  const auto cells = spec.expand();
  const auto results = ParallelExecutor().run(cells);
  const std::uint64_t fp = grid_fingerprint(
      cells, MetricStats::kDefaultReservoir, CellAccumulator::kDefaultFailureCap);

  std::stringstream file;
  write_checkpoint_header(file, fp);
  for (const auto& r : results) {
    append_checkpoint_cell(file, r.cell.index, r.acc);
  }

  const auto reload = [&](std::istream& in) {
    const auto loaded = load_checkpoint(in, fp);
    EXPECT_EQ(loaded.size(), results.size());
    std::vector<CellResult> rebuilt;
    for (const auto& c : cells) rebuilt.emplace_back(c, loaded.at(c.index));
    return render_artifacts(spec.name, rebuilt);
  };
  const std::string expected = render_artifacts(spec.name, results);
  EXPECT_EQ(reload(file), expected);

  // Older writers put a round-histogram "h" line before each "f" line;
  // such a checkpoint still loads to the same cells.
  std::string old_text;
  std::istringstream lines(file.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("f ", 0) == 0) old_text += "h 0 64 16 6 0 0 0 0 0 0 0\n";
    old_text += line + '\n';
  }
  std::istringstream old_file(old_text);
  EXPECT_EQ(reload(old_file), expected);
}

TEST(Checkpoint, RefusesDifferentGridAndToleratesTruncation) {
  const ExperimentSpec spec = mixed_spec();
  const auto cells = spec.expand();
  const auto results = ParallelExecutor().run(cells);
  const std::uint64_t fp = grid_fingerprint(cells, 1024, 64);

  std::stringstream file;
  write_checkpoint_header(file, fp);
  append_checkpoint_cell(file, results[0].cell.index, results[0].acc);
  append_checkpoint_cell(file, results[1].cell.index, results[1].acc);
  std::string text = file.str();

  // Fingerprint mismatch refuses outright.
  std::istringstream wrong(text);
  EXPECT_THROW((void)load_checkpoint(wrong, fp + 1), ContractViolation);

  // A truncated trailing block (kill mid-append) is dropped silently.
  std::istringstream cut(text.substr(0, text.size() - 40));
  const auto partial = load_checkpoint(cut, fp);
  EXPECT_EQ(partial.size(), 1u);
  EXPECT_TRUE(partial.count(results[0].cell.index));

  // A partial block *followed by* complete blocks (kill mid-append, then a
  // resumed session appends more) must cost only the partial cell. The cut
  // lands after whole lines, so the loader is mid-block when it reads the
  // next block's "cell" header — it must resync on that line, not swallow
  // the complete block that follows it.
  std::ostringstream spliced;
  write_checkpoint_header(spliced, fp);
  const std::string block0 = text.substr(
      text.find("cell "), text.find("done ") - text.find("cell "));
  std::size_t third_newline = 0;
  for (int i = 0; i < 3; ++i) third_newline = block0.find('\n', third_newline) + 1;
  spliced << block0.substr(0, third_newline);  // header + first metric pair
  append_checkpoint_cell(spliced, results[1].cell.index, results[1].acc);
  append_checkpoint_cell(spliced, results[2].cell.index, results[2].acc);
  std::istringstream spliced_in(spliced.str());
  const auto recovered = load_checkpoint(spliced_in, fp);
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_TRUE(recovered.count(results[1].cell.index));
  EXPECT_TRUE(recovered.count(results[2].cell.index));
}

TEST(Checkpoint, ResumedRunMatchesUninterruptedByteForByte) {
  const ExperimentSpec spec = mixed_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(
      cells, MetricStats::kDefaultReservoir, CellAccumulator::kDefaultFailureCap);

  // Uninterrupted reference.
  const std::string reference =
      render_artifacts(spec.name, ParallelExecutor().run(cells));

  // "Interrupted" run: execute only the first half of the cells,
  // checkpointing each as it completes.
  std::stringstream file;
  write_checkpoint_header(file, fp);
  {
    std::vector<ExperimentCell> first_half(cells.begin(),
                                           cells.begin() + cells.size() / 2);
    std::mutex mu;
    CollectingSink::Options sink_opts;
    sink_opts.on_complete = [&](const ExperimentCell& cell,
                                const CellAccumulator& acc) {
      const std::lock_guard<std::mutex> lock(mu);
      append_checkpoint_cell(file, cell.index, acc);
    };
    CollectingSink sink(first_half, std::move(sink_opts));
    ParallelExecutor::Options opts;
    opts.threads = 4;
    ParallelExecutor(opts).run(first_half, sink);
  }

  // Resume: load, run only what's missing, emit.
  ResumePlan plan = plan_resume(cells, load_checkpoint_data(file, fp));
  ASSERT_EQ(plan.checkpoint.cells.size(), cells.size() / 2);
  ASSERT_EQ(plan.spans.size(), cells.size() - cells.size() / 2);
  CollectingSink sink(cells, {});
  sink.resume(std::move(plan.checkpoint));
  ParallelExecutor().run(cells, plan.spans, sink);
  EXPECT_EQ(render_artifacts(spec.name, sink.take_results()), reference);
}

TEST(ResumePlan, DropsForeignBlocksAndCompletesCoveredCells) {
  const ExperimentSpec spec = mixed_spec();
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 8u);
  const std::uint64_t runs = spec.runs_per_cell;
  const std::uint64_t fp = grid_fingerprint(
      cells, MetricStats::kDefaultReservoir, CellAccumulator::kDefaultFailureCap);
  const auto whole = ParallelExecutor().run(cells);
  const std::string reference = render_artifacts(spec.name, whole);

  // The interrupted session folded all of cell 0 and runs [0, 2) of cell 1
  // as chunk blocks, and no cell block. The file also holds a finished
  // cell 2, a cell block for a cell outside the grid, and a cell-1 chunk
  // that runs past the cell's run count.
  std::stringstream file;
  write_checkpoint_header(file, fp);
  {
    CollectingSink::Options sink_opts;
    sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                             std::uint64_t end, const CellAccumulator& acc) {
      append_checkpoint_chunk(file, cell.index, begin, end, acc);
    };
    CollectingSink sink(cells, std::move(sink_opts));
    ParallelExecutor::Options opts;
    opts.threads = 1;
    ParallelExecutor(opts).run(cells, {{0, 0, runs}, {1, 0, 2}}, sink);
  }
  append_checkpoint_cell(file, 2, whole[2].acc);
  append_checkpoint_cell(file, 99, whole[3].acc);
  append_checkpoint_chunk(file, 1, 2, runs + 3, whole[1].acc);

  ResumePlan plan = plan_resume(cells, load_checkpoint_data(file, fp));
  // Cell 0's trail became a cell block; the foreign blocks are gone.
  EXPECT_EQ(plan.checkpoint.cells.size(), 2u);
  EXPECT_EQ(plan.checkpoint.cells.count(0), 1u);
  EXPECT_EQ(plan.checkpoint.cells.at(0).runs, runs);
  EXPECT_EQ(plan.checkpoint.cells.count(2), 1u);
  ASSERT_EQ(plan.checkpoint.chunks.size(), 1u);
  ASSERT_EQ(plan.checkpoint.chunks.at(1).size(), 1u);
  EXPECT_EQ(plan.checkpoint.chunks.at(1)[0].end, 2u);
  EXPECT_EQ(plan.resumed_runs, runs + runs + 2);
  // Cells 0 and 2 execute nothing; cell 1 reruns from its dropped chunk.
  ASSERT_EQ(plan.spans.size(), cells.size() - 2);
  EXPECT_EQ(plan.spans[0].cell_pos, 1u);
  EXPECT_EQ(plan.spans[0].begin, 2u);
  EXPECT_EQ(plan.spans[0].end, runs);
  for (std::size_t i = 1; i < plan.spans.size(); ++i) {
    EXPECT_EQ(plan.spans[i].cell_pos, i + 2);
    EXPECT_EQ(plan.spans[i].begin, 0u);
    EXPECT_EQ(plan.spans[i].end, runs);
  }

  CollectingSink sink(cells, {});
  sink.resume(std::move(plan.checkpoint));
  ParallelExecutor().run(cells, plan.spans, sink);
  const auto results = sink.take_results();
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cell.index, i);
    EXPECT_EQ(results[i].runs(), runs);
  }
  EXPECT_EQ(render_artifacts(spec.name, results), reference);
}

// ---- replay ----------------------------------------------------------------

TEST(Replay, ReproducesFailingSeedsWithTraces) {
  ExperimentSpec spec;
  spec.name = "replay-test";
  spec.algorithms = {Algorithm::HybridLocalCoin};
  spec.layouts = {ClusterLayout::even(4, 2)};
  spec.crashes = {CrashAxis::of("covering-dead", [](const ClusterLayout& l) {
    Rng rng(3);
    return failure_patterns::kill_covering_set(l, rng, 0).plan;
  })};
  spec.runs_per_cell = 3;
  spec.max_rounds = 50;

  const auto results = ParallelExecutor().run(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].terminated(), 0u);  // covering set dead => blocked
  ASSERT_EQ(results[0].failures().size(), 3u);

  const auto reports = replay_failures(results, 2);
  ASSERT_EQ(reports.size(), 2u);  // capped
  for (const auto& rep : reports) {
    EXPECT_FALSE(rep.terminated);
    EXPECT_TRUE(rep.safe_ok);  // indulgence: blocked but safe
    EXPECT_FALSE(rep.trace.empty());
    EXPECT_EQ(rep.seed, results[0].cell.seed_for(rep.run));
  }
  std::ostringstream os;
  dump_replays(os, reports);
  EXPECT_NE(os.str().find("=== replay: cell 0"), std::string::npos);
}

TEST(Report, FormatsNumbers) {
  EXPECT_EQ(format_number(2.5), "2.5");
  EXPECT_EQ(format_number(3.0), "3");
}

TEST(Report, ShardedCsvConcatenatesToUnsharded) {
  const ExperimentSpec spec = small_spec();
  const auto results = ParallelExecutor().run(spec);
  std::ostringstream whole;
  write_cell_csv(whole, results);

  const std::string prefix =
      ::testing::TempDir() + "exp_test_shard_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
      ".csv";
  const auto shards = write_cell_csv_sharded(prefix, results, 3);
  ASSERT_EQ(shards.size(), (results.size() + 2) / 3);

  std::string glued;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::ifstream in(shards[s]);
    ASSERT_TRUE(in.good()) << shards[s];
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
      if (first && s > 0) {
        first = false;
        continue;  // repeated header
      }
      first = false;
      glued += line + "\n";
    }
    std::remove(shards[s].c_str());
  }
  EXPECT_EQ(glued, whole.str());
}

}  // namespace
}  // namespace hyco
