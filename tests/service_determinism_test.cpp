// Determinism tests for the replicated service layer: identical runs are
// bit-identical, executor artifacts are byte-identical at any thread count
// and chunk grain, latency histograms and service metrics merge
// order-invariantly, and checkpoints round-trip the service metrics
// exactly, old "s" latency lines included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/executor.h"
#include "exp/report.h"
#include "obs/metrics.h"
#include "service/service_runner.h"

namespace hyco {
namespace {

ExperimentSpec service_spec() {
  ExperimentSpec spec;
  spec.name = "svc-det";
  spec.algorithms = {Algorithm::HybridCommonCoin};
  spec.layouts = {ClusterLayout::even(4, 2)};
  spec.runs_per_cell = 4;
  spec.base_seed = 77;
  spec.services = {ServiceAxis::of(60, 1, 16, 50'000, 0.0),
                   ServiceAxis::of(60, 1, 16, 0, 0.0)};  // batching on + off
  return spec;
}

std::string artifacts(const ExperimentSpec& spec, int threads,
                      std::uint64_t chunk) {
  ParallelExecutor::Options opts;
  opts.threads = threads;
  opts.chunk_size = chunk;
  const auto results = ParallelExecutor(opts).run(spec);
  ReportOptions ropts;
  ropts.service = true;
  ropts.net_stats = true;
  std::ostringstream out;
  write_cell_csv(out, results, ropts);
  write_cell_json(out, spec.name, results, ropts);
  return out.str();
}

TEST(ServiceDeterminism, SameConfigTwiceIsBitIdentical) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 9;
  cfg.clients = 50;
  cfg.ops_per_client = 2;
  const ServiceRunResult a = run_service(cfg);
  const ServiceRunResult b = run_service(cfg);

  ASSERT_EQ(a.slot_logs.size(), b.slot_logs.size());
  for (std::size_t p = 0; p < a.slot_logs.size(); ++p) {
    ASSERT_EQ(a.slot_logs[p].size(), b.slot_logs[p].size());
    for (std::size_t i = 0; i < a.slot_logs[p].size(); ++i) {
      EXPECT_EQ(a.slot_logs[p][i].slot, b.slot_logs[p][i].slot);
      EXPECT_EQ(a.slot_logs[p][i].batch, b.slot_logs[p][i].batch);
    }
  }
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.latency.raw_min(), b.latency.raw_min());
  EXPECT_EQ(a.latency.raw_max(), b.latency.raw_max());
  EXPECT_EQ(a.latency_hist.total(), b.latency_hist.total());
}

TEST(ServiceDeterminism, ArtifactsByteIdenticalAcrossThreadsAndGrain) {
  const ExperimentSpec spec = service_spec();
  // Batching on/off are cells of the same grid here, so this also pins
  // "threads 1 vs 4 byte-identical decided aggregates" for both policies.
  const std::string t1 = artifacts(spec, 1, 1024);
  const std::string t4 = artifacts(spec, 4, 1024);
  const std::string t4_fine = artifacts(spec, 4, 1);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t4_fine);
}

TEST(ServiceDeterminism, LatencyHistogramMergeIsOrderInvariant) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.clients = 30;
  std::vector<obs::LogHistogram> shards;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    cfg.seed = seed;
    shards.push_back(run_service(cfg).latency_hist);
  }
  obs::LogHistogram fwd;
  for (const auto& h : shards) fwd.merge(h);
  obs::LogHistogram rev;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) rev.merge(*it);
  EXPECT_EQ(fwd.total(), rev.total());
  for (double q : {50.0, 99.0, 99.9}) {
    EXPECT_EQ(fwd.percentile(q), rev.percentile(q));
  }
}

TEST(ServiceDeterminism, ReportedPercentilesNeverExceedTheMaximum) {
  // A skewed sample: most ops fast, a tail just above 2^20 ns. Interpolating
  // inside the tail's [2^20, 2^21) bucket lands far above the largest
  // sample; the report clamps to the exact moments kept beside the
  // histogram.
  obs::LogHistogram hist;
  ExactMoments mo;
  for (int i = 0; i < 1000; ++i) {
    hist.add(100);
    mo.add(100);
  }
  for (int i = 0; i < 50; ++i) {
    hist.add(1'100'000);
    mo.add(1'100'000);
  }
  ASSERT_GT(hist.percentile(99), mo.max());  // the overshoot guarded here
  for (const double q : {99.0, 99.9}) {
    const std::string text = format_percentile(hist, mo, q);
    const double v = std::strtod(text.c_str(), nullptr);
    EXPECT_LE(v, mo.max()) << "q=" << q;
    EXPECT_GE(v, mo.min()) << "q=" << q;
  }

  // Every service object of a real report: p99 <= p999 <= max.
  const std::string doc = artifacts(service_spec(), 1, 1024);
  const auto number_after = [&doc](const std::string& key, std::size_t& at) {
    at = doc.find(key, at);
    EXPECT_NE(at, std::string::npos) << key;
    at += key.size();
    return std::strtod(doc.c_str() + at, nullptr);
  };
  int objects = 0;
  for (std::size_t at = doc.find("\"p99\":"); at != std::string::npos;
       at = doc.find("\"p99\":", at)) {
    const double p99 = number_after("\"p99\":", at);
    const double p999 = number_after("\"p999\":", at);
    const double max = number_after("\"max\":", at);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, max);
    ++objects;
  }
  EXPECT_GT(objects, 0);
}

/// The service CSV and JSON of `results`.
std::string service_report(const std::vector<CellResult>& results) {
  ReportOptions ropts;
  ropts.service = true;
  std::ostringstream out;
  write_cell_csv(out, results, ropts);
  write_cell_json(out, "svc-det", results, ropts);
  return out.str();
}

TEST(ServiceDeterminism, ServiceMetricsMergeIsOrderInvariant) {
  const ExperimentSpec spec = service_spec();
  const auto cells = spec.expand();
  std::vector<RunRecord> records;
  std::uint64_t ops = 0;
  for (std::uint64_t k = 0; k < cells[0].runs; ++k) {
    const ServiceRunConfig cfg = cells[0].service_run_config(k);
    records.push_back(extract_service_record(k, cfg.seed, run_service(cfg)));
    ops += records.back().service.latency.count();
  }
  // All records in one accumulator vs one record per chunk, folded forward
  // and backward.
  CellAccumulator whole, fwd, rev;
  for (const auto& r : records) {
    whole.add(r);
    CellAccumulator chunk;
    chunk.add(r);
    fwd.merge(chunk);
  }
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    CellAccumulator chunk;
    chunk.add(*it);
    rev.merge(chunk);
  }
  EXPECT_EQ(whole.svc_ops.count(), records.size());
  EXPECT_GT(ops, 0u);
  for (const obs::ObsId id :
       {obs::ObsId::kSvcLatencyNs, obs::ObsId::kSvcBatchWaitNs,
        obs::ObsId::kSvcSeqWaitNs, obs::ObsId::kSvcConsensusNs}) {
    EXPECT_EQ(whole.obs.moments(id).count(), ops) << obs::obs_id_name(id);
    EXPECT_EQ(whole.obs.histogram(id).total(), ops) << obs::obs_id_name(id);
  }
  const auto report = [&](CellAccumulator acc) {
    std::vector<CellResult> results;
    results.emplace_back(cells[0], std::move(acc));
    return service_report(results);
  };
  const std::string expected = report(whole);
  EXPECT_EQ(report(fwd), expected);
  EXPECT_EQ(report(rev), expected);
}

/// Rewrites a checkpoint into the form writers used before the pooled
/// service ids: each block's "o svc_*" lines become the "s l"/"s h" and
/// "s c"/"s ch" lines that followed the service metric pairs.
std::string to_legacy_service_lines(const std::string& text) {
  const struct {
    const char* id;
    const char* moments;
    const char* hist;
  } kLegacy[] = {
      {"o svc_latency_ns ", "s l", "s h"},
      {"o svc_batch_wait_ns ", "s c bwait", "s ch bwait"},
      {"o svc_seq_wait_ns ", "s c qwait", "s ch qwait"},
      {"o svc_consensus_ns ", "s c cons", "s ch cons"},
  };
  std::string out;
  std::string tail;  // the block's legacy lines, written before "done"
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    bool moved = false;
    for (const auto& l : kLegacy) {
      if (line.rfind(l.id, 0) != 0) continue;
      const std::size_t h = line.find(" h ");
      const std::string moments = line.substr(
          std::string(l.id).size(), h - std::string(l.id).size());
      tail += std::string(l.moments) + ' ' + moments + '\n';
      tail += std::string(l.hist) + line.substr(h + 2) + '\n';
      moved = true;
      break;
    }
    if (moved) continue;
    if (line.rfind("done ", 0) == 0) {
      out += tail;
      tail.clear();
    }
    out += line + '\n';
  }
  return out;
}

TEST(ServiceDeterminism, CheckpointRoundTripsTheServiceBlock) {
  const ExperimentSpec spec = service_spec();
  const auto cells = spec.expand();
  ParallelExecutor::Options opts;
  opts.threads = 1;
  const std::uint64_t fingerprint = grid_fingerprint(cells);

  std::ostringstream ckpt;
  write_checkpoint_header(ckpt, fingerprint);
  const auto direct = ParallelExecutor(opts).run(spec);
  for (const auto& res : direct) {
    append_checkpoint_chunk(ckpt, res.cell.index, 0, res.runs(), res.acc);
  }
  const std::string text = ckpt.str();
  EXPECT_NE(text.find("\no svc_latency_ns "), std::string::npos);
  EXPECT_EQ(text.find("\ns l "), std::string::npos);

  const auto reload = [&](const std::string& file) {
    std::istringstream in(file);
    CheckpointData loaded = load_checkpoint_data(in, fingerprint);
    EXPECT_EQ(loaded.chunks.size(), cells.size());
    std::vector<CellResult> restored;
    for (auto& [index, list] : loaded.chunks) {
      EXPECT_EQ(list.size(), 1u);
      restored.emplace_back(cells[index], std::move(list.at(0).acc));
    }
    return service_report(restored);
  };
  const std::string expected = service_report(direct);
  EXPECT_EQ(reload(text), expected);

  // The same cells in the older "s l"/"s h"/"s c"/"s ch" form load onto
  // the pooled ids and report the same bytes.
  const std::string legacy = to_legacy_service_lines(text);
  ASSERT_EQ(legacy.find("\no svc_"), std::string::npos);
  ASSERT_NE(legacy.find("\ns ch cons "), std::string::npos);
  EXPECT_EQ(reload(legacy), expected);
}

}  // namespace
}  // namespace hyco
