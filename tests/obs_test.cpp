// Observability layer (src/obs/): the two determinism invariants — metrics
// collection is out of band (metrics-on and metrics-off sweeps emit
// byte-identical default artifacts at any thread count) and aggregation is
// merge-order-invariant — plus the pieces around them: phase-timing
// observer semantics against a fake clock, structured trace export
// round-trips (JSONL and binary), the health snapshot JSON schema,
// checkpoint "o"-line round-trips with tolerance for pre-observability
// files, and line-atomic concurrent logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/executor.h"
#include "exp/report.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/phase_timings.h"
#include "obs/trace_export.h"
#include "sim/trace.h"
#include "util/log.h"

namespace hyco {
namespace {

ExperimentSpec obs_spec(bool collect) {
  ExperimentSpec spec;
  spec.name = "obs-test";
  spec.algorithms = {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin};
  spec.layouts = {ClusterLayout::even(4, 2)};
  spec.runs_per_cell = 24;
  spec.base_seed = 5;
  spec.collect_obs = collect;
  return spec;
}

std::string run_and_render(const ExperimentSpec& spec, unsigned threads,
                           const ReportOptions& ropts) {
  const auto cells = spec.expand();
  CollectingSink sink(cells, {});
  ParallelExecutor::Options opts;
  opts.threads = threads;
  ParallelExecutor(opts).run(cells, sink);
  auto results = sink.take_results();
  std::ostringstream os;
  write_cell_csv(os, results, ropts);
  write_cell_json(os, spec.name, results, ropts);
  return os.str();
}

// ---- out-of-band invariant --------------------------------------------------

TEST(ObsInvariant, MetricsOnAndOffEmitIdenticalDefaultArtifacts) {
  // The tentpole contract: installing the phase-timing observer must not
  // perturb a single run (it never touches seeded RNG), so the *default*
  // artifact bytes are identical whether metrics are collected or not —
  // across thread counts too.
  const std::string off = run_and_render(obs_spec(false), 1, {});
  const std::string on = run_and_render(obs_spec(true), 8, {});
  EXPECT_EQ(off, on);
}

TEST(ObsInvariant, OptInColumnsAreThreadCountInvariant) {
  ReportOptions ropts;
  ropts.net_stats = true;
  ropts.phase_metrics = true;
  const std::string t1 = run_and_render(obs_spec(true), 1, ropts);
  const std::string t8 = run_and_render(obs_spec(true), 8, ropts);
  EXPECT_EQ(t1, t8);
  // The opt-in sections are actually there (strict append, base untouched).
  EXPECT_NE(t1.find("delivered_sum"), std::string::npos);
  EXPECT_NE(t1.find("phase1_ns_p95"), std::string::npos);
  EXPECT_NE(t1.find("\"coin_flips\""), std::string::npos);
  const std::string base = run_and_render(obs_spec(true), 1, {});
  EXPECT_EQ(t1.find(base.substr(0, 32)), 0u);  // same leading base header
  EXPECT_EQ(base.find("delivered_sum"), std::string::npos);

  // Every latency entry's percentiles lie inside its exact [min, max], in
  // order (log-bucket interpolation alone can overshoot the maximum).
  const auto number = [](const std::string& obj, const std::string& key) {
    const std::size_t at = obj.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " in " << obj;
    return std::strtod(obj.c_str() + at + key.size() + 3, nullptr);
  };
  std::size_t entries = 0;
  for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
    const auto id = static_cast<obs::ObsId>(i);
    if (!obs::obs_id_is_latency(id)) continue;
    const std::string open = "\"" + std::string(obs::obs_id_name(id)) + "\":{";
    for (std::size_t at = t1.find(open); at != std::string::npos;
         at = t1.find(open, at + 1)) {
      const std::string obj = t1.substr(at, t1.find('}', at) - at);
      const double mn = number(obj, "min"), p50 = number(obj, "p50");
      const double p95 = number(obj, "p95"), mx = number(obj, "max");
      EXPECT_TRUE(mn <= p50 && p50 <= p95 && p95 <= mx) << obj;
      ++entries;
    }
  }
  EXPECT_EQ(entries, 5u * obs_spec(true).cell_count());
}

// ---- merge-order invariance -------------------------------------------------

TEST(LogHistogram, BucketsMergeAndPercentilesAreOrderInvariant) {
  obs::LogHistogram a;
  for (const std::uint64_t v : {0ull, 1ull, 1ull, 3ull, 8ull}) a.add(v);
  obs::LogHistogram b;
  for (const std::uint64_t v : {9ull, 1000ull, 1ull << 40}) b.add(v);

  EXPECT_EQ(a.bucket(0), 1u);  // the zero
  EXPECT_EQ(a.bucket(1), 2u);  // the ones (bit width 1)
  EXPECT_EQ(a.bucket(2), 1u);  // 3
  EXPECT_EQ(a.bucket(4), 1u);  // 8
  EXPECT_EQ(a.total(), 5u);

  obs::LogHistogram ab = a;
  ab.merge(b);
  obs::LogHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.total(), 8u);
  for (std::size_t i = 0; i < obs::LogHistogram::kBuckets; ++i) {
    EXPECT_EQ(ab.bucket(i), ba.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(ab.percentile(50), ba.percentile(50));
  EXPECT_EQ(ab.percentile(95), ba.percentile(95));
  EXPECT_EQ(ab.percentile(0), 0.0);   // the zero sample anchors p0
  EXPECT_GT(ab.percentile(100), 0.0);
  EXPECT_EQ(obs::LogHistogram{}.percentile(95), 0.0);  // empty = 0
}

TEST(ObsAccumulator, MergeGroupingNeverChangesAggregates) {
  // Three sample batches folded as ((a+b)+c) and (a+(c+b)) must agree on
  // every moment and every histogram bucket — the property the distributed
  // coordinator's arbitrary fold order rests on.
  const auto sample = [](std::uint64_t k) {
    obs::ObsSample s;
    s[obs::ObsId::kDelivered] = 10 * k;
    s[obs::ObsId::kCoinFlips] = k % 3;
    s[obs::ObsId::kPhase1Ns] = 1000 + 7 * k;
    s[obs::ObsId::kPhase2Ns] = k * k;
    s[obs::ObsId::kDecideSpreadNs] = k;
    return s;
  };
  obs::ObsAccumulator a, b, c;
  for (std::uint64_t k = 0; k < 5; ++k) a.add(sample(k));
  for (std::uint64_t k = 5; k < 9; ++k) b.add(sample(k));
  for (std::uint64_t k = 9; k < 17; ++k) c.add(sample(k));

  obs::ObsAccumulator left = a;
  left.merge(b);
  left.merge(c);
  obs::ObsAccumulator right = a;
  obs::ObsAccumulator cb = c;
  cb.merge(b);
  right.merge(cb);

  for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
    const auto id = static_cast<obs::ObsId>(i);
    EXPECT_EQ(left.moments(id).count(), right.moments(id).count());
    EXPECT_EQ(left.sum(id), right.sum(id));
    EXPECT_EQ(left.moments(id).raw_min(), right.moments(id).raw_min());
    EXPECT_EQ(left.moments(id).raw_max(), right.moments(id).raw_max());
    if (obs::obs_id_is_latency(id)) {
      for (std::size_t j = 0; j < obs::LogHistogram::kBuckets; ++j) {
        EXPECT_EQ(left.histogram(id).bucket(j), right.histogram(id).bucket(j));
      }
    }
  }
  EXPECT_EQ(left.sum(obs::ObsId::kDelivered), 10ull * (16 * 17 / 2));
}

// ---- phase-timing observer --------------------------------------------------

TEST(PhaseTimings, CreditsClosedSpansToTheirPhases) {
  SimTime now = 0;
  obs::PhaseTimings pt(2, [&now] { return now; });

  pt.on_phase_begin(0, 1, Phase::One);
  now = 10;
  pt.on_phase_begin(0, 1, Phase::Two);  // closes phase 1: +10
  now = 25;
  pt.on_phase_begin(0, 2, Phase::One);  // closes phase 2: +15
  now = 31;
  pt.on_decide(0, 2);  // closes phase 1: +6; first decision at 31

  pt.on_phase_begin(1, 1, Phase::One);  // p1 opens at 31...
  now = 40;
  pt.on_decide(1, 1);  // ...+9 to phase 1; last decision at 40

  EXPECT_EQ(pt.phase1_ns(), 10u + 6u + 9u);
  EXPECT_EQ(pt.phase2_ns(), 15u);
  EXPECT_EQ(pt.decided_count(), 2u);
  obs::ObsSample s;
  pt.fill(s);
  EXPECT_EQ(s[obs::ObsId::kPhase1Ns], 25u);
  EXPECT_EQ(s[obs::ObsId::kPhase2Ns], 15u);
  EXPECT_EQ(s[obs::ObsId::kDecideSpreadNs], 9u);  // 40 - 31
}

TEST(PhaseTimings, OpenPhaseAtEndOfRunIsDiscarded) {
  SimTime now = 0;
  obs::PhaseTimings pt(1, [&now] { return now; });
  pt.on_phase_begin(0, 1, Phase::One);
  now = 1000;  // never closed (parked/crashed process)
  obs::ObsSample s;
  pt.fill(s);
  EXPECT_EQ(s[obs::ObsId::kPhase1Ns], 0u);
  EXPECT_EQ(s[obs::ObsId::kDecideSpreadNs], 0u);  // nobody decided
}

// ---- structured trace export ------------------------------------------------

Trace sample_trace() {
  Trace t(16);
  t.enable(true);
  t.record({.at = 5,
            .kind = TraceKind::Send,
            .proc = 1,
            .peer = 2,
            .mid = 7,
            .msg = Message::phase_msg(1, Phase::One, Estimate::Zero)});
  t.set_context(7);
  t.record({.at = 230, .kind = TraceKind::Decide, .proc = 0, .round = 1});
  t.clear_context();
  return t;
}

obs::TraceMeta sample_meta() {
  obs::TraceMeta meta;
  meta.cell = 3;
  meta.run = 12;
  meta.seed = 0xDEADBEEFCAFEULL;
  meta.label = "hybrid-CC n=8 \"quoted\" label";
  return meta;
}

void expect_roundtrip(const obs::TraceMeta& meta,
                      const std::vector<TraceRecord>& records) {
  EXPECT_EQ(meta.cell, 3u);
  EXPECT_EQ(meta.run, 12u);
  EXPECT_EQ(meta.seed, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(meta.label, "hybrid-CC n=8 \"quoted\" label");
  EXPECT_EQ(meta.recorded, 2u);
  EXPECT_FALSE(meta.truncated);
  std::vector<TraceRecord> want;
  sample_trace().for_each([&](const TraceRecord& r) { want.push_back(r); });
  EXPECT_EQ(records, want);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].parent, 7u);
}

TEST(TraceExport, JsonlRoundTripsExactly) {
  std::stringstream ss;
  obs::write_trace_jsonl(ss, sample_meta(), sample_trace());
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"schema\":\"hyco-trace/3\""), std::string::npos);
  EXPECT_NE(text.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(text.find("\"truncated\":false"), std::string::npos);

  obs::TraceMeta meta;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(obs::read_trace_jsonl(ss, meta, records));
  expect_roundtrip(meta, records);

  std::istringstream garbage("{\"schema\":\"wrong/9\"}\n");
  EXPECT_FALSE(obs::read_trace_jsonl(garbage, meta, records));
}

TEST(TraceExport, BinaryRoundTripsExactly) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  obs::write_trace_binary(ss, sample_meta(), sample_trace());

  obs::TraceMeta meta;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(obs::read_trace_binary(ss, meta, records));
  expect_roundtrip(meta, records);

  std::istringstream garbage("HYTRCB9\nxxxxxxxx");
  EXPECT_FALSE(obs::read_trace_binary(garbage, meta, records));
}

TEST(TraceExport, RingWrapExportsTrailingWindowOldestFirst) {
  Trace t(4);
  t.enable(true);
  for (int i = 0; i < 10; ++i) {
    t.record({.at = i, .kind = TraceKind::Decide, .proc = 0});
  }
  std::stringstream ss;
  obs::write_trace_jsonl(ss, {}, t);
  obs::TraceMeta meta;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(obs::read_trace_jsonl(ss, meta, records));
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().at, 6);
  EXPECT_EQ(records.back().at, 9);
  EXPECT_EQ(meta.recorded, 10u);
  EXPECT_TRUE(meta.truncated);
}

// ---- health snapshot JSON ---------------------------------------------------

TEST(Health, JsonCarriesSchemaProgressAndWorkers) {
  obs::HealthSnapshot snap;
  snap.elapsed_ms = 1500;
  snap.runs_total = 800;
  snap.runs_folded = 200;
  snap.runs_resumed = 40;
  snap.cells_total = 4;
  snap.cells_completed = 1;
  snap.chunks_total = 20;
  snap.chunks_pending = 10;
  snap.chunks_leased = 5;
  snap.chunks_folded = 5;
  snap.fold_rate_per_sec = 133.25;
  snap.eta_sec = 4.5;
  snap.lease_expiries = 2;
  snap.requeued_chunks = 6;
  snap.worker_reconnects = 3;
  snap.checkpoint_flush_ms = 75;
  obs::WorkerHealth w;
  w.id = 7;
  w.welcomed = true;
  w.connected_ms = 1200;
  w.last_seen_ms = 30;
  w.active_leases = 2;
  w.folded_chunks = 3;
  w.folded_runs = 96;
  w.reconnects = 1;
  w.oldest_lease_ms = 420;
  snap.workers.push_back(w);

  const std::string json = obs::render_health_json(snap);
  EXPECT_NE(json.find("\"schema\":\"hyco-health/2\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":800"), std::string::npos);
  EXPECT_NE(json.find("\"folded\":200"), std::string::npos);
  EXPECT_NE(json.find("\"resumed\":40"), std::string::npos);
  EXPECT_NE(json.find("\"fold_rate_per_sec\":133.250"), std::string::npos);
  EXPECT_NE(json.find("\"eta_sec\":4.500"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":{\"lease_expiries\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"requeued_chunks\":6"), std::string::npos);
  EXPECT_NE(json.find("\"worker_reconnects\":3"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint_flush_ms\":75"), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"welcomed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"folded_runs\":96"), std::string::npos);
  EXPECT_NE(json.find("\"reconnects\":1"), std::string::npos);
  EXPECT_NE(json.find("\"oldest_lease_ms\":420"), std::string::npos);

  const std::string http = obs::render_http_response(json);
  EXPECT_EQ(http.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(http.find("Content-Type: application/json\r\n"),
            std::string::npos);
  std::ostringstream want_len;
  want_len << "Content-Length: " << json.size() << "\r\n";
  EXPECT_NE(http.find(want_len.str()), std::string::npos);
  EXPECT_NE(http.find("\r\n\r\n" + json), std::string::npos);
}

// ---- checkpoint "o" lines ---------------------------------------------------

TEST(ObsCheckpoint, AccumulatorStateRoundTripsObsMetrics) {
  ExperimentSpec spec = obs_spec(true);
  const auto cells = spec.expand();
  CellAccumulator acc(MetricStats::kDefaultReservoir,
                      CellAccumulator::kDefaultFailureCap);
  for (std::uint64_t k = 0; k < 10; ++k) {
    const RunConfig cfg = cells[0].run_config(k);
    acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
  }
  ASSERT_GT(acc.obs.sum(obs::ObsId::kDelivered), 0u);
  ASSERT_GT(acc.obs.sum(obs::ObsId::kPhase1Ns), 0u);

  std::stringstream state;
  write_accumulator_state(state, acc);
  EXPECT_NE(state.str().find("o delivered "), std::string::npos);
  EXPECT_NE(state.str().find("o phase1_ns "), std::string::npos);

  CellAccumulator back(MetricStats::kDefaultReservoir,
                       CellAccumulator::kDefaultFailureCap);
  ASSERT_TRUE(read_accumulator_state(state, back));
  for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
    const auto id = static_cast<obs::ObsId>(i);
    EXPECT_EQ(back.obs.moments(id).count(), acc.obs.moments(id).count());
    EXPECT_EQ(back.obs.sum(id), acc.obs.sum(id));
    EXPECT_EQ(back.obs.moments(id).raw_min(), acc.obs.moments(id).raw_min());
    EXPECT_EQ(back.obs.moments(id).raw_max(), acc.obs.moments(id).raw_max());
    if (obs::obs_id_is_latency(id)) {
      for (std::size_t j = 0; j < obs::LogHistogram::kBuckets; ++j) {
        EXPECT_EQ(back.obs.histogram(id).bucket(j),
                  acc.obs.histogram(id).bucket(j));
      }
    }
  }
}

TEST(ObsCheckpoint, LoadsPreObservabilityStateWithoutObsLines) {
  // A checkpoint written before the obs layer existed has no "o" lines; it
  // must still load (with zeroed obs metrics), so old checkpoints resume.
  const auto cells = obs_spec(false).expand();
  CellAccumulator acc(MetricStats::kDefaultReservoir,
                      CellAccumulator::kDefaultFailureCap);
  for (std::uint64_t k = 0; k < 6; ++k) {
    const RunConfig cfg = cells[0].run_config(k);
    acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
  }
  std::stringstream state;
  write_accumulator_state(state, acc);
  std::string stripped;
  std::string line;
  while (std::getline(state, line)) {
    if (line.rfind("o ", 0) == 0) continue;  // drop every obs line
    stripped += line;
    stripped += '\n';
  }
  std::istringstream old_format(stripped);
  CellAccumulator back(MetricStats::kDefaultReservoir,
                       CellAccumulator::kDefaultFailureCap);
  EXPECT_TRUE(read_accumulator_state(old_format, back));
  EXPECT_EQ(back.obs.moments(obs::ObsId::kDelivered).count(), 0u);
  EXPECT_EQ(back.runs, 0u);  // runs come from block headers, not state
}

// ---- line-atomic logging ----------------------------------------------------

TEST(Log, ConcurrentWritersNeverInterleaveLines) {
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  const LogLevel old_level = Log::level();
  Log::set_level(LogLevel::Info);

  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        HYCO_INFO("thread=" << t << " line=" << i << " payload=" <<
                  std::string(64, static_cast<char>('a' + t)));
      }
    });
  }
  for (auto& w : writers) w.join();
  std::clog.rdbuf(old);
  Log::set_level(old_level);

  std::istringstream in(captured.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // Every line is exactly one whole record: one prefix, one thread's
    // homogeneous payload, no fragments spliced together.
    EXPECT_EQ(line.rfind("[INFO] thread=", 0), 0u) << line;
    const auto payload = line.find("payload=");
    ASSERT_NE(payload, std::string::npos) << line;
    const std::string body = line.substr(payload + 8);
    ASSERT_EQ(body.size(), 64u) << line;
    EXPECT_EQ(std::count(body.begin(), body.end(), body[0]), 64) << line;
  }
  EXPECT_EQ(lines, kThreads * kLines);
}

TEST(Log, ParseLogLevelAcceptsNamesCaseInsensitively) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("ERROR"), LogLevel::Error);
  EXPECT_FALSE(parse_log_level("loud").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
}

}  // namespace
}  // namespace hyco
