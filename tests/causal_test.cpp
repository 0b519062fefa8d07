// Tests for the causal forensics layer (src/obs/causal.{h,cpp}) and the
// trace readers it feeds: happens-before reconstruction, quorum-wait
// windows, critical paths, decision provenance, hyco-trace/3 round trips of
// real runs in both formats, version and enum-range rejection, reader fuzz
// (truncated / garbage / hostile inputs must fail cleanly, never crash or
// over-allocate), and the JSONL-vs-binary identity of everything the graph
// derives. Also pins the service-run latency attribution:
// components sum exactly to the client latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "obs/causal.h"
#include "obs/trace_export.h"
#include "scenario/scenario.h"
#include "service/service_runner.h"
#include "sim/trace.h"

namespace hyco {
namespace {

// ---- hand-built records -----------------------------------------------------

TraceRecord msg_rec(TraceKind kind, ProcId proc, ProcId peer, SimTime at,
                    std::uint64_t mid, Message m, std::uint64_t parent = 0) {
  return {.at = at,
          .kind = kind,
          .proc = proc,
          .peer = peer,
          .mid = mid,
          .parent = parent,
          .msg = m};
}

Message phase(Round r, Phase ph) {
  return Message::phase_msg(r, ph, Estimate::Zero);
}

// ---- hand-built graph edges -------------------------------------------------

TEST(CausalGraph, LinksSendsToConsumersAndParents) {
  // p0 sends (mid 5) -> p1 delivers it and, under that context, sends
  // (mid 9) -> p0 delivers that and decides.
  std::vector<TraceRecord> rs;
  rs.push_back(msg_rec(TraceKind::Send, 0, 1, 10, 5, phase(1, Phase::One)));
  rs.push_back(
      msg_rec(TraceKind::Deliver, 1, 0, 20, 5, phase(1, Phase::One)));
  rs.push_back(
      msg_rec(TraceKind::Send, 1, 0, 20, 9, phase(1, Phase::Two), 5));
  rs.push_back(
      msg_rec(TraceKind::Deliver, 0, 1, 30, 9, phase(1, Phase::Two)));
  rs.push_back({.at = 30,
                .kind = TraceKind::Decide,
                .proc = 0,
                .round = 1,
                .parent = 9});

  const obs::CausalGraph g = obs::CausalGraph::build({}, rs);
  EXPECT_EQ(g.send_of(5), 0u);
  EXPECT_EQ(g.consume_of(5), 1u);
  EXPECT_EQ(g.send_of(9), 2u);
  EXPECT_EQ(g.consume_of(9), 3u);
  EXPECT_EQ(g.send_of(1234), obs::CausalGraph::npos);

  // The Send under p1's delivery context chains to that delivery.
  const std::vector<std::size_t> c2 = g.causes(2);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(c2[0], 1u);
  // The decide's slice reaches all the way back to the first send.
  const std::vector<std::size_t> slice = g.backward_slice(4);
  EXPECT_EQ(slice, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  // Critical path alternates Decide <- Deliver <- Send <- Deliver <- Send.
  const std::vector<std::size_t> path = g.critical_path(4);
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  const std::vector<std::size_t> dec = g.decides();
  ASSERT_EQ(dec.size(), 1u);
  const obs::CausalGraph::Provenance prov = g.provenance(dec[0]);
  EXPECT_EQ(prov.proc, 0);
  EXPECT_EQ(prov.support, (std::vector<std::size_t>{1, 3}));
  ASSERT_EQ(prov.phase1_senders.size(), 1u);
  EXPECT_EQ(prov.phase1_senders[0], 0);
  EXPECT_TRUE(prov.est_consistent);
}

// ---- readers: v3 round trips, version and range checks, fuzz ---------------

std::vector<TraceRecord> held(const Trace& t) {
  std::vector<TraceRecord> out;
  t.for_each([&](const TraceRecord& r) { out.push_back(r); });
  return out;
}

std::string jsonl_of(const Trace& t) {
  std::ostringstream os;
  obs::write_trace_jsonl(os, {}, t);
  return os.str();
}

std::string binary_of(const Trace& t) {
  std::ostringstream os(std::ios::out | std::ios::binary);
  obs::write_trace_binary(os, {}, t);
  return os.str();
}

bool read_jsonl(const std::string& text, std::vector<TraceRecord>& records) {
  std::istringstream in(text);
  obs::TraceMeta meta;
  return obs::read_trace_jsonl(in, meta, records);
}

bool read_binary(const std::string& bytes,
                 std::vector<TraceRecord>& records) {
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  obs::TraceMeta meta;
  return obs::read_trace_binary(in, meta, records);
}

/// Records every network and observer shape: lost, partitioned and
/// receiver-crashed drops, a mid-broadcast crash, phases, quorums, decides.
Trace faulty_consensus_trace() {
  RunConfig cfg(ClusterLayout::even(8, 4));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.seed = 0x7FA7;
  cfg.crashes = CrashPlan::none(8);
  cfg.crashes.specs[2] = CrashSpec::on_broadcast(1, 3);
  cfg.crashes.specs[6] = CrashSpec::at_time(150);
  cfg.scenario.link.loss = 0.05;
  cfg.scenario.partitions.push_back(parse_partition_spec("procs:7@300..never"));
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  (void)run_consensus(cfg);
  return trace;
}

/// Records the four service kinds.
Trace service_trace() {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 0x5E8;
  cfg.clients = 40;
  cfg.ops_per_client = 2;
  cfg.batch_max = 8;
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  (void)run_service(cfg);
  return trace;
}

TEST(TraceReaders, JsonlAndBinaryDecodeRealRunsToEqualRecords) {
  std::set<TraceKind> kinds;
  std::set<DropCause> causes;
  for (const Trace& trace : {faulty_consensus_trace(), service_trace()}) {
    const std::vector<TraceRecord> want = held(trace);
    ASSERT_FALSE(want.empty());
    std::vector<TraceRecord> jr, br;
    ASSERT_TRUE(read_jsonl(jsonl_of(trace), jr));
    ASSERT_TRUE(read_binary(binary_of(trace), br));
    EXPECT_EQ(jr, want);
    EXPECT_EQ(br, want);
    for (const TraceRecord& r : want) {
      kinds.insert(r.kind);
      causes.insert(r.cause);
    }
  }
  // Between them the two runs exercise every kind and every drop cause.
  EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kTraceKindLast) + 1);
  EXPECT_EQ(causes.size(), static_cast<std::size_t>(kDropCauseLast) + 1);
}

TEST(TraceReaders, BinaryExportsOfOneRunAreByteIdentical) {
  EXPECT_EQ(binary_of(faulty_consensus_trace()),
            binary_of(faulty_consensus_trace()));
}

TEST(TraceReaders, RejectVersionTwoInput) {
  std::vector<TraceRecord> records;
  EXPECT_FALSE(read_jsonl(
      "{\"schema\":\"hyco-trace/2\",\"cell\":0,\"run\":0,\"seed\":0,"
      "\"label\":\"x\",\"records\":1,\"recorded\":1,\"truncated\":false}\n"
      "{\"at\":5,\"kind\":\"send\",\"proc\":0,\"mid\":0,\"parent\":0,"
      "\"detail\":\"PHASE(r=1,ph1,est=0) -> p1\"}\n",
      records));
  std::string v2 = binary_of(service_trace());
  ASSERT_TRUE(read_binary(v2, records));
  v2[6] = '2';  // HYTRCB2
  EXPECT_FALSE(read_binary(v2, records));
}

TEST(TraceReaders, RejectOutOfRangeEnumsInEitherFormat) {
  Trace t(1);
  TraceRecord drop = msg_rec(TraceKind::Drop, 1, 2, 5, 0,
                             phase(1, Phase::One));
  drop.cause = DropCause::Lost;
  t.record(drop);
  const std::string jsonl = jsonl_of(t);
  const std::string binary = binary_of(t);
  std::vector<TraceRecord> records;
  ASSERT_TRUE(read_jsonl(jsonl, records));
  ASSERT_TRUE(read_binary(binary, records));

  const struct {
    const char* field;
    std::int64_t bad;
  } cases[] = {
      {"kind", static_cast<std::int64_t>(kTraceKindLast) + 1},
      {"cause", static_cast<std::int64_t>(kDropCauseLast) + 1},
      {"msg_kind", 0},
      {"msg_phase", 3},
      {"msg_est", 3},
      {"phase", 0},
  };
  const std::size_t fields = obs::kTraceFields.size();
  for (const auto& c : cases) {
    const std::string key = std::string("\"") + c.field + "\":";
    std::string j = jsonl;
    const std::size_t at = j.find(key, j.find('\n')) + key.size();
    j.replace(at, j.find_first_of(",}", at) - at, std::to_string(c.bad));
    EXPECT_FALSE(read_jsonl(j, records)) << "jsonl " << c.field;

    const std::size_t index = static_cast<std::size_t>(
        std::find_if(obs::kTraceFields.begin(), obs::kTraceFields.end(),
                     [&](const char* f) { return std::string(f) == c.field; }) -
        obs::kTraceFields.begin());
    ASSERT_LT(index, fields);
    std::string b = binary;
    std::memcpy(&b[b.size() - (fields - index) * sizeof(std::int64_t)],
                &c.bad, sizeof(c.bad));
    EXPECT_FALSE(read_binary(b, records)) << "binary " << c.field;
  }
}

TEST(TraceReaderFuzz, JsonlRejectsHostileInputsWithoutCrashing) {
  std::vector<TraceRecord> records;
  const char* bad[] = {
      "",
      "\n",
      "not json at all",
      "{\"schema\":\"hyco-trace/1\",\"cell\":0}",   // old schema version
      "{\"schema\":\"hyco-trace/3\"}",              // missing fields
      "{\"schema\":\"hyco-trace/3\",\"cell\":0,\"run\":0,\"seed\":0,"
      "\"label\":\"x\",\"records\":1,\"recorded\":1,\"truncated\":maybe}",
      "{\"schema\":\"hyco-trace/3\",\"cell\":0,\"run\":0,\"seed\":0,"
      "\"label\":\"x\",\"records\":1,\"recorded\":1,\"truncated\":false}\n"
      "{\"at\":5,\"kind\":\"send\"}",               // kind by name
      "{\"schema\":\"hyco-trace/3\",\"cell\":0,\"run\":0,\"seed\":0,"
      "\"label\":\"x\",\"records\":1,\"recorded\":1,\"truncated\":false}\n"
      "{\"at\":5,\"kind\":0",                       // cut mid-record
  };
  for (const char* text : bad) {
    EXPECT_FALSE(read_jsonl(text, records)) << "accepted: " << text;
  }

  // A valid file, then every cut of it short of its final newline must
  // fail cleanly.
  Trace t(1);
  t.record(msg_rec(TraceKind::Send, 1, 2, 5, 3, phase(1, Phase::One)));
  const std::string good = jsonl_of(t);
  ASSERT_TRUE(read_jsonl(good, records));
  for (std::size_t cut = 0; cut + 1 < good.size(); ++cut) {
    EXPECT_FALSE(read_jsonl(good.substr(0, cut), records)) << "cut " << cut;
  }
}

TEST(TraceReaderFuzz, BinaryRejectsHostileInputsWithoutCrashing) {
  std::vector<TraceRecord> records;
  const auto reject = [&](const std::string& bytes, const char* why) {
    EXPECT_FALSE(read_binary(bytes, records)) << why;
  };

  reject("", "empty stream");
  reject("HYT", "cut magic");
  reject("HYTRCB1\n", "old magic version");
  reject("HYTRCB3\n", "magic only, no header");
  reject(std::string("HYTRCB3\n") + std::string(20, '\xff'),
         "garbage header");

  // A valid stream, then every truncation of it must fail cleanly.
  Trace t(8);
  t.record(msg_rec(TraceKind::Send, 1, 2, 5, 3, phase(1, Phase::One)));
  t.record(msg_rec(TraceKind::Deliver, 2, 1, 9, 3, phase(1, Phase::One)));
  const std::string good = binary_of(t);
  ASSERT_TRUE(read_binary(good, records));
  ASSERT_EQ(records.size(), 2u);
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    reject(good.substr(0, cut), "truncated stream");
  }

  // Corrupt interior bytes: a hostile kind byte or truncated flag must be
  // rejected, and a hostile record count must not over-allocate.
  for (std::size_t i = 8; i < good.size(); ++i) {
    std::string mutated = good;
    mutated[i] = '\xee';
    (void)read_binary(mutated, records);  // must not crash
  }
}

// ---- real-run forensics: jsonl and binary feed the graph identically --------

RunConfig traced_config(Trace* sink) {
  RunConfig cfg(ClusterLayout::even(5, 2));
  cfg.seed = 77;
  cfg.enable_trace = true;
  cfg.trace_sink = sink;
  return cfg;
}

std::string provenance_digest(const obs::CausalGraph& g) {
  std::ostringstream os;
  for (const std::size_t d : g.decides()) {
    const obs::CausalGraph::Provenance p = g.provenance(d);
    os << 'p' << p.proc << " r" << p.round << " at" << p.at << " slice"
       << p.slice.size() << " support" << p.support.size() << " senders";
    for (const ProcId s : p.phase1_senders) os << ' ' << s;
    os << " est" << (p.decided_est ? *p.decided_est : -9) << " ok"
       << p.est_consistent << '\n';
    for (const std::size_t i : g.critical_path(d)) os << i << ',';
    os << '\n';
  }
  return os.str();
}

TEST(CausalGraph, RealRunProvenanceIdenticalAcrossFormats) {
  Trace trace(1 << 16);
  const RunResult r = run_consensus(traced_config(&trace));
  ASSERT_TRUE(r.success());
  ASSERT_GT(trace.size(), 0u);

  std::stringstream js;
  obs::write_trace_jsonl(js, {}, trace);
  std::stringstream bs(std::ios::in | std::ios::out | std::ios::binary);
  obs::write_trace_binary(bs, {}, trace);

  obs::TraceMeta jm, bm;
  std::vector<TraceRecord> jr, br;
  ASSERT_TRUE(obs::read_trace_jsonl(js, jm, jr));
  ASSERT_TRUE(obs::read_trace_binary(bs, bm, br));
  ASSERT_EQ(jr.size(), br.size());

  const obs::CausalGraph jg = obs::CausalGraph::build(jm, jr);
  const obs::CausalGraph bg = obs::CausalGraph::build(bm, br);
  ASSERT_FALSE(jg.decides().empty());
  EXPECT_EQ(provenance_digest(jg), provenance_digest(bg));
}

TEST(CausalGraph, RealRunDecidesHaveConsistentSupportedProvenance) {
  Trace trace(1 << 16);
  const RunResult r = run_consensus(traced_config(&trace));
  ASSERT_TRUE(r.success());

  std::stringstream ss;
  obs::write_trace_jsonl(ss, {}, trace);
  obs::TraceMeta meta;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(obs::read_trace_jsonl(ss, meta, records));
  const obs::CausalGraph g = obs::CausalGraph::build(meta, records);

  const std::vector<std::size_t> decides = g.decides();
  ASSERT_EQ(decides.size(), 5u);  // every process decides
  std::set<int> values;
  // The earliest decide rests on its own quorum, so its slice must carry
  // the phase-1 support of the deciding round. (Later decides may be
  // DECIDE-assisted at an earlier local round, where the slice holds the
  // assister's history instead.)
  EXPECT_FALSE(g.provenance(decides.front()).phase1_senders.empty());
  for (const std::size_t d : decides) {
    const obs::CausalGraph::Provenance p = g.provenance(d);
    EXPECT_EQ(p.decide_index, d);
    EXPECT_GE(p.proc, 0);
    // A decision rests on messages it actually consumed.
    EXPECT_FALSE(p.slice.empty());
    EXPECT_FALSE(p.support.empty());
    ASSERT_TRUE(p.decided_est.has_value());
    EXPECT_TRUE(p.est_consistent);
    values.insert(*p.decided_est);
    // The critical path ends at the decide and is causally ordered.
    const std::vector<std::size_t> path = g.critical_path(d);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), d);
    for (std::size_t k = 1; k < path.size(); ++k) {
      EXPECT_LE(records[path[k - 1]].at, records[path[k]].at);
    }
  }
  // Agreement, recovered purely from the trace.
  EXPECT_EQ(values.size(), 1u);
}

TEST(CausalGraph, RealRunQuorumWaitsAreSatisfiedAndOrdered) {
  Trace trace(1 << 16);
  const RunResult r = run_consensus(traced_config(&trace));
  ASSERT_TRUE(r.success());

  std::stringstream ss;
  obs::write_trace_jsonl(ss, {}, trace);
  obs::TraceMeta meta;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(obs::read_trace_jsonl(ss, meta, records));
  const obs::CausalGraph g = obs::CausalGraph::build(meta, records);

  const std::vector<obs::CausalGraph::QuorumWait> waits = g.quorum_waits();
  ASSERT_FALSE(waits.empty());
  std::uint64_t satisfied = 0;
  for (const auto& w : waits) {
    if (!w.satisfied) continue;
    ++satisfied;
    EXPECT_GE(w.quorum, w.begin);
    EXPECT_GE(w.last_arrival, 0);
    // The quorum never waits past the last arrival it counted.
    EXPECT_LE(w.arrivals_at_quorum, w.arrivals_total);
    EXPECT_GT(w.arrivals_at_quorum, 0u);
  }
  EXPECT_GT(satisfied, 0u);
}

// ---- service attribution ----------------------------------------------------

TEST(ServiceTrace, RecordsMilestonesAndDecomposesLatencyExactly) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 11;
  cfg.clients = 50;
  cfg.ops_per_client = 2;
  cfg.batch_max = 16;
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  const ServiceRunResult r = run_service(cfg);
  ASSERT_TRUE(r.success());

  // The three components cover every completed op and sum exactly to the
  // total client latency (integer arithmetic, no estimation).
  EXPECT_EQ(r.batch_wait.count(), r.ops_completed);
  EXPECT_EQ(r.seq_wait.count(), r.ops_completed);
  EXPECT_EQ(r.consensus.count(), r.ops_completed);
  EXPECT_EQ(r.batch_wait.raw_sum() + r.seq_wait.raw_sum() +
                r.consensus.raw_sum(),
            r.latency.raw_sum());
  EXPECT_EQ(r.batch_wait_hist.total(), r.ops_completed);

  std::uint64_t ops = 0, flushes = 0, slots = 0, delivers = 0;
  trace.for_each([&](const TraceRecord& rec) {
    switch (rec.kind) {
      case TraceKind::SvcOp: ++ops; break;
      case TraceKind::SvcFlush: ++flushes; break;
      case TraceKind::SvcSlot: ++slots; break;
      case TraceKind::SvcDeliver: ++delivers; break;
      default: break;
    }
  });
  EXPECT_EQ(ops, r.ops_submitted);
  EXPECT_EQ(flushes, r.batches);
  EXPECT_GT(slots, 0u);
  EXPECT_GT(delivers, 0u);
}

TEST(ServiceTrace, TracedServiceRunMatchesUntracedResults) {
  ServiceRunConfig base(ClusterLayout::even(4, 2));
  base.seed = 21;
  base.clients = 40;
  base.batch_max = 8;
  const ServiceRunResult plain = run_service(base);

  ServiceRunConfig traced = base;
  Trace trace(1 << 16);
  traced.enable_trace = true;
  traced.trace_sink = &trace;
  const ServiceRunResult t = run_service(traced);

  // Tracing is strictly out of band: identical outcomes, byte for byte.
  EXPECT_EQ(plain.ops_completed, t.ops_completed);
  EXPECT_EQ(plain.batches, t.batches);
  EXPECT_EQ(plain.slots, t.slots);
  EXPECT_EQ(plain.end_time, t.end_time);
  EXPECT_EQ(plain.events, t.events);
  EXPECT_EQ(plain.latency.raw_sum(), t.latency.raw_sum());
  EXPECT_EQ(plain.slot_logs, t.slot_logs);
  EXPECT_GT(trace.recorded(), 0u);
}

}  // namespace
}  // namespace hyco
