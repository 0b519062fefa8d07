// hyco-trace: offline forensics over exported run traces ("hyco-trace/3",
// JSONL or binary — auto-detected). Subcommands:
//
//   stats         record counts, ring accounting, quorum-wait summary
//   provenance    per-Decide backward slice: the message set that carried
//                 each decision, and who sent the phase-1 support
//                 (--clusters s1,s2,.. maps senders onto contiguous clusters)
//   critical-path the latest-cause Deliver <- Send spine into each decision
//   anomalies     excess rounds, stalled quorums, message storms, causal
//                 integrity; exits 2 when a *safety* anomaly is present
//   export --chrome [-o FILE]
//                 Chrome trace-event JSON (Perfetto-loadable): one track per
//                 process, phase spans, flow arrows on causal send->deliver
//
// Exit codes: 0 ok, 1 usage/parse error, 2 safety anomalies (anomalies only).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/causal.h"
#include "obs/trace_export.h"
#include "sim/trace.h"
#include "util/csv.h"

namespace {

using hyco::ProcId;
using hyco::Round;
using hyco::SimTime;
using hyco::TraceKind;
using hyco::TraceRecord;
using hyco::obs::CausalGraph;
using hyco::obs::TraceMeta;

int usage() {
  std::cerr
      << "usage: hyco-trace <stats|provenance|critical-path|anomalies|"
         "export> [options] <trace-file>\n"
         "  provenance     [--clusters s1,s2,...]\n"
         "  anomalies      [--round-bound N] [--storm-factor F]\n"
         "  export         --chrome [-o FILE]\n";
  return 1;
}

/// Loads a trace file in either export format (binary magic probed first).
bool load_trace(const std::string& path, TraceMeta& meta,
                std::vector<TraceRecord>& records) {
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "hyco-trace: cannot open " << path << "\n";
      return false;
    }
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() == 8 && std::string(magic, 6) == "HYTRCB") {
      if (magic[6] != '3') {
        std::cerr << "hyco-trace: " << path << ": binary trace version "
                  << magic[6] << ", this build reads hyco-trace/3 only\n";
        return false;
      }
      in.seekg(0);
      if (hyco::obs::read_trace_binary(in, meta, records)) return true;
      std::cerr << "hyco-trace: " << path << ": malformed binary trace\n";
      return false;
    }
  }
  std::ifstream in(path);
  if (hyco::obs::read_trace_jsonl(in, meta, records)) return true;
  std::cerr << "hyco-trace: " << path
            << ": not a hyco-trace/3 file (jsonl or binary)\n";
  return false;
}

void print_header(const CausalGraph& g) {
  const TraceMeta& m = g.meta();
  std::cout << "trace: cell=" << m.cell << " run=" << m.run
            << " seed=" << m.seed << " label=\"" << m.label << "\"\n"
            << "records: " << g.records().size() << " held, " << m.recorded
            << " recorded" << (m.truncated ? "  [TRUNCATED RING]" : "")
            << "\n";
}

std::string describe(const CausalGraph& g, std::size_t i) {
  const TraceRecord& r = g.records()[i];
  std::ostringstream os;
  os << "#" << i << " t=" << r.at << " p" << r.proc << " "
     << hyco::to_cstring(r.kind) << " ";
  hyco::write_detail(os, r);
  if (r.mid != 0) os << " [m" << r.mid << "]";
  return os.str();
}

// ---- stats -----------------------------------------------------------------

int cmd_stats(const CausalGraph& g) {
  print_header(g);
  std::map<std::string, std::uint64_t> by_kind;
  ProcId max_proc = -1;
  SimTime t0 = 0, t1 = 0;
  for (const TraceRecord& r : g.records()) {
    ++by_kind[hyco::to_cstring(r.kind)];
    max_proc = std::max(max_proc, r.proc);
    if (t1 == 0 && t0 == 0) t0 = r.at;
    t0 = std::min(t0, r.at);
    t1 = std::max(t1, r.at);
  }
  std::cout << "span: [" << t0 << ", " << t1 << "] ns, procs: 0.."
            << max_proc << "\n";
  for (const auto& [k, c] : by_kind) std::cout << "  " << k << ": " << c << "\n";

  const auto waits = g.quorum_waits();
  std::uint64_t satisfied = 0, stalled = 0;
  std::uint64_t wait_sum = 0, slack_sum = 0;
  for (const auto& w : waits) {
    if (w.stalled) ++stalled;
    if (!w.satisfied) continue;
    ++satisfied;
    wait_sum += static_cast<std::uint64_t>(w.quorum - w.begin);
    if (w.last_arrival > w.quorum) {
      slack_sum += static_cast<std::uint64_t>(w.last_arrival - w.quorum);
    }
  }
  std::cout << "quorum windows: " << waits.size() << " (" << satisfied
            << " satisfied, " << stalled << " stalled)\n";
  if (satisfied > 0) {
    std::cout << "  mean wait to quorum: " << wait_sum / satisfied
              << " ns, mean post-quorum slack: " << slack_sum / satisfied
              << " ns\n";
  }
  std::cout << "decides: " << g.decides().size() << "\n";
  return 0;
}

// ---- provenance ------------------------------------------------------------

bool parse_cluster_sizes(const std::string& arg, std::vector<ProcId>& sizes) {
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) return false;
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || v <= 0) return false;
    sizes.push_back(static_cast<ProcId>(v));
  }
  return !sizes.empty();
}

int cluster_of(const std::vector<ProcId>& sizes, ProcId p) {
  ProcId acc = 0;
  for (std::size_t x = 0; x < sizes.size(); ++x) {
    acc += sizes[x];
    if (p < acc) return static_cast<int>(x);
  }
  return -1;
}

int cmd_provenance(const CausalGraph& g, const std::vector<ProcId>& sizes) {
  print_header(g);
  const auto decides = g.decides();
  if (decides.empty()) {
    std::cout << "no decisions in trace\n";
    return 0;
  }
  for (const std::size_t d : decides) {
    const auto p = g.provenance(d);
    std::cout << "decide: p" << p.proc << " r=" << p.round << " t=" << p.at;
    if (p.decided_est.has_value()) std::cout << " value=" << *p.decided_est;
    std::cout << "\n  slice: " << p.slice.size() << " events, "
              << p.support.size() << " supporting deliveries\n";
    std::cout << "  phase-1 support (r=" << p.round << "): ";
    if (p.phase1_senders.empty()) {
      std::cout << "(none in slice)";
    } else {
      for (const ProcId s : p.phase1_senders) {
        std::cout << "p" << s;
        if (!sizes.empty()) std::cout << "(C" << cluster_of(sizes, s) << ")";
        std::cout << " ";
      }
    }
    std::cout << "\n";
    if (!sizes.empty() && !p.phase1_senders.empty()) {
      std::vector<int> clusters;
      for (const ProcId s : p.phase1_senders) {
        const int c = cluster_of(sizes, s);
        if (std::find(clusters.begin(), clusters.end(), c) == clusters.end()) {
          clusters.push_back(c);
        }
      }
      std::sort(clusters.begin(), clusters.end());
      std::cout << "  carrying clusters:";
      for (const int c : clusters) std::cout << " C" << c;
      std::cout << "\n";
    }
    std::cout << "  est-consistent: " << (p.est_consistent ? "yes" : "NO")
              << "\n";
  }
  return 0;
}

// ---- critical-path ---------------------------------------------------------

int cmd_critical_path(const CausalGraph& g) {
  print_header(g);
  const auto decides = g.decides();
  if (decides.empty()) {
    std::cout << "no decisions in trace\n";
    return 0;
  }
  for (const std::size_t d : decides) {
    const auto path = g.critical_path(d);
    const SimTime t_end = g.records()[d].at;
    const SimTime t_begin = g.records()[path.front()].at;
    std::cout << "critical path into decide by p" << g.records()[d].proc
              << " (" << path.size() << " hops, " << (t_end - t_begin)
              << " ns):\n";
    SimTime prev = t_begin;
    for (const std::size_t i : path) {
      const SimTime dt = g.records()[i].at - prev;
      prev = g.records()[i].at;
      std::cout << "  +" << dt << "  " << describe(g, i) << "\n";
    }
  }
  return 0;
}

// ---- anomalies -------------------------------------------------------------

int cmd_anomalies(const CausalGraph& g, Round round_bound,
                  double storm_factor) {
  print_header(g);
  std::uint64_t safety = 0, warnings = 0;

  if (g.meta().truncated) {
    ++warnings;
    std::cout << "warning: ring truncated (" << g.meta().recorded
              << " recorded, " << g.records().size()
              << " held) — integrity checks limited to the window\n";
  }

  // Excess rounds: decisions beyond the expected-round bound. The paper's
  // algorithms decide in a small constant expected number of rounds; a
  // decision far past the bound marks a pathological seed worth replaying.
  for (const std::size_t d : g.decides()) {
    const Round r = g.records()[d].round;
    if (r > round_bound) {
      ++warnings;
      std::cout << "warning: excess-rounds: p" << g.records()[d].proc
                << " decided at r=" << r << " (bound " << round_bound
                << ")\n";
    }
  }

  // Stalled quorums: phase windows that never satisfied and never closed.
  for (const auto& w : g.quorum_waits()) {
    if (!w.stalled) continue;
    ++warnings;
    std::cout << "warning: stalled-quorum: p" << w.proc << " r=" << w.round
              << " ph=" << static_cast<int>(w.phase) << " open since t="
              << w.begin << " (" << w.arrivals_total << " arrivals)\n";
  }

  // Message storms: a round whose Send count dwarfs the median round's.
  std::map<Round, std::uint64_t> sends_per_round;
  for (const TraceRecord& r : g.records()) {
    if (r.kind == TraceKind::Send && r.msg.kind == hyco::MsgKind::Phase) {
      ++sends_per_round[r.msg.round];
    }
  }
  if (sends_per_round.size() >= 3) {
    std::vector<std::uint64_t> counts;
    for (const auto& [r, c] : sends_per_round) counts.push_back(c);
    std::sort(counts.begin(), counts.end());
    const std::uint64_t median = counts[counts.size() / 2];
    for (const auto& [r, c] : sends_per_round) {
      if (median > 0 &&
          static_cast<double>(c) >
              storm_factor * static_cast<double>(median)) {
        ++warnings;
        std::cout << "warning: message-storm: round " << r << " sent " << c
                  << " PHASE messages (median " << median << ")\n";
      }
    }
  }

  // Safety: causal integrity. A Deliver whose mid has no Send cannot happen
  // in a complete trace — the network records the Send when it schedules
  // the delivery. (Skipped under truncation: the Send may have been evicted.)
  if (!g.meta().truncated) {
    for (std::size_t i = 0; i < g.records().size(); ++i) {
      const TraceRecord& r = g.records()[i];
      if (r.kind == TraceKind::Deliver && r.mid != 0 &&
          g.send_of(r.mid) == CausalGraph::npos) {
        ++safety;
        std::cout << "SAFETY: dangling-delivery: " << describe(g, i) << "\n";
      }
    }
  }

  // Safety: all decisions must carry one value, and each slice's phase-2
  // support must match it.
  int decided_value = -2;
  for (const std::size_t d : g.decides()) {
    const auto p = g.provenance(d);
    if (!p.est_consistent) {
      ++safety;
      std::cout << "SAFETY: provenance-mismatch: p" << p.proc << " r="
                << p.round << " slice supports a different value\n";
    }
    if (!p.decided_est.has_value()) continue;
    if (decided_value == -2) {
      decided_value = *p.decided_est;
    } else if (decided_value != *p.decided_est) {
      ++safety;
      std::cout << "SAFETY: conflicting-decides: p" << p.proc << " decided "
                << *p.decided_est << " vs earlier " << decided_value << "\n";
    }
  }

  std::cout << "anomalies: safety=" << safety << " warnings=" << warnings
            << "\n";
  return safety > 0 ? 2 : 0;
}

// ---- export --chrome -------------------------------------------------------

/// A record's rendered detail, escaped for a JSON string.
std::string detail_json(const TraceRecord& r) {
  std::ostringstream os;
  hyco::write_detail(os, r);
  return hyco::json_escape(os.str());
}

/// Sim-time ns -> trace-event microseconds.
double ts_us(SimTime at) { return static_cast<double>(at) / 1000.0; }

int cmd_export_chrome(const CausalGraph& g, std::ostream& out) {
  char buf[64];
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    out << (first ? "\n  " : ",\n  ") << ev;
    first = false;
  };
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
         "\"hyco-trace/3\",\"label\":\""
      << hyco::json_escape(g.meta().label) << "\",\"seed\":" << g.meta().seed
      << "},\"traceEvents\":[";

  // Track names: one tid per process under pid 0.
  ProcId max_proc = 0;
  for (const TraceRecord& r : g.records()) max_proc = std::max(max_proc, r.proc);
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":"
       "\"hyco sim\"}}");
  for (ProcId p = 0; p <= max_proc; ++p) {
    std::ostringstream os;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << p
       << ",\"args\":{\"name\":\"p" << p << "\"}}";
    emit(os.str());
  }

  // Phase spans: PhaseStart -> next PhaseStart/Decide of the same process.
  std::map<ProcId, std::size_t> open;
  const auto close_span = [&](std::size_t begin_idx, SimTime end_at) {
    const TraceRecord& b = g.records()[begin_idx];
    std::snprintf(buf, sizeof(buf), "%.3f", ts_us(b.at));
    std::ostringstream os;
    os << "{\"name\":\"" << detail_json(b) << "\",\"cat\":\"phase\","
       << "\"ph\":\"X\",\"ts\":" << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f", ts_us(end_at - b.at));
    os << buf << ",\"pid\":0,\"tid\":" << b.proc << "}";
    emit(os.str());
  };
  for (std::size_t i = 0; i < g.records().size(); ++i) {
    const TraceRecord& r = g.records()[i];
    if (r.kind == TraceKind::PhaseStart || r.kind == TraceKind::Decide) {
      const auto it = open.find(r.proc);
      if (it != open.end()) {
        close_span(it->second, r.at);
        open.erase(it);
      }
      if (r.kind == TraceKind::PhaseStart) open[r.proc] = i;
    }
  }

  // Instant events for every record; flow arrows over send->deliver edges.
  for (std::size_t i = 0; i < g.records().size(); ++i) {
    const TraceRecord& r = g.records()[i];
    const ProcId tid = r.proc < 0 ? max_proc + 1 : r.proc;
    std::snprintf(buf, sizeof(buf), "%.3f", ts_us(r.at));
    {
      std::ostringstream os;
      os << "{\"name\":\"" << hyco::to_cstring(r.kind) << ": "
         << detail_json(r) << "\",\"cat\":\""
         << hyco::to_cstring(r.kind) << "\",\"ph\":\"i\",\"ts\":" << buf
         << ",\"pid\":0,\"tid\":" << tid << ",\"s\":\"t\"}";
      emit(os.str());
    }
    if (r.kind == TraceKind::Send && r.mid != 0 &&
        g.consume_of(r.mid) != CausalGraph::npos) {
      std::ostringstream os;
      os << "{\"name\":\"msg\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":"
         << r.mid << ",\"ts\":" << buf << ",\"pid\":0,\"tid\":" << tid
         << "}";
      emit(os.str());
    } else if (r.kind == TraceKind::Deliver && r.mid != 0 &&
               g.send_of(r.mid) != CausalGraph::npos) {
      std::ostringstream os;
      os << "{\"name\":\"msg\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\","
         << "\"id\":" << r.mid << ",\"ts\":" << buf << ",\"pid\":0,\"tid\":"
         << tid << "}";
      emit(os.str());
    }
  }
  out << "\n]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];

  std::string path;
  std::string out_path;
  std::vector<ProcId> cluster_sizes;
  Round round_bound = 8;
  double storm_factor = 8.0;
  bool chrome = false;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "hyco-trace: " << flag << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--chrome") {
      chrome = true;
    } else if (a == "-o") {
      out_path = next("-o");
    } else if (a == "--clusters") {
      if (!parse_cluster_sizes(next("--clusters"), cluster_sizes)) {
        std::cerr << "hyco-trace: bad --clusters (want s1,s2,...)\n";
        return 1;
      }
    } else if (a == "--round-bound") {
      round_bound = static_cast<Round>(std::atoll(next("--round-bound")));
    } else if (a == "--storm-factor") {
      storm_factor = std::atof(next("--storm-factor"));
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "hyco-trace: unknown option " << a << "\n";
      return 1;
    } else if (path.empty()) {
      path = a;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  TraceMeta meta;
  std::vector<TraceRecord> records;
  if (!load_trace(path, meta, records)) return 1;
  const CausalGraph g = CausalGraph::build(std::move(meta),
                                           std::move(records));

  if (cmd == "stats") return cmd_stats(g);
  if (cmd == "provenance") return cmd_provenance(g, cluster_sizes);
  if (cmd == "critical-path") return cmd_critical_path(g);
  if (cmd == "anomalies") return cmd_anomalies(g, round_bound, storm_factor);
  if (cmd == "export") {
    if (!chrome) {
      std::cerr << "hyco-trace: export requires --chrome\n";
      return 1;
    }
    if (out_path.empty()) return cmd_export_chrome(g, std::cout);
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "hyco-trace: cannot write " << out_path << "\n";
      return 1;
    }
    return cmd_export_chrome(g, out);
  }
  return usage();
}
