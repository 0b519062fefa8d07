#include "exp/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "coin/coin.h"
#include "exp/report.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

namespace {

constexpr const char* kMagic = "hyco-checkpoint";
constexpr const char* kVersion = "v1";

using U128 = ExactMoments::U128;

std::string u128_to_string(U128 v) {
  if (v == 0) return "0";
  std::string digits;
  while (v > 0) {
    digits.push_back(static_cast<char>('0' + static_cast<unsigned>(v % 10)));
    v /= 10;
  }
  return std::string(digits.rbegin(), digits.rend());
}

bool parse_u128(const std::string& s, U128& out) {
  if (s.empty() || s.size() > 39) return false;
  U128 v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const U128 prev = v;
    v = v * 10 + static_cast<unsigned>(c - '0');
    if (v < prev) return false;  // wrapped
  }
  out = v;
  return true;
}

/// Writes "count sum sumsq min max", the exact moments' raw state.
void write_moments(std::ostream& out, const ExactMoments& mo) {
  out << mo.count() << ' ' << u128_to_string(mo.raw_sum()) << ' '
      << u128_to_string(mo.raw_sumsq()) << ' ' << mo.raw_min() << ' '
      << mo.raw_max();
}

/// Inverse of write_moments().
bool read_moments(std::istream& in, ExactMoments& out) {
  std::uint64_t count = 0, mn = 0, mx = 0;
  std::string sum_s, sumsq_s;
  U128 sum = 0, sumsq = 0;
  if (!(in >> count >> sum_s >> sumsq_s >> mn >> mx) ||
      !parse_u128(sum_s, sum) || !parse_u128(sumsq_s, sumsq)) {
    return false;
  }
  out = ExactMoments::from_raw(count, sum, sumsq, mn, mx);
  return true;
}

/// Writes the histogram's bucket counts, each after a space.
void write_buckets(std::ostream& out, const obs::LogHistogram& hist) {
  for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
    out << ' ' << hist.bucket(b);
  }
}

/// Inverse of write_buckets().
bool read_buckets(std::istream& in, obs::LogHistogram& out) {
  std::array<std::uint64_t, obs::LogHistogram::kBuckets> counts{};
  for (auto& c : counts) {
    if (!(in >> c)) return false;
  }
  out = obs::LogHistogram::from_counts(counts);
  return true;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xCBF29CE484222325) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3;
  }
  return h;
}

void write_metric(std::ostream& out, const char* name, const MetricStats& m,
                  const char* prefix = "") {
  out << prefix << "m " << name << ' ';
  write_moments(out, m.moments());
  out << '\n';
  const ReservoirSample& res = m.reservoir();
  out << prefix << "r " << name << ' ' << res.capacity() << ' ' << res.size();
  for (const auto& e : res.entries()) {
    out << ' ' << e.priority << ':' << format_number(e.value);
  }
  out << '\n';
}

/// Parses one metric's m/r line pair. A reservoir of any capacity other
/// than MetricStats::kReservoirCapacity was built for another statistic,
/// so its block is rejected.
bool parse_metric_lines(std::istringstream& mline, std::istringstream& rline,
                        MetricStats& out) {
  ExactMoments moments;
  if (!read_moments(mline, moments)) return false;

  std::size_t cap = 0, n = 0;
  if (!(rline >> cap >> n)) return false;
  if (cap != MetricStats::kReservoirCapacity || n > cap) return false;
  ReservoirSample res(cap);
  for (std::size_t i = 0; i < n; ++i) {
    std::string entry;
    if (!(rline >> entry)) return false;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) return false;
    const std::string prio_s = entry.substr(0, colon);
    char* end = nullptr;
    const std::uint64_t prio = std::strtoull(prio_s.c_str(), &end, 10);
    if (end == prio_s.c_str() || *end != '\0') return false;
    const std::string val_s = entry.substr(colon + 1);
    end = nullptr;
    const double val = std::strtod(val_s.c_str(), &end);
    if (end == val_s.c_str() || *end != '\0') return false;
    res.add(prio, val);
  }
  out = MetricStats(moments, std::move(res));
  return true;
}

/// The pooled service ids by the names pre-registry writers gave them in
/// "s c"/"s ch" lines; "lat" stands for the unnamed "s l"/"s h" pair.
constexpr std::pair<const char*, obs::ObsId> kLegacyServiceIds[] = {
    {"lat", obs::ObsId::kSvcLatencyNs},
    {"bwait", obs::ObsId::kSvcBatchWaitNs},
    {"qwait", obs::ObsId::kSvcSeqWaitNs},
    {"cons", obs::ObsId::kSvcConsensusNs},
};

/// True when `l` opens a new block (the resync anchors of the loader).
bool is_block_header(const std::string& l) {
  std::istringstream probe(l);
  std::string k;
  return (probe >> k) && (k == "cell" || k == "chunk");
}

}  // namespace

std::uint64_t grid_fingerprint(const std::vector<ExperimentCell>& cells) {
  std::uint64_t h = mix64(0x4859C0, cells.size());
  h = mix64(h, MetricStats::kReservoirCapacity);
  h = mix64(h, CellAccumulator::kFailureCapacity);
  for (const ExperimentCell& c : cells) {
    h = mix64(h, c.index);
    h = mix64(h, fnv1a(c.label()));
    h = mix64(h, c.runs);
    h = mix64(h, c.base_seed);
    h = mix64(h, static_cast<std::uint64_t>(c.max_rounds));
    // Constants, but still mixed: dropping them would change every
    // fingerprint, refusing old checkpoints and dist workers.
    h = mix64(h, static_cast<std::uint64_t>(kStartJitter));
    h = mix64(h, static_cast<std::uint64_t>(c.inputs));
    h = mix64(h, static_cast<std::uint64_t>(kAdversaryBit));
    // Mixed only when set: metrics-off grids keep their pre-observability
    // fingerprints, so existing checkpoints stay resumable.
    if (c.collect_obs) h = mix64(h, 0x0B5E);
  }
  return h;
}

void write_checkpoint_header(std::ostream& out, std::uint64_t fingerprint) {
  out << kMagic << ' ' << kVersion << " grid " << fingerprint << '\n';
  out.flush();
}

void write_accumulator_state(std::ostream& out, const CellAccumulator& acc) {
  write_metric(out, "rounds", acc.rounds);
  write_metric(out, "msgs", acc.msgs);
  write_metric(out, "shm", acc.shm_proposals);
  write_metric(out, "objects", acc.objects);
  write_metric(out, "dtime", acc.decision_time);
  out << "f " << CellAccumulator::kFailureCapacity << ' '
      << acc.failures.size();
  for (const RunRecord& r : acc.failures) {
    out << ' ' << r.run << ',' << r.seed << ',' << (r.terminated ? 1 : 0)
        << ',' << (r.safe_ok ? 1 : 0) << ',' << (r.success ? 1 : 0) << ','
        << r.rounds << ',' << r.decision_time << ',' << r.msgs << ','
        << r.shm_proposals << ',' << r.consensus_objects << ',' << r.events
        << ',' << r.crashed;
  }
  out << '\n';
  // Observability metrics, one "o" line per id that has samples, in enum
  // order; latency ids append their log-histogram buckets after an "h"
  // marker. Every run samples the per-run ids, so only the pooled service
  // ids are ever left out. Readers consume these greedily after the "f"
  // line, so pre-observability checkpoints (no "o" lines) still load.
  for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
    const auto id = static_cast<obs::ObsId>(i);
    const ExactMoments& mo = acc.obs.moments(id);
    if (mo.count() == 0) continue;
    out << "o " << obs::obs_id_name(id) << ' ';
    write_moments(out, mo);
    if (obs::obs_id_is_latency(id)) {
      out << " h";
      write_buckets(out, acc.obs.histogram(id));
    }
    out << '\n';
  }
  // Service per-run scalars ("s ..." lines), written only when the cell ran
  // the service — plain consensus checkpoints stay byte-identical to
  // pre-service builds, and readers consume the block greedily like the
  // "o" lines, so both directions of version skew parse.
  if (acc.svc_ops.count() > 0) {
    out << "s a " << acc.svc_ops.count() << '\n';
    write_metric(out, "ops", acc.svc_ops, "s ");
    write_metric(out, "rate", acc.svc_rate, "s ");
    write_metric(out, "batches", acc.svc_batches, "s ");
    write_metric(out, "slots", acc.svc_slots, "s ");
  }
}

void append_checkpoint_chunk(std::ostream& out, std::uint64_t cell_index,
                             std::uint64_t begin, std::uint64_t end,
                             const CellAccumulator& acc) {
  out << "chunk " << cell_index << ' ' << begin << ' ' << end << ' '
      << acc.runs << ' ' << acc.terminated << ' ' << acc.violations << '\n';
  write_accumulator_state(out, acc);
  out << "done " << cell_index << ' ' << begin << ' ' << end << '\n';
  out.flush();
}

bool read_accumulator_state(std::istream& in, CellAccumulator& out,
                            std::string* stop_line) {
  std::string line;
  if (stop_line != nullptr) stop_line->clear();
  // Reads the next line into `ls` past its expected `head` (keyword and
  // any tags, each followed by one space); stores the line in `line` so a
  // mismatch can be handed back for resync.
  const auto next_line = [&](const std::string& head, std::istringstream& ls) {
    if (!std::getline(in, line)) {
      line.clear();
      return false;
    }
    if (line.compare(0, head.size(), head) != 0) return false;
    ls.clear();
    ls.str(line.substr(head.size()));
    return true;
  };
  const auto bail = [&] {
    if (stop_line != nullptr) *stop_line = line;
    return false;
  };
  // One metric's "m"/"r" line pair, each line opened by `prefix`.
  const auto metric = [&](const std::string& prefix, const std::string& name,
                          MetricStats& m) {
    std::istringstream mls, rls;
    return next_line(prefix + "m " + name + ' ', mls) &&
           next_line(prefix + "r " + name + ' ', rls) &&
           parse_metric_lines(mls, rls, m);
  };

  CellAccumulator built;
  if (!(metric("", "rounds", built.rounds) &&
        metric("", "msgs", built.msgs) &&
        metric("", "shm", built.shm_proposals) &&
        metric("", "objects", built.objects) &&
        metric("", "dtime", built.decision_time))) {
    return bail();
  }

  // Older writers put a round-histogram "h" line here; skip it.
  if (in.peek() == 'h') std::getline(in, line);

  // The failure ring; like the reservoirs, a ring of another capacity is
  // rejected.
  std::istringstream fls;
  if (!next_line("f ", fls)) return bail();
  std::size_t fcap = 0, fcount = 0;
  if (!(fls >> fcap >> fcount) || fcap != CellAccumulator::kFailureCapacity ||
      fcount > fcap) {
    return bail();
  }
  for (std::size_t i = 0; i < fcount; ++i) {
    std::string tok;
    if (!(fls >> tok)) return bail();
    RunRecord r;
    int t = 0, s = 0, su = 0;
    std::istringstream ts(tok);
    const auto eat = [&](auto& field) {
      if (!(ts >> field)) return false;
      if (ts.peek() == ',') ts.get();
      return true;
    };
    if (!(eat(r.run) && eat(r.seed) && eat(t) && eat(s) && eat(su) &&
          eat(r.rounds) && eat(r.decision_time) && eat(r.msgs) &&
          eat(r.shm_proposals) && eat(r.consensus_objects) &&
          eat(r.events) && eat(r.crashed))) {
      return bail();
    }
    r.terminated = t != 0;
    r.safe_ok = s != 0;
    r.success = su != 0;
    built.failures.push_back(r);
  }

  // Optional observability lines ("o <name> <count> <sum> <sumsq> <min>
  // <max> [h <buckets>]") — absent in pre-observability checkpoints.
  // Unknown metric names (a newer writer's appended ids) are skipped.
  while (in.peek() == 'o') {
    std::istringstream ols;
    std::string name;
    ExactMoments moments;
    if (!next_line("o ", ols) || !(ols >> name) ||
        !read_moments(ols, moments)) {
      return bail();
    }
    std::string marker;
    obs::LogHistogram hist;
    const bool have_hist = static_cast<bool>(ols >> marker);
    if (have_hist && (marker != "h" || !read_buckets(ols, hist))) {
      return bail();
    }
    for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
      const auto id = static_cast<obs::ObsId>(i);
      if (name != obs::obs_id_name(id)) continue;
      built.obs.moments(id) = moments;
      if (obs::obs_id_is_latency(id)) {
        if (!have_hist) return bail();
        built.obs.histogram(id) = hist;
      }
      break;
    }
  }

  // Optional service block, present only for cells that ran the replicated
  // service: "s a <service runs>", then m/r pairs for ops, rate, batches
  // and slots. Writers before the pooled kSvc*Ns ids followed these with
  // the per-op latencies, which load onto those ids: "s l"/"s h" hold the
  // client latency's moments/histogram, "s c"/"s ch" <component> those of
  // a component. Other "s" lines are skipped.
  if (in.peek() == 's') {
    std::istringstream als;
    std::uint64_t svc_runs = 0;
    if (!next_line("s a ", als) || !(als >> svc_runs) || svc_runs == 0 ||
        !metric("s ", "ops", built.svc_ops) ||
        built.svc_ops.count() != svc_runs ||
        !metric("s ", "rate", built.svc_rate) ||
        !metric("s ", "batches", built.svc_batches) ||
        !metric("s ", "slots", built.svc_slots)) {
      return bail();
    }
    while (in.peek() == 's') {
      std::istringstream ls;
      std::string kw, name = "lat";
      if (!next_line("s ", ls) || !(ls >> kw) ||
          ((kw == "c" || kw == "ch") && !(ls >> name))) {
        return bail();
      }
      const auto legacy = std::find_if(
          std::begin(kLegacyServiceIds), std::end(kLegacyServiceIds),
          [&](const auto& e) { return name == e.first; });
      if (legacy == std::end(kLegacyServiceIds)) continue;
      const obs::ObsId id = legacy->second;
      const bool ok = kw == "l" || kw == "c"
                          ? read_moments(ls, built.obs.moments(id))
                      : kw == "h" || kw == "ch"
                          ? read_buckets(ls, built.obs.histogram(id))
                          : true;
      if (!ok) return bail();
    }
  }

  out = std::move(built);
  return true;
}

void write_compacted_checkpoint(std::ostream& out, std::uint64_t fingerprint,
                                const CheckpointData& data) {
  write_checkpoint_header(out, fingerprint);
  for (const auto& [index, list] : data.chunks) {
    // `list` is sorted and overlap-free (load_checkpoint_data's contract);
    // fuse each maximal run of adjacent ranges into one block.
    std::size_t i = 0;
    while (i < list.size()) {
      CellAccumulator merged = list[i].acc;
      std::size_t j = i + 1;
      while (j < list.size() && list[j].begin == list[j - 1].end) {
        merged.merge(list[j].acc);
        ++j;
      }
      append_checkpoint_chunk(out, index, list[i].begin, list[j - 1].end,
                              merged);
      i = j;
    }
  }
}

CheckpointData load_checkpoint_data(std::istream& in,
                                    std::uint64_t expected_fingerprint) {
  std::string line;
  // Header: skip blank/garbage prefix lines (append-mode guard newlines).
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string magic, version, grid_kw;
    std::uint64_t fp = 0;
    if (ls >> magic >> version >> grid_kw >> fp && magic == kMagic &&
        version == kVersion && grid_kw == "grid") {
      HYCO_CHECK_MSG(fp == expected_fingerprint,
                     "checkpoint belongs to a different grid (fingerprint "
                         << fp << ", expected " << expected_fingerprint
                         << ") — refusing to resume");
      have_header = true;
      break;
    }
    HYCO_CHECK_MSG(false, "not a hyco checkpoint (bad header line)");
  }
  HYCO_CHECK_MSG(have_header, "checkpoint stream is empty");

  CheckpointData data;
  // Blocks. A block is accepted only when fully parsed through its "done"
  // trailer; anything malformed drops the current block and resyncs on the
  // next "cell"/"chunk" line. A bail-out may have just read the *next*
  // block's header (e.g. a partial block cut before its trailer, appended
  // to by a later session) — `carry` re-processes that line instead of
  // discarding the complete block that follows it.
  bool carry = false;
  for (;;) {
    if (!carry && !std::getline(in, line)) break;
    carry = false;
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw) || (kw != "cell" && kw != "chunk")) continue;
    const bool is_chunk = kw == "chunk";

    std::uint64_t index = 0, begin = 0, end = 0;
    std::uint64_t runs = 0, term = 0, viol = 0;
    if (is_chunk) {
      if (!(ls >> index >> begin >> end >> runs >> term >> viol)) continue;
    } else {
      // An older writer's finished-cell block: the chunk [0, runs).
      if (!(ls >> index >> runs >> term >> viol)) continue;
      end = runs;
    }
    if (begin >= end) continue;

    CellAccumulator acc;
    std::string stop;
    if (!read_accumulator_state(in, acc, &stop)) {
      carry = is_block_header(stop);
      line = stop;
      continue;
    }

    if (!std::getline(in, line)) break;
    std::istringstream dls(line);
    std::string done_kw;
    std::uint64_t done_idx = 0;
    bool trailer_ok = (dls >> done_kw >> done_idx) && done_kw == "done" &&
                      done_idx == index;
    if (trailer_ok && is_chunk) {
      std::uint64_t db = 0, de = 0;
      trailer_ok = (dls >> db >> de) && db == begin && de == end;
    }
    if (!trailer_ok) {
      carry = is_block_header(line);
      continue;
    }

    acc.runs = runs;
    acc.terminated = term;
    acc.violations = viol;
    data.chunks[index].push_back({begin, end, std::move(acc)});
  }

  // Per cell: sort chunk ranges and drop overlaps (a re-executed chunk that
  // raced its expired lease, a legacy cell block over its own trail, or
  // file corruption — folding both would count runs twice). First writer
  // wins, matching the coordinator's exactly-once ledger.
  for (auto& [index, list] : data.chunks) {
    (void)index;
    std::stable_sort(list.begin(), list.end(),
                     [](const ChunkCheckpoint& a, const ChunkCheckpoint& b) {
                       return a.begin != b.begin ? a.begin < b.begin
                                                 : a.end < b.end;
                     });
    std::vector<ChunkCheckpoint> kept;
    for (auto& c : list) {
      if (!kept.empty() && c.begin < kept.back().end) continue;
      kept.push_back(std::move(c));
    }
    list = std::move(kept);
  }
  return data;
}

ResumePlan plan_resume(const std::vector<ExperimentCell>& cells,
                       CheckpointData checkpoint) {
  ResumePlan plan;
  CheckpointData& ck = plan.checkpoint;
  ck = std::move(checkpoint);
  // A corrupted block could carry an out-of-grid index or range; drop it
  // and re-run that work instead of indexing out of bounds.
  for (auto it = ck.chunks.begin(); it != ck.chunks.end();) {
    auto& trail = it->second;
    if (it->first < cells.size()) {
      const std::uint64_t runs = cells[it->first].runs;
      std::erase_if(trail, [&](const ChunkCheckpoint& c) {
        return c.end > runs;
      });
    }
    it = it->first >= cells.size() || trail.empty() ? ck.chunks.erase(it)
                                                    : std::next(it);
  }

  for (std::uint64_t pos = 0; pos < cells.size(); ++pos) {
    HYCO_CHECK_MSG(cells[pos].index == pos,
                   "plan_resume: cell " << pos << " has index "
                                        << cells[pos].index
                                        << " (expected a whole grid)");
    const std::uint64_t runs = cells[pos].runs;
    plan.resumed_runs += runs;
    // The trail is sorted and overlap-free; its gaps are the complement.
    std::uint64_t cursor = 0;
    if (const auto trail = ck.chunks.find(pos); trail != ck.chunks.end()) {
      for (const ChunkCheckpoint& chunk : trail->second) {
        if (chunk.begin > cursor) {
          plan.spans.push_back({pos, cursor, chunk.begin});
        }
        cursor = chunk.end;
      }
    }
    if (cursor < runs) plan.spans.push_back({pos, cursor, runs});
  }
  for (const RunSpan& s : plan.spans) plan.resumed_runs -= s.length();
  return plan;
}

}  // namespace hyco
