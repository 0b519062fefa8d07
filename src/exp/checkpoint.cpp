#include "exp/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "exp/report.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

namespace {

constexpr const char* kMagic = "hyco-checkpoint";
constexpr const char* kVersion = "v1";

// Sanity ceilings on file-supplied sizes: a corrupted size field must make
// the loader drop the block (the documented contract), not drive a
// multi-gigabyte allocation or an abort. Far above any configured value.
constexpr std::size_t kMaxReservoirCapacity = std::size_t{1} << 22;
constexpr std::size_t kMaxFailureCapacity = std::size_t{1} << 22;

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

bool parse_metric_lines(std::istringstream& mline, std::istringstream& rline,
                        MetricStats& out, std::size_t reservoir_capacity) {
  ExactMoments moments;
  if (!read_moments(mline, moments)) return false;

  std::size_t cap = 0, n = 0;
  if (!(rline >> cap >> n)) return false;
  if (cap != reservoir_capacity || n > cap) return false;
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

/// True when `l` opens a new block (the resync anchors of the loader).
bool is_block_header(const std::string& l) {
  std::istringstream probe(l);
  std::string k;
  return (probe >> k) && (k == "cell" || k == "chunk");
}

}  // namespace

std::uint64_t grid_fingerprint(const std::vector<ExperimentCell>& cells,
                               std::size_t reservoir_capacity,
                               std::size_t failure_capacity) {
  std::uint64_t h = mix64(0x4859C0, cells.size());
  h = mix64(h, reservoir_capacity);
  h = mix64(h, failure_capacity);
  for (const ExperimentCell& c : cells) {
    h = mix64(h, c.index);
    h = mix64(h, fnv1a(c.label()));
    h = mix64(h, c.runs);
    h = mix64(h, c.base_seed);
    h = mix64(h, static_cast<std::uint64_t>(c.max_rounds));
    h = mix64(h, static_cast<std::uint64_t>(c.start_jitter));
    h = mix64(h, static_cast<std::uint64_t>(c.inputs));
    h = mix64(h, static_cast<std::uint64_t>(c.adversary_bit));
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
  out << "f " << acc.failure_cap << ' ' << acc.failures.size();
  for (const RunRecord& r : acc.failures) {
    out << ' ' << r.run << ',' << r.seed << ',' << (r.terminated ? 1 : 0)
        << ',' << (r.safe_ok ? 1 : 0) << ',' << (r.success ? 1 : 0) << ','
        << r.rounds << ',' << r.decision_time << ',' << r.msgs << ','
        << r.shm_proposals << ',' << r.consensus_objects << ',' << r.events
        << ',' << r.crashed;
  }
  out << '\n';
  // Observability metrics, one "o" line per id in enum order; latency ids
  // append their log-histogram buckets after an "h" marker. Readers consume
  // these greedily after the "f" line, so pre-observability checkpoints
  // (no "o" lines) still load.
  for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
    const auto id = static_cast<obs::ObsId>(i);
    out << "o " << obs::obs_id_name(id) << ' ';
    write_moments(out, acc.obs.moments(id));
    if (obs::obs_id_is_latency(id)) {
      const obs::LogHistogram& hist = acc.obs.histogram(id);
      out << " h";
      for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
        out << ' ' << hist.bucket(b);
      }
    }
    out << '\n';
  }
  // Service-workload block ("s ..." lines), written only when the cell ran
  // the service — plain consensus checkpoints stay byte-identical to
  // pre-service builds, and readers consume the block greedily like the
  // "o" lines, so both directions of version skew parse.
  if (acc.svc.active_runs > 0) {
    out << "s a " << acc.svc.active_runs << '\n';
    write_metric(out, "ops", acc.svc.ops, "s ");
    write_metric(out, "rate", acc.svc.rate, "s ");
    write_metric(out, "batches", acc.svc.batches, "s ");
    write_metric(out, "slots", acc.svc.slots, "s ");
    out << "s l ";
    write_moments(out, acc.svc.latency);
    out << '\n';
    out << "s h";
    for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
      out << ' ' << acc.svc.latency_hist.bucket(b);
    }
    out << '\n';
    // Latency-attribution components, name-keyed moments ("s c") plus
    // histogram ("s ch") lines. Newer-writer lines a reader does not know
    // are skipped, so the pairs are append-only like the "o" block.
    const struct {
      const char* name;
      const ExactMoments* mo;
      const obs::LogHistogram* hist;
    } comps[3] = {
        {"bwait", &acc.svc.batch_wait, &acc.svc.batch_wait_hist},
        {"qwait", &acc.svc.seq_wait, &acc.svc.seq_wait_hist},
        {"cons", &acc.svc.consensus, &acc.svc.consensus_hist},
    };
    for (const auto& c : comps) {
      out << "s c " << c.name << ' ';
      write_moments(out, *c.mo);
      out << '\n';
      out << "s ch " << c.name;
      for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
        out << ' ' << c.hist->bucket(b);
      }
      out << '\n';
    }
  }
}

void append_checkpoint_cell(std::ostream& out, std::uint64_t cell_index,
                            const CellAccumulator& acc) {
  out << "cell " << cell_index << ' ' << acc.runs << ' ' << acc.terminated
      << ' ' << acc.violations << '\n';
  write_accumulator_state(out, acc);
  out << "done " << cell_index << '\n';
  out.flush();
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
  // Reads the next line and checks its keyword (and tag when asked); stores
  // the line in `line` so a mismatch can be handed back for resync.
  const auto next_line = [&](const char* want, std::istringstream& out_ls,
                             std::string* tag = nullptr) {
    if (!std::getline(in, line)) {
      line.clear();
      return false;
    }
    out_ls.clear();
    out_ls.str(line);
    std::string k;
    if (!(out_ls >> k) || k != want) return false;
    if (tag != nullptr && !(out_ls >> *tag)) return false;
    return true;
  };
  const auto bail = [&] {
    if (stop_line != nullptr) *stop_line = line;
    return false;
  };

  // The reservoir capacity is read off the first metric's r-line and the
  // failure cap off the f-line, so metrics parse into temporaries and the
  // accumulator is assembled at the end.
  std::size_t rcap = 0;
  const char* names[5] = {"rounds", "msgs", "shm", "objects", "dtime"};
  MetricStats parsed[5] = {MetricStats(1), MetricStats(1), MetricStats(1),
                           MetricStats(1), MetricStats(1)};
  for (int i = 0; i < 5; ++i) {
    std::istringstream mls, rls;
    std::string mtag, rtag;
    if (!(next_line("m", mls, &mtag) && mtag == names[i] &&
          next_line("r", rls, &rtag) && rtag == names[i])) {
      return bail();
    }
    if (i == 0) {
      // Reservoir capacity is the token after the tag.
      std::istringstream probe(rls.str());
      std::string k, t;
      probe >> k >> t >> rcap;
      if (rcap < 1 || rcap > kMaxReservoirCapacity) return bail();
    }
    if (!parse_metric_lines(mls, rls, parsed[i], rcap)) return bail();
  }

  // Older writers put a round-histogram "h" line here; skip it.
  if (in.peek() == 'h') std::getline(in, line);

  std::istringstream fls;
  if (!next_line("f", fls)) return bail();
  std::size_t fcap = 0, fcount = 0;
  if (!(fls >> fcap >> fcount) || fcount > fcap ||
      fcap > kMaxFailureCapacity) {
    return bail();
  }
  std::vector<RunRecord> fails;
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
    fails.push_back(r);
  }

  // Optional observability lines ("o <name> <count> <sum> <sumsq> <min>
  // <max> [h <buckets>]") — absent in pre-observability checkpoints.
  // Unknown metric names (a newer writer's appended ids) are skipped.
  obs::ObsAccumulator obs_parsed;
  while (in.peek() == 'o') {
    std::istringstream ols;
    std::string name;
    if (!next_line("o", ols, &name)) return bail();
    ExactMoments moments;
    if (!read_moments(ols, moments)) return bail();
    std::string marker;
    std::array<std::uint64_t, obs::LogHistogram::kBuckets> hcounts{};
    bool have_hist = false;
    if (ols >> marker) {
      if (marker != "h") return bail();
      for (auto& c : hcounts) {
        if (!(ols >> c)) return bail();
      }
      have_hist = true;
    }
    for (std::size_t i = 0; i < obs::kObsIdCount; ++i) {
      const auto id = static_cast<obs::ObsId>(i);
      if (name != obs::obs_id_name(id)) continue;
      obs_parsed.moments(id) = moments;
      if (obs::obs_id_is_latency(id)) {
        if (!have_hist) return bail();
        obs_parsed.histogram(id) = obs::LogHistogram::from_counts(hcounts);
      }
      break;
    }
  }

  // Optional service block ("s ..." lines) — present only for cells that
  // ran the replicated service. Fixed line order: a, m/r × {ops, rate,
  // batches, slots}, l, h.
  std::uint64_t svc_active = 0;
  MetricStats svc_parsed[4] = {MetricStats(1), MetricStats(1), MetricStats(1),
                               MetricStats(1)};
  ExactMoments svc_latency;
  std::array<std::uint64_t, obs::LogHistogram::kBuckets> svc_hist{};
  ExactMoments svc_comp[3];
  std::array<std::uint64_t, obs::LogHistogram::kBuckets> svc_comp_hist[3] = {};
  if (in.peek() == 's') {
    const auto next_svc = [&](const char* want, std::istringstream& out_ls,
                              std::string* tag = nullptr) {
      if (!std::getline(in, line)) {
        line.clear();
        return false;
      }
      out_ls.clear();
      out_ls.str(line);
      std::string s0, s1;
      if (!(out_ls >> s0 >> s1) || s0 != "s" || s1 != want) return false;
      if (tag != nullptr && !(out_ls >> *tag)) return false;
      return true;
    };
    std::istringstream als;
    if (!next_svc("a", als) || !(als >> svc_active) || svc_active == 0) {
      return bail();
    }
    const char* snames[4] = {"ops", "rate", "batches", "slots"};
    for (int i = 0; i < 4; ++i) {
      std::istringstream mls, rls;
      std::string mtag, rtag;
      if (!(next_svc("m", mls, &mtag) && mtag == snames[i] &&
            next_svc("r", rls, &rtag) && rtag == snames[i])) {
        return bail();
      }
      if (!parse_metric_lines(mls, rls, svc_parsed[i], rcap)) return bail();
    }
    std::istringstream lls;
    if (!next_svc("l", lls) || !read_moments(lls, svc_latency)) return bail();
    std::istringstream shls;
    if (!next_svc("h", shls)) return bail();
    for (auto& c : svc_hist) {
      if (!(shls >> c)) return bail();
    }
    // Optional latency-attribution components ("s c <name> ..." moments,
    // "s ch <name> ..." histograms) — absent in older checkpoints; unknown
    // names (a newer writer's) are skipped.
    while (in.peek() == 's') {
      if (!std::getline(in, line)) {
        line.clear();
        break;
      }
      std::istringstream cls(line);
      std::string s0, ckw, cname;
      if (!(cls >> s0 >> ckw >> cname) || s0 != "s") return bail();
      const int ci = cname == "bwait" ? 0
                     : cname == "qwait" ? 1
                     : cname == "cons" ? 2
                                       : -1;
      if (ckw == "c") {
        ExactMoments moments;
        if (!read_moments(cls, moments)) return bail();
        if (ci >= 0) svc_comp[ci] = moments;
      } else if (ckw == "ch") {
        std::array<std::uint64_t, obs::LogHistogram::kBuckets> tmp{};
        for (auto& c : tmp) {
          if (!(cls >> c)) return bail();
        }
        if (ci >= 0) svc_comp_hist[ci] = tmp;
      }
      // Other "s <kw>" lines: skipped (forward compatibility).
    }
  }

  CellAccumulator built(rcap, fcap);
  built.rounds = parsed[0];
  built.msgs = parsed[1];
  built.shm_proposals = parsed[2];
  built.objects = parsed[3];
  built.decision_time = parsed[4];
  built.failures = std::move(fails);
  built.obs = obs_parsed;
  if (svc_active > 0) {
    built.svc.active_runs = svc_active;
    built.svc.ops = svc_parsed[0];
    built.svc.rate = svc_parsed[1];
    built.svc.batches = svc_parsed[2];
    built.svc.slots = svc_parsed[3];
    built.svc.latency = svc_latency;
    built.svc.latency_hist = obs::LogHistogram::from_counts(svc_hist);
    built.svc.batch_wait = svc_comp[0];
    built.svc.batch_wait_hist = obs::LogHistogram::from_counts(svc_comp_hist[0]);
    built.svc.seq_wait = svc_comp[1];
    built.svc.seq_wait_hist = obs::LogHistogram::from_counts(svc_comp_hist[1]);
    built.svc.consensus = svc_comp[2];
    built.svc.consensus_hist = obs::LogHistogram::from_counts(svc_comp_hist[2]);
  }
  out = std::move(built);
  return true;
}

void write_compacted_checkpoint(std::ostream& out, std::uint64_t fingerprint,
                                const CheckpointData& data) {
  write_checkpoint_header(out, fingerprint);
  for (const auto& [index, acc] : data.cells) {
    append_checkpoint_cell(out, index, acc);
  }
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
      if (begin >= end) continue;
    } else {
      if (!(ls >> index >> runs >> term >> viol)) continue;
    }

    CellAccumulator acc(1, 1);
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
    if (is_chunk) {
      data.chunks[index].push_back({begin, end, std::move(acc)});
    } else {
      acc.finalize();
      data.cells.insert_or_assign(index, std::move(acc));
    }
  }

  // Chunk blocks of completed cells are redundant: the cell block holds the
  // merged whole.
  for (const auto& [index, acc] : data.cells) {
    (void)acc;
    data.chunks.erase(index);
  }
  // Per cell: sort chunk ranges and drop overlaps (a re-executed chunk that
  // raced its expired lease, or file corruption — folding both would count
  // runs twice). First writer wins, matching the coordinator's
  // exactly-once ledger.
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

std::map<std::uint64_t, CellAccumulator> load_checkpoint(
    std::istream& in, std::uint64_t expected_fingerprint) {
  return load_checkpoint_data(in, expected_fingerprint).cells;
}

ResumePlan plan_resume(const std::vector<ExperimentCell>& cells,
                       CheckpointData checkpoint) {
  ResumePlan plan;
  CheckpointData& ck = plan.checkpoint;
  ck = std::move(checkpoint);
  // A corrupted block could carry an out-of-grid index or range; drop it
  // and re-run that work instead of indexing out of bounds.
  std::erase_if(ck.cells, [&](const auto& kv) {
    return kv.first >= cells.size();
  });
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
    if (ck.cells.contains(pos)) continue;
    const auto trail = ck.chunks.find(pos);
    if (trail == ck.chunks.end()) {
      plan.spans.push_back({pos, 0, runs});
      continue;
    }
    // The trail is sorted and overlap-free; its gaps are the complement.
    const std::size_t first_gap = plan.spans.size();
    std::uint64_t cursor = 0;
    for (const ChunkCheckpoint& chunk : trail->second) {
      if (chunk.begin > cursor) plan.spans.push_back({pos, cursor, chunk.begin});
      cursor = chunk.end;
    }
    if (cursor < runs) plan.spans.push_back({pos, cursor, runs});
    if (plan.spans.size() > first_gap) continue;
    // Killed between the last chunk and the cell block: the trail is the
    // whole cell, and the compacted rewrite lands it as a cell block.
    CellAccumulator acc = std::move(trail->second.front().acc);
    for (std::size_t i = 1; i < trail->second.size(); ++i) {
      acc.merge(trail->second[i].acc);
    }
    acc.finalize();
    ck.cells.emplace(pos, std::move(acc));
    ck.chunks.erase(trail);
  }
  for (const RunSpan& s : plan.spans) plan.resumed_runs -= s.length();
  return plan;
}

}  // namespace hyco
