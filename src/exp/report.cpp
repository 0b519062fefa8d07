#include "exp/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/assert.h"
#include "util/csv.h"

namespace hyco {

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN literals
  char buf[64];
  // std::to_chars emits the shortest representation that round-trips —
  // locale-free, so identical on every run.
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string format_percentile(const obs::LogHistogram& hist,
                              const ExactMoments& mo, double q) {
  return format_number(std::clamp(hist.percentile(q), mo.min(), mo.max()));
}

namespace {

void append_summary_fields(std::vector<std::string>& fields,
                           const MetricStats& s) {
  fields.push_back(format_number(s.mean()));
  fields.push_back(format_number(s.percentile(50)));
  fields.push_back(format_number(s.percentile(95)));
  fields.push_back(format_number(s.max()));
}

void write_summary_json(std::ostream& out, const char* key,
                        const MetricStats& s) {
  out << '"' << key << "\":{\"count\":" << s.count()
      << ",\"mean\":" << format_number(s.mean())
      << ",\"sd\":" << format_number(s.stddev())
      << ",\"min\":" << format_number(s.min())
      << ",\"p50\":" << format_number(s.percentile(50))
      << ",\"p95\":" << format_number(s.percentile(95))
      << ",\"max\":" << format_number(s.max()) << '}';
}

// The trailing latency ids, in emission order. kRounds is named
// "decision_rounds" precisely so these columns cannot collide with the
// base "rounds_*" summary columns.
constexpr obs::ObsId kLatencyIds[5] = {
    obs::ObsId::kPhase1Ns, obs::ObsId::kPhase2Ns,
    obs::ObsId::kDecideSpreadNs, obs::ObsId::kRounds,
    obs::ObsId::kQuorumWaitNs};

// The scenario message-class counters surfaced by --net-stats.
constexpr obs::ObsId kNetCounterIds[5] = {
    obs::ObsId::kDelivered, obs::ObsId::kDroppedPartitioned,
    obs::ObsId::kDroppedLost, obs::ObsId::kDuplicated,
    obs::ObsId::kHeldPartitioned};

// The service latency-attribution components (batching wait, slot
// queueing, consensus), which sum per op to the client latency.
constexpr struct {
  obs::ObsId id;
  const char* json_key;
} kSvcComponents[3] = {
    {obs::ObsId::kSvcBatchWaitNs, "batch_wait_ns"},
    {obs::ObsId::kSvcSeqWaitNs, "seq_wait_ns"},
    {obs::ObsId::kSvcConsensusNs, "consensus_ns"},
};

double profile_msgs_per_sec(const ChunkProfile& p) {
  if (p.wall_ns == 0) return 0.0;
  return static_cast<double>(p.msgs) /
         (static_cast<double>(p.wall_ns) / 1e9);
}

std::vector<std::string> csv_header(const ReportOptions& opts) {
  std::vector<std::string> header{
      "cell", "algorithm", "n", "m", "layout", "delay", "crash",
      "scenario", "coin_epsilon", "runs", "terminated", "violations",
      "rounds_mean", "rounds_p50", "rounds_p95", "rounds_max",
      "msgs_mean", "msgs_p50", "msgs_p95", "msgs_max",
      "shm_proposals_mean", "shm_proposals_p50", "shm_proposals_p95",
      "shm_proposals_max", "objects_mean", "objects_p50", "objects_p95",
      "objects_max", "decision_time_mean", "decision_time_p50",
      "decision_time_p95", "decision_time_max"};
  if (opts.net_stats) {
    for (const obs::ObsId id : kNetCounterIds) {
      header.push_back(std::string(obs::obs_id_name(id)) + "_sum");
    }
  }
  if (opts.phase_metrics) {
    header.emplace_back("coin_flips_mean");
    for (const obs::ObsId id : kLatencyIds) {
      const std::string name = obs::obs_id_name(id);
      header.push_back(name + "_mean");
      header.push_back(name + "_p95");
      header.push_back(name + "_max");
    }
  }
  if (opts.service) {
    header.emplace_back("service");
    header.emplace_back("svc_runs");
    header.emplace_back("svc_ops_mean");
    header.emplace_back("svc_ops_per_sec_mean");
    header.emplace_back("svc_ops_per_sec_p50");
    header.emplace_back("svc_batches_mean");
    header.emplace_back("svc_slots_mean");
    header.emplace_back("svc_lat_mean_ns");
    header.emplace_back("svc_lat_p50_ns");
    header.emplace_back("svc_lat_p99_ns");
    header.emplace_back("svc_lat_p999_ns");
    header.emplace_back("svc_lat_max_ns");
    // Latency attribution: per-op means/p99s of the three components that
    // sum to the client latency (batching wait, slot queueing, consensus).
    header.emplace_back("svc_batch_wait_mean_ns");
    header.emplace_back("svc_batch_wait_p99_ns");
    header.emplace_back("svc_seq_wait_mean_ns");
    header.emplace_back("svc_seq_wait_p99_ns");
    header.emplace_back("svc_consensus_mean_ns");
    header.emplace_back("svc_consensus_p99_ns");
  }
  if (opts.profile) {
    header.emplace_back("wall_ms");
    header.emplace_back("cpu_ms");
    header.emplace_back("msgs_per_sec");
  }
  return header;
}

void write_csv_row(CsvWriter& w, const CellResult& r,
                   const ReportOptions& opts) {
  std::vector<std::string> fields;
  fields.push_back(std::to_string(r.cell.index));
  fields.emplace_back(to_cstring(r.cell.alg));
  fields.push_back(std::to_string(r.cell.layout.n()));
  fields.push_back(std::to_string(r.cell.layout.m()));
  fields.push_back(r.cell.layout.to_string());
  fields.push_back(r.cell.delay.name);
  fields.push_back(r.cell.crash.name);
  fields.push_back(r.cell.scenario.name);
  fields.push_back(format_number(r.cell.coin_epsilon));
  fields.push_back(std::to_string(r.runs()));
  fields.push_back(std::to_string(r.terminated()));
  fields.push_back(std::to_string(r.violations()));
  append_summary_fields(fields, r.rounds());
  append_summary_fields(fields, r.msgs());
  append_summary_fields(fields, r.shm_proposals());
  append_summary_fields(fields, r.objects());
  append_summary_fields(fields, r.decision_time());
  if (opts.net_stats) {
    for (const obs::ObsId id : kNetCounterIds) {
      fields.push_back(std::to_string(r.obs().sum(id)));
    }
  }
  if (opts.phase_metrics) {
    fields.push_back(
        format_number(r.obs().moments(obs::ObsId::kCoinFlips).mean()));
    for (const obs::ObsId id : kLatencyIds) {
      const ExactMoments& mo = r.obs().moments(id);
      fields.push_back(format_number(mo.mean()));
      fields.push_back(format_percentile(r.obs().histogram(id), mo, 95));
      fields.push_back(format_number(mo.max()));
    }
  }
  if (opts.service) {
    const CellAccumulator& acc = r.acc;
    fields.push_back(r.cell.service.enabled ? r.cell.service.name : "none");
    fields.push_back(std::to_string(acc.svc_ops.count()));
    fields.push_back(format_number(acc.svc_ops.mean()));
    fields.push_back(format_number(acc.svc_rate.mean()));
    fields.push_back(format_number(acc.svc_rate.percentile(50)));
    fields.push_back(format_number(acc.svc_batches.mean()));
    fields.push_back(format_number(acc.svc_slots.mean()));
    const ExactMoments& lat = acc.obs.moments(obs::ObsId::kSvcLatencyNs);
    const obs::LogHistogram& lat_hist =
        acc.obs.histogram(obs::ObsId::kSvcLatencyNs);
    fields.push_back(format_number(lat.mean()));
    fields.push_back(format_percentile(lat_hist, lat, 50));
    fields.push_back(format_percentile(lat_hist, lat, 99));
    fields.push_back(format_percentile(lat_hist, lat, 99.9));
    fields.push_back(format_number(lat.max()));
    for (const auto& c : kSvcComponents) {
      const ExactMoments& mo = acc.obs.moments(c.id);
      fields.push_back(format_number(mo.mean()));
      fields.push_back(format_percentile(acc.obs.histogram(c.id), mo, 99));
    }
  }
  if (opts.profile) {
    fields.push_back(
        format_number(static_cast<double>(r.profile.wall_ns) / 1e6));
    fields.push_back(
        format_number(static_cast<double>(r.profile.cpu_ns) / 1e6));
    fields.push_back(format_number(profile_msgs_per_sec(r.profile)));
  }
  w.row(fields);
}

}  // namespace

void write_cell_csv(std::ostream& out, const std::vector<CellResult>& results,
                    const ReportOptions& opts) {
  CsvWriter w(out);
  w.header(csv_header(opts));
  for (const auto& r : results) write_csv_row(w, r, opts);
}

std::vector<std::string> write_cell_csv_sharded(
    const std::string& path, const std::vector<CellResult>& results,
    std::size_t shard_size, const ReportOptions& opts) {
  HYCO_CHECK_MSG(shard_size >= 1, "CSV shard size must be >= 1");
  std::vector<std::string> shards;
  for (std::size_t begin = 0; begin == 0 || begin < results.size();
       begin += shard_size) {
    char suffix[8];
    std::snprintf(suffix, sizeof(suffix), ".%03zu", shards.size());
    const std::string shard_path = path + suffix;
    std::ofstream out(shard_path);
    HYCO_CHECK_MSG(out.good(),
                   "cannot open \"" << shard_path << "\" for writing");
    CsvWriter w(out);
    w.header(csv_header(opts));
    const std::size_t end = std::min(begin + shard_size, results.size());
    for (std::size_t i = begin; i < end; ++i) {
      write_csv_row(w, results[i], opts);
    }
    shards.push_back(shard_path);
  }
  return shards;
}

void write_cell_json(std::ostream& out, const std::string& experiment_name,
                     const std::vector<CellResult>& results,
                     const ReportOptions& opts) {
  out << "{\"experiment\":\"" << json_escape(experiment_name)
      << "\",\"cells\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (i) out << ',';
    out << "{\"index\":" << r.cell.index << ",\"algorithm\":\""
        << to_cstring(r.cell.alg) << "\",\"n\":" << r.cell.layout.n()
        << ",\"m\":" << r.cell.layout.m() << ",\"layout\":\""
        << json_escape(r.cell.layout.to_string()) << "\",\"delay\":\""
        << json_escape(r.cell.delay.name) << "\",\"crash\":\""
        << json_escape(r.cell.crash.name) << "\",\"scenario\":\""
        << json_escape(r.cell.scenario.name)
        << "\",\"coin_epsilon\":" << format_number(r.cell.coin_epsilon)
        << ",\"inputs\":\"" << to_cstring(r.cell.inputs)
        << "\",\"base_seed\":" << r.cell.base_seed << ",\"runs\":" << r.runs()
        << ",\"terminated\":" << r.terminated()
        << ",\"violations\":" << r.violations() << ',';
    write_summary_json(out, "rounds", r.rounds());
    out << ',';
    write_summary_json(out, "msgs", r.msgs());
    out << ',';
    write_summary_json(out, "shm_proposals", r.shm_proposals());
    out << ',';
    write_summary_json(out, "consensus_objects", r.objects());
    out << ',';
    write_summary_json(out, "decision_time", r.decision_time());
    if (opts.net_stats) {
      out << ",\"net\":{";
      for (std::size_t k = 0; k < 5; ++k) {
        if (k) out << ',';
        out << '"' << obs::obs_id_name(kNetCounterIds[k])
            << "\":" << r.obs().sum(kNetCounterIds[k]);
      }
      out << '}';
    }
    if (opts.phase_metrics) {
      out << ",\"obs\":{";
      const ExactMoments& cf = r.obs().moments(obs::ObsId::kCoinFlips);
      out << "\"coin_flips\":{\"count\":" << cf.count()
          << ",\"mean\":" << format_number(cf.mean())
          << ",\"sd\":" << format_number(cf.stddev())
          << ",\"min\":" << format_number(cf.min())
          << ",\"max\":" << format_number(cf.max()) << '}';
      for (const obs::ObsId id : kLatencyIds) {
        const ExactMoments& mo = r.obs().moments(id);
        const obs::LogHistogram& hist = r.obs().histogram(id);
        out << ",\"" << obs::obs_id_name(id)
            << "\":{\"count\":" << mo.count()
            << ",\"mean\":" << format_number(mo.mean())
            << ",\"sd\":" << format_number(mo.stddev())
            << ",\"min\":" << format_number(mo.min())
            << ",\"p50\":" << format_percentile(hist, mo, 50)
            << ",\"p95\":" << format_percentile(hist, mo, 95)
            << ",\"max\":" << format_number(mo.max()) << '}';
      }
      out << '}';
    }
    if (opts.service) {
      const CellAccumulator& acc = r.acc;
      out << ",\"svc\":{\"name\":\""
          << json_escape(r.cell.service.enabled ? r.cell.service.name
                                                : "none")
          << "\",\"runs\":" << acc.svc_ops.count() << ',';
      write_summary_json(out, "ops", acc.svc_ops);
      out << ',';
      write_summary_json(out, "ops_per_sec", acc.svc_rate);
      out << ',';
      write_summary_json(out, "batches", acc.svc_batches);
      out << ',';
      write_summary_json(out, "slots", acc.svc_slots);
      const ExactMoments& lat = acc.obs.moments(obs::ObsId::kSvcLatencyNs);
      const obs::LogHistogram& lat_hist =
          acc.obs.histogram(obs::ObsId::kSvcLatencyNs);
      out << ",\"latency_ns\":{\"count\":" << lat.count()
          << ",\"mean\":" << format_number(lat.mean())
          << ",\"sd\":" << format_number(lat.stddev())
          << ",\"min\":" << format_number(lat.min())
          << ",\"p50\":" << format_percentile(lat_hist, lat, 50)
          << ",\"p99\":" << format_percentile(lat_hist, lat, 99)
          << ",\"p999\":" << format_percentile(lat_hist, lat, 99.9)
          << ",\"max\":" << format_number(lat.max()) << '}';
      for (const auto& c : kSvcComponents) {
        const ExactMoments& mo = acc.obs.moments(c.id);
        const obs::LogHistogram& hist = acc.obs.histogram(c.id);
        out << ",\"" << c.json_key << "\":{\"count\":" << mo.count()
            << ",\"mean\":" << format_number(mo.mean())
            << ",\"p50\":" << format_percentile(hist, mo, 50)
            << ",\"p99\":" << format_percentile(hist, mo, 99)
            << ",\"p999\":" << format_percentile(hist, mo, 99.9)
            << ",\"max\":" << format_number(mo.max()) << '}';
      }
      out << '}';
    }
    if (opts.profile) {
      out << ",\"profile\":{\"wall_ms\":"
          << format_number(static_cast<double>(r.profile.wall_ns) / 1e6)
          << ",\"cpu_ms\":"
          << format_number(static_cast<double>(r.profile.cpu_ns) / 1e6)
          << ",\"msgs_per_sec\":"
          << format_number(profile_msgs_per_sec(r.profile))
          << ",\"chunks\":" << r.profile.chunks << '}';
    }
    out << ",\"failures\":[";
    for (std::size_t f = 0; f < r.failures().size(); ++f) {
      const auto& fail = r.failures()[f];
      if (f) out << ',';
      out << "{\"run\":" << fail.run << ",\"seed\":" << fail.seed
          << ",\"terminated\":" << (fail.terminated ? "true" : "false")
          << ",\"safe\":" << (fail.safe_ok ? "true" : "false") << '}';
    }
    out << "]}";
  }
  out << "]}\n";
}

Table to_table(const std::string& title,
               const std::vector<CellResult>& results) {
  Table t(title);
  t.set_columns({"cell", "terminated", "violations", "mean rounds",
                 "p95 rounds", "mean msgs", "mean simtime"});
  for (const auto& r : results) {
    t.add_row_values(r.cell.label(),
                     std::to_string(r.terminated()) + "/" +
                         std::to_string(r.runs()),
                     r.violations(), fixed(r.rounds().mean()),
                     fixed(r.rounds().percentile(95)),
                     fixed(r.msgs().mean(), 0),
                     fixed(r.decision_time().mean(), 0));
  }
  return t;
}

}  // namespace hyco
