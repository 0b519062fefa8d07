// hyco_bench — the layered benchmark: one e2e figure per workload, and a
// traced pass whose per-layer parts add up to it (see README.md here).
//
// Every workload runs through the same public path `sweep` uses:
// ExperimentSpec::expand -> ParallelExecutor::run -> CollectingSink with
// records retained (service cells call run_service inside the executor).
// Only calls into public functions are timed, so each layer is measured
// from outside.
//
//   hyco_bench --workload=W --seed=S [--seconds=T] --json=OUT
//       e2e mode, tracing off: one warm-up repetition, the set-up timed
//       101 times, then timed repetitions of the workload's fixed grid
//       for T seconds (at least 3). Prints every metric as
//       "name value unit"; OUT gets median, q1, q3 and sample count.
//   hyco_bench --workload=W --seed=S --json=OUT --trace=SPANS
//       traced mode, a separate process: one executor repetition, then the
//       same runs sequentially with a span around every layer call, the
//       trace-on overhead, and the layer benches. OUT gets the per-layer
//       metrics; SPANS gets Chrome trace-event JSON.
//
// --seed is the base seed: cell seeds and the crash plan derive from it
// exactly as in sweep. Exit status: 0 ok, 1 bad flags, 2 a correctness gate
// failed (an unsafe run, a fold that disagrees with its records, a record
// digest that differs between repetitions or passes, or grid-faults not
// engaging its scenario).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "exp/executor.h"
#include "exp/report.h"
#include "exp/sink.h"
#include "layers.h"
#include "measure.h"
#include "service/checker.h"
#include "service/service_runner.h"
#include "sim/trace.h"
#include "spans.h"
#include "util/assert.h"
#include "util/options.h"
#include "workloads.h"

using namespace hyco;
using namespace hyco_bench;

namespace {

constexpr int kSetupReps = 101;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;
constexpr int kLayerReps = 5;
constexpr double kTraceOverheadBudgetS = 1.0;

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Rep {
  std::vector<CellResult> results;
  double wall_s = 0.0;
};

/// One repetition through the sweep path, records retained.
Rep run_rep(const ParallelExecutor& exec,
            const std::vector<ExperimentCell>& cells, SpanLog& log,
            const char* span) {
  const auto t0 = Clock::now();
  CollectingSink::Options sink_opts;
  sink_opts.retain_records = true;
  CollectingSink sink(cells, std::move(sink_opts));
  exec.run(cells, sink);
  Rep rep;
  rep.results = sink.take_results();
  const auto t1 = Clock::now();
  rep.wall_s = seconds_between(t0, t1);
  log.add(span, t0, t1, SpanLog::kNoParent, SpanLog::kRepLane);
  return rep;
}

/// Gates every repetition must pass, beyond the ones summarize() applies.
void check_rep(const Workload& w, const Outcome& o, const Outcome& base,
               std::vector<std::string>& errors) {
  errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  if (o.digest != base.digest) {
    errors.push_back("record digest " + hex(o.digest) +
                     " differs from the first repetition's " +
                     hex(base.digest));
  }
  if (std::string(w.name) == "grid-faults" &&
      (o.held == 0 || o.lost == 0 || o.dup == 0 || o.crashed == 0)) {
    errors.push_back(
        "grid-faults did not engage its scenario (held " +
        std::to_string(o.held) + ", lost " + std::to_string(o.lost) +
        ", dup " + std::to_string(o.dup) + ", crashed " +
        std::to_string(o.crashed) + ")");
  }
}

/// The protocol-cost metrics: exact for a seed, read from one repetition.
std::vector<Metric> protocol_metrics(const Outcome& o) {
  std::vector<Metric> ms;
  ms.push_back({"msgs_per_decision",
                ratio(static_cast<double>(o.msgs),
                      static_cast<double>(o.decided())),
                "msgs", {}, o.decided()});
  if (o.service) {
    const std::uint64_t n = o.latency.count();
    ms.push_back({"sim_latency_ns_mean", o.latency.mean(), "ns", {}, n});
    ms.push_back({"sim_latency_ns_p50",
                  log_bucket_percentile(o.latency_hist, o.latency, 50.0), "ns",
                  {}, n});
    ms.push_back({"sim_latency_ns_p99",
                  log_bucket_percentile(o.latency_hist, o.latency, 99.0), "ns",
                  {}, n});
    ms.push_back({"sim_ops_per_s",
                  ratio(static_cast<double>(o.ops_completed) * 1e9,
                        static_cast<double>(o.sim_time)),
                  "1/s", {}, o.runs});
  } else {
    const std::vector<double>& t = o.decision_times;
    double sum = 0.0;
    for (const double x : t) sum += x;
    ms.push_back({"sim_latency_ns_mean", ratio(sum, static_cast<double>(t.size())),
                  "ns", {}, t.size()});
    ms.push_back({"sim_latency_ns_p50", percentile_sorted(t, 50.0), "ns", {},
                  t.size()});
    ms.push_back({"sim_latency_ns_p99", percentile_sorted(t, 99.0), "ns", {},
                  t.size()});
    ms.push_back({"rounds_mean",
                  ratio(static_cast<double>(o.rounds),
                        static_cast<double>(o.terminated)),
                  "rounds", {}, o.terminated});
  }
  ms.push_back({"failed_frac",
                ratio(static_cast<double>(o.failed()),
                      static_cast<double>(o.attempted())),
                "ratio", {}, o.attempted()});
  return ms;
}

/// The traced pass: every run of every cell, sequentially, with a span
/// around each layer call. A run's child spans share their boundary
/// clock reads, so they tile the run span exactly.
struct TracedPass {
  std::vector<CellResult> results;
  std::vector<double> core_ns;  ///< per run: the simulation call(s)
  std::vector<std::string> errors;
};

TracedPass traced_pass(const Workload& w,
                       const std::vector<ExperimentCell>& cells,
                       SpanLog& log) {
  TracedPass out;
  std::int64_t id = 0;
  for (const ExperimentCell& cell : cells) {
    CellResult cr(cell);
    cr.records.reserve(static_cast<std::size_t>(cell.runs));
    for (std::uint64_t k = 0; k < cell.runs; ++k, ++id) {
      RunRecord rec;
      if (w.service) {
        const auto t0 = Clock::now();
        ServiceRunConfig cfg = cell.service_run_config(k);
        const auto t1 = Clock::now();
        std::optional<ServiceRunResult> res(run_service(cfg));
        const auto t2 = Clock::now();
        const ServiceCheckReport check = check_service_logs(res->slot_logs);
        const auto t3 = Clock::now();
        if (!check.ok || !res->safe_ok) {
          out.errors.push_back("service run " + std::to_string(k) +
                               ": the decided-log check failed");
        }
        rec = extract_service_record(k, cfg.seed, *res);
        res.reset();
        cr.acc.add(rec);
        cr.records.push_back(rec);
        const auto t4 = Clock::now();
        const std::int32_t root =
            log.add("exp.run", t0, t4, SpanLog::kNoParent, SpanLog::kRunLane, id);
        log.add("exp.config", t0, t1, root, SpanLog::kRunLane, id);
        log.add("sim.run", t1, t2, root, SpanLog::kRunLane, id);
        log.add("core.finish", t2, t3, root, SpanLog::kRunLane, id);
        log.add("exp.fold", t3, t4, root, SpanLog::kRunLane, id);
        out.core_ns.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
                .count()));

        // run_service does its whole set-up before the first event; with
        // max_events = 0 it builds the world, schedules every client's
        // first arrival, and returns without executing an event.
        cfg.max_events = 0;
        const auto p0 = Clock::now();
        {
          const ServiceRunResult probe = run_service(cfg);
          if (probe.events != 0) {
            out.errors.push_back("set-up probe executed events");
          }
        }
        log.add("core.setup", p0, Clock::now(), SpanLog::kNoParent,
                SpanLog::kRunLane, id);
      } else {
        const auto t0 = Clock::now();
        const RunConfig cfg = cell.run_config(k);
        const auto t1 = Clock::now();
        std::optional<ConsensusRun> run;
        run.emplace(cfg);
        const auto t2 = Clock::now();
        while (!run->tick()) {
        }
        const auto t3 = Clock::now();
        std::optional<RunResult> res(run->finish());
        run.reset();
        const auto t4 = Clock::now();
        rec = extract_record(k, cfg.seed, *res);
        res.reset();
        cr.acc.add(rec);
        cr.records.push_back(rec);
        const auto t5 = Clock::now();
        const std::int32_t root =
            log.add("exp.run", t0, t5, SpanLog::kNoParent, SpanLog::kRunLane, id);
        log.add("exp.config", t0, t1, root, SpanLog::kRunLane, id);
        log.add("core.setup", t1, t2, root, SpanLog::kRunLane, id);
        log.add("sim.run", t2, t3, root, SpanLog::kRunLane, id);
        log.add("core.finish", t3, t4, root, SpanLog::kRunLane, id);
        log.add("exp.fold", t4, t5, root, SpanLog::kRunLane, id);
        out.core_ns.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t4 - t1)
                .count()));
      }
    }
    cr.acc.finalize();
    out.results.push_back(std::move(cr));
  }
  std::sort(out.core_ns.begin(), out.core_ns.end());
  return out;
}

/// Host-time cost of RunConfig::enable_trace with a caller-owned Trace
/// (ServiceRunConfig's for the service): alternating untraced/traced runs
/// of cell 0 for about a second. Traced results must equal untraced ones.
double trace_overhead(const Workload& w, const ExperimentCell& cell,
                      SpanLog& log, std::vector<std::string>& errors) {
  Trace trace(1 << 16);
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t k = 0; k < cell.runs; ++k) {
    if (k >= 2 && seconds_between(start, Clock::now()) > kTraceOverheadBudgetS) {
      break;
    }
    Outcome plain;
    Outcome traced;
    // Odd runs go traced-first so a drifting clock rate cancels out.
    for (const bool trace_on : {k % 2 == 1, k % 2 == 0}) {
      trace.clear();
      const auto t0 = Clock::now();
      if (w.service) {
        ServiceRunConfig cfg = cell.service_run_config(k);
        cfg.enable_trace = trace_on;
        cfg.trace_sink = trace_on ? &trace : nullptr;
        add_record(trace_on ? traced : plain,
                   extract_service_record(k, cfg.seed, run_service(cfg)));
      } else {
        RunConfig cfg = cell.run_config(k);
        cfg.enable_trace = trace_on;
        cfg.trace_sink = trace_on ? &trace : nullptr;
        add_record(trace_on ? traced : plain,
                   extract_record(k, cfg.seed, run_consensus(cfg)));
      }
      const auto t1 = Clock::now();
      log.add(trace_on ? "obs.traced_run" : "obs.plain_run", t0, t1,
              SpanLog::kNoParent, SpanLog::kLayerLane, static_cast<std::int64_t>(k));
      (trace_on ? traced_ns : plain_ns) +=
          std::chrono::duration<double, std::nano>(t1 - t0).count();
    }
    if (plain.digest != traced.digest) {
      errors.push_back("run " + std::to_string(k) +
                       ": the traced result differs from the untraced one");
    }
  }
  return ratio(traced_ns, plain_ns) - 1.0;
}

/// Cost of recording one span: two clock reads and an append.
double span_cost_ns() {
  constexpr int kSpans = 200'000;
  SpanLog scratch(Clock::now());
  scratch.reserve(kSpans);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const auto a = Clock::now();
    scratch.add("calibrate", a, Clock::now(), SpanLog::kNoParent,
                SpanLog::kRunLane);
  }
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         kSpans;
}

std::vector<Metric> layer_metrics(const Workload& w, const Outcome& o,
                                  const TracedPass& pass,
                                  const SpanLog& log, double rep_wall_s) {
  const auto runs = static_cast<double>(o.runs);
  const auto mean_us = [&](const char* span) {
    const SpanLog::Total t = log.total(span);
    return ratio(t.ns, static_cast<double>(t.count)) / 1e3;
  };
  const double sim_run_ns = log.total("sim.run").ns;
  const double run_ns = log.total("exp.run").ns;
  const double lat = static_cast<double>(o.latency.raw_sum());
  std::vector<Metric> ms = {
      {"exp.config_us", mean_us("exp.config"), "us"},
      {"core.setup_us", mean_us("core.setup"), "us"},
      {"sim.run_us", mean_us("sim.run"), "us"},
      {"core.finish_us", mean_us("core.finish"), "us"},
      {"exp.fold_us", mean_us("exp.fold"), "us"},
      {"core.run_us_p50", percentile_sorted(pass.core_ns, 50.0) / 1e3, "us"},
      {"core.run_us_p99", percentile_sorted(pass.core_ns, 99.0) / 1e3, "us"},
      {"exp.parallel_eff",
       ratio(run_ns / 1e9 / static_cast<double>(w.threads), rep_wall_s),
       "ratio"},
      {"exp.record_bytes", static_cast<double>(sizeof(RunRecord)), "bytes"},
      {"sim.events_per_run", ratio(static_cast<double>(o.events), runs),
       "count"},
      {"sim.ns_per_event", ratio(sim_run_ns, static_cast<double>(o.events)),
       "ns"},
      {"net.delivered_ratio",
       ratio(static_cast<double>(o.delivered), static_cast<double>(o.msgs)),
       "ratio"},
      {"shm.proposals_per_run",
       ratio(static_cast<double>(o.shm_proposals), runs), "count"},
      {"shm.win_ratio",
       ratio(static_cast<double>(o.objects),
             static_cast<double>(o.shm_proposals)),
       "ratio"},
      {"coin.flips_per_run", ratio(static_cast<double>(o.coin_flips), runs),
       "count"},
      {"core.rounds_mean",
       ratio(static_cast<double>(o.rounds), static_cast<double>(o.terminated)),
       "rounds"},
      {"scenario.lost_per_run", ratio(static_cast<double>(o.lost), runs),
       "count"},
      {"scenario.dup_per_run", ratio(static_cast<double>(o.dup), runs),
       "count"},
      {"scenario.held_per_run", ratio(static_cast<double>(o.held), runs),
       "count"},
      {"service.slots_per_run", ratio(static_cast<double>(o.slots), runs),
       "count"},
      {"service.ops_per_slot",
       ratio(static_cast<double>(o.ops_completed),
             static_cast<double>(o.slots)),
       "count"},
      {"service.objects_per_slot",
       ratio(static_cast<double>(o.objects), static_cast<double>(o.slots)),
       "count"},
      {"service.batch_wait_share", ratio(o.batch_wait_ns, lat), "ratio"},
      {"service.seq_wait_share", ratio(o.seq_wait_ns, lat), "ratio"},
      {"service.consensus_share", ratio(o.consensus_ns, lat), "ratio"},
  };
  if (o.service) {
    const auto ops = static_cast<double>(o.latency.count());
    ms.push_back({"service.batch_wait_ns_mean", ratio(o.batch_wait_ns, ops), "ns"});
    ms.push_back({"service.seq_wait_ns_mean", ratio(o.seq_wait_ns, ops), "ns"});
    ms.push_back({"service.consensus_ns_mean", ratio(o.consensus_ns, ops), "ns"});
  }
  return ms;
}

double value_of(const std::vector<Metric>& ms, const std::string& name) {
  const auto it = std::find_if(ms.begin(), ms.end(),
                               [&](const Metric& m) { return m.name == name; });
  HYCO_CHECK_MSG(it != ms.end(), "no metric " << name);
  return it->value;
}

void write_result(const std::string& path, const Workload& w,
                  std::uint64_t seed, bool traced, int reps,
                  std::uint64_t digest, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<std::string>& errors,
                  const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  HYCO_CHECK_MSG(out.good(), "cannot open \"" << path << "\" for writing");
  out << "{\n  \"schema\": \"hyco-bench/1\",\n"
      << "  \"workload\": " << json_string(w.name) << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"mode\": " << json_string(traced ? "trace" : "e2e") << ",\n"
      << "  \"threads\": " << w.threads << ",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"digest\": " << json_string(hex(digest)) << ",\n"
      << "  \"correct\": " << (errors.empty() ? "true" : "false") << ",\n"
      << "  \"attempted\": " << attempted << ",\n"
      << "  \"failed\": " << failed << ",\n"
      << "  \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(errors[i]);
  }
  out << "],\n  \"metrics\": ";
  write_metrics_json(out, metrics);
  out << "\n}\n";
  HYCO_CHECK_MSG(out.good(), "failed writing \"" << path << '"');
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  try {
    for (const std::string& key : opts.keys()) {
      HYCO_CHECK_MSG(key == "workload" || key == "seed" || key == "seconds" ||
                         key == "json" || key == "trace",
                     "--" << key
                          << ": unknown flag (want --workload --seed"
                             " --seconds --json --trace)");
    }
    const Workload& w = find_workload(opts.get_string("workload"));
    const std::int64_t seed_flag = opts.get_int("seed", 1);
    HYCO_CHECK_MSG(seed_flag >= 0, "--seed must be >= 0, got " << seed_flag);
    const auto seed = static_cast<std::uint64_t>(seed_flag);
    const double seconds = opts.get_double("seconds", 10.0);
    HYCO_CHECK_MSG(seconds > 0.0 && seconds <= 600.0,
                   "--seconds must be in (0, 600], got " << seconds);
    const std::string json_path = opts.get_string("json");
    HYCO_CHECK_MSG(!json_path.empty(), "--json=PATH is required");
    const bool traced = opts.has("trace");
    const std::string trace_path = opts.get_string("trace");
    HYCO_CHECK_MSG(!traced || !trace_path.empty(), "--trace needs a path");

    SpanLog log(Clock::now());
    ParallelExecutor::Options exec_opts;
    exec_opts.threads = static_cast<std::int64_t>(w.threads);
    exec_opts.chunk_size = w.chunk;
    // Set-up: what a sweep does before its first run.
    const auto set_up = [&] {
      const ExperimentSpec spec = make_spec(w, seed);
      std::vector<ExperimentCell> expanded = spec.expand();
      (void)ParallelExecutor(exec_opts).worker_count(spec.total_runs());
      return expanded;
    };
    const std::vector<ExperimentCell> cells = set_up();
    const ParallelExecutor exec(exec_opts);

    std::vector<std::string> errors;
    const Outcome base =
        summarize(run_rep(exec, cells, log, "exp.warmup_rep").results,
                  w.service);
    check_rep(w, base, base, errors);
    // What one sweep of this grid costs in memory. Later repetitions only
    // add what the allocator keeps from earlier ones, which depends on
    // thread timing (±15% from run to run).
    const double rss_mb = peak_rss_mb();

    // Set-up again, timed once the process is warm, for a steady median.
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
      const auto t0 = Clock::now();
      if (set_up().size() != cells.size()) {
        errors.push_back("set-up expanded a different grid");
      }
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    // Timed repetitions for --seconds; the traced mode needs only one, for
    // the parallel wall time its per-run spans are compared against.
    std::vector<Metric> metrics;
    int reps = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> rates;
    double rep_wall_s = 0.0;
    const int min_reps = traced ? 1 : kMinReps;
    const int max_reps = traced ? 1 : kMaxReps;
    const auto timed_start = Clock::now();
    while (reps < min_reps ||
           (reps < max_reps &&
            seconds_between(timed_start, Clock::now()) < seconds)) {
      const Rep r = run_rep(exec, cells, log, "exp.rep");
      const Outcome o = summarize(r.results, w.service);
      check_rep(w, o, base, errors);
      rates.push_back(static_cast<double>(o.decided()) / r.wall_s);
      rep_wall_s = r.wall_s;
      attempted += o.attempted();
      failed += o.failed();
      ++reps;
    }

    if (!traced) {
      metrics.push_back({"decided_per_s", median(rates), "1/s", rates});
      metrics.push_back({"setup_s", median(setup_s), "s", setup_s});
      metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
      for (Metric& m : protocol_metrics(base)) metrics.push_back(std::move(m));
    } else {
      TracedPass pass = traced_pass(w, cells, log);
      errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
      const Outcome o = summarize(pass.results, w.service);
      errors.insert(errors.end(), o.errors.begin(), o.errors.end());
      if (o.digest != base.digest) {
        errors.push_back("traced pass digest " + hex(o.digest) +
                         " differs from the executor's " + hex(base.digest));
      }
      const double gap = log.max_child_gap();
      if (gap > 0.01) {
        errors.push_back("child spans miss their run span by " +
                         std::to_string(gap * 100.0) + "%");
      }
      metrics = layer_metrics(w, o, pass, log, rep_wall_s);

      ClusterLayout widest = cells.front().layout;
      for (const ExperimentCell& c : cells) {
        if (c.layout.n() > widest.n()) widest = c.layout;
      }
      ReportOptions report;
      report.net_stats = true;
      report.service = w.service;
      const LayerShape shape{widest, cells.front().alg, seed, &pass.results,
                             report};
      for (Metric& m : run_layer_benches(shape, log, kLayerReps, errors)) {
        metrics.push_back(std::move(m));
      }

      const double events_per_run = value_of(metrics, "sim.events_per_run");
      const double deliver_ns = value_of(metrics, "net.deliver_ns");
      const double sim_run_us = value_of(metrics, "sim.run_us");
      metrics.push_back({"core.handler_share_est",
                         1.0 - ratio(events_per_run * deliver_ns,
                                     sim_run_us * 1e3),
                         "ratio"});
      metrics.push_back({"obs.trace_overhead",
                         trace_overhead(w, cells.front(), log, errors),
                         "ratio"});
      // Six spans per run: grids record the run and its five children;
      // the service records the run, four children and the set-up probe.
      const SpanLog::Total run_spans = log.total("exp.run");
      metrics.push_back(
          {"bench.span_overhead",
           ratio(6.0 * static_cast<double>(run_spans.count) * span_cost_ns(),
                 run_spans.ns),
           "ratio"});
      metrics.push_back({"bench.max_child_gap", gap, "ratio"});

      std::ofstream spans_out(trace_path);
      HYCO_CHECK_MSG(spans_out.good(),
                     "cannot open \"" << trace_path << "\" for writing");
      log.write_chrome(spans_out);
      HYCO_CHECK_MSG(spans_out.good(),
                     "failed writing \"" << trace_path << '"');
    }

    // A gate that fails once usually fails on every repetition.
    std::sort(errors.begin(), errors.end());
    errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
    print_metrics(stdout, metrics);
    std::printf("hyco_bench: %s seed %llu %s, %d timed rep(s), digest %s, %s\n",
                w.name, static_cast<unsigned long long>(seed),
                traced ? "traced" : "e2e", reps, hex(base.digest).c_str(),
                errors.empty() ? "correct" : "INCORRECT");
    write_result(json_path, w, seed, traced, reps, base.digest, attempted,
                 failed, errors, metrics);
    if (!errors.empty()) {
      for (const std::string& e : errors) {
        std::fprintf(stderr, "hyco_bench: %s\n", e.c_str());
      }
      return 2;
    }
  } catch (const ContractViolation& e) {
    std::fprintf(stderr, "hyco_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
