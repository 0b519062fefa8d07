// sweep — run an arbitrary experiment grid from flags and emit the
// aggregate as an ASCII table, CSV, and/or JSON. The declarative engine
// (src/exp/) fans all (cell × seed) runs across worker threads; aggregates
// are bit-identical at every --threads value.
//
// Usage: sweep [--flag=value ...]
//
// Example (reproduces the shape of T-ROUNDS' first table):
//   sweep --alg=common_coin --n=4,8,16,32,64 --m=4 --runs=300 \
//         --threads=8 --json=out.json
//
// docs/cli.md documents every flag, its default and its exit codes.
// Unknown --flags are rejected (exit 2): the registry in
// src/exp/sweep_flags.cpp is the single source of truth, and
// tests/docs_cli_test.cpp and CI check docs/cli.md against it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "exp/checkpoint.h"
#include "exp/executor.h"
#include "exp/replay.h"
#include "exp/report.h"
#include "exp/sweep_flags.h"
#include "obs/trace_export.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/options.h"
#include "workload/failure_patterns.h"

using namespace hyco;

namespace {

Algorithm parse_algorithm(const std::string& name) {
  if (name == "local_coin" || name == "lc" || name == "hybrid-LC") {
    return Algorithm::HybridLocalCoin;
  }
  if (name == "common_coin" || name == "cc" || name == "hybrid-CC") {
    return Algorithm::HybridCommonCoin;
  }
  if (name == "ben_or" || name == "benor" || name == "ben-or") {
    return Algorithm::BenOr;
  }
  HYCO_CHECK_MSG(false, "--alg: unknown algorithm \"" << name
                        << "\" (want local_coin | common_coin | ben_or)");
  return Algorithm::HybridLocalCoin;  // unreachable
}

InputKind parse_inputs(const std::string& name) {
  if (name == "split") return InputKind::Split;
  if (name == "all0" || name == "all-0") return InputKind::AllZero;
  if (name == "all1" || name == "all-1") return InputKind::AllOne;
  HYCO_CHECK_MSG(false, "--inputs: unknown kind \"" << name
                        << "\" (want split | all0 | all1)");
  return InputKind::Split;  // unreachable
}

DelayAxis parse_delay(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(
        start, colon == std::string::npos ? std::string::npos : colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const auto num = [&](std::size_t i) {
    char* end = nullptr;
    const double v = std::strtod(parts[i].c_str(), &end);
    HYCO_CHECK_MSG(end != parts[i].c_str() && *end == '\0',
                   "--delay: \"" << parts[i] << "\" is not a number in \""
                                 << spec << '"');
    return v;
  };
  if (parts[0] == "uniform" && parts.size() == 3) {
    return DelayAxis::of(spec, DelayConfig::uniform(
                                   static_cast<SimTime>(num(1)),
                                   static_cast<SimTime>(num(2))));
  }
  if (parts[0] == "constant" && parts.size() == 2) {
    return DelayAxis::of(spec,
                         DelayConfig::constant_of(static_cast<SimTime>(num(1))));
  }
  if (parts[0] == "exp" && parts.size() == 2) {
    return DelayAxis::of(spec, DelayConfig::exponential(num(1)));
  }
  HYCO_CHECK_MSG(false, "--delay: malformed spec \"" << spec
                        << "\" (want uniform:LO:HI | constant:T | exp:MEAN)");
  return DelayAxis{};  // unreachable
}

CrashAxis parse_crash(const std::string& name, std::uint64_t base_seed) {
  if (name == "none") return CrashAxis::none();
  if (name == "minority") {
    return CrashAxis::of(name, [base_seed](const ClusterLayout& l) {
      Rng rng(mix64(base_seed, 0xC8A5));
      return failure_patterns::random_minority(l, rng, 300).plan;
    });
  }
  if (name == "covering-dead") {
    return CrashAxis::of(name, [base_seed](const ClusterLayout& l) {
      Rng rng(mix64(base_seed, 0xC8A6));
      return failure_patterns::kill_covering_set(l, rng, 0).plan;
    });
  }
  if (name == "mid-broadcast") {
    return CrashAxis::of(name, [base_seed](const ClusterLayout& l) {
      Rng rng(mix64(base_seed, 0xC8A7));
      const ProcId count = std::max<ProcId>(1, l.n() / 4);
      return failure_patterns::mid_broadcast(l, count, 1, rng).plan;
    });
  }
  HYCO_CHECK_MSG(false,
                 "--crash: unknown pattern \"" << name
                     << "\" (want none | minority | covering-dead |"
                        " mid-broadcast)");
  return CrashAxis::none();  // unreachable
}

ScenarioConfig parse_scenario(const Options& opts) {
  ScenarioConfig scn;
  scn.link.loss = opts.get_double("loss", 0.0);
  scn.link.dup = opts.get_double("dup", 0.0);
  if (opts.has("reorder")) {
    scn.link.reorder_max = parse_sim_time(opts.get_string("reorder"));
  }
  if (opts.has("partition")) {
    for (const auto& s : opts.get_string_list("partition")) {
      scn.partitions.push_back(parse_partition_spec(s));
    }
  }
  if (opts.has("recover")) {
    for (const auto& s : opts.get_string_list("recover")) {
      scn.recoveries.push_back(parse_recovery_spec(s));
    }
  }
  if (opts.has("skew")) {
    for (const auto& s : opts.get_string_list("skew")) {
      scn.skews.push_back(parse_skew_spec(s));
    }
  }
  if (opts.has("coin-attack")) {
    const std::string spec = opts.get_string("coin-attack");
    const std::size_t colon = spec.find(':');
    HYCO_CHECK_MSG(colon != std::string::npos,
                   "--coin-attack: want BIT:BOOST, got \"" << spec << '"');
    const std::string bit = spec.substr(0, colon);
    HYCO_CHECK_MSG(bit == "0" || bit == "1",
                   "--coin-attack: bit must be 0 or 1 in \"" << spec << '"');
    scn.coin_attack.enabled = true;
    scn.coin_attack.bit = bit == "1" ? 1 : 0;
    scn.coin_attack.boost = parse_sim_time(spec.substr(colon + 1));
  }
  return scn;
}

void write_report(const std::string& path,
                  const std::function<void(std::ostream&)>& emit) {
  if (path == "-") {
    emit(std::cout);
    return;
  }
  std::ofstream out(path);
  HYCO_CHECK_MSG(out.good(), "cannot open \"" << path << "\" for writing");
  emit(out);
}

/// Validated distributed-mode flags; parsed on the main thread before any
/// socket or worker thread exists, so bad input exits 2 with an actionable
/// message instead of aborting a thread (same pattern as
/// validate_scenario()).
struct DistFlags {
  bool serve = false;
  bool connect = false;
  std::uint16_t serve_port = 0;
  dist::HostPort target;
  unsigned workers = 1;
  std::uint64_t lease_grain = 4096;
  std::uint64_t lease_floor = 32;
  std::chrono::milliseconds lease_ttl{60'000};
  int health_port = -1;  ///< -1 = no health endpoint
  unsigned reconnect = 5;  ///< worker mid-sweep reconnect budget
};

DistFlags parse_dist_flags(const Options& opts) {
  DistFlags f;
  f.serve = opts.has("serve");
  f.connect = opts.has("connect");
  HYCO_CHECK_MSG(!(f.serve && f.connect),
                 "--serve and --connect are mutually exclusive (a process"
                 " either coordinates a grid or works for one)");
  if (f.serve) {
    f.serve_port = dist::validate_port(opts.get_int("serve"), "--serve");
  }
  if (f.connect) {
    f.target = dist::parse_host_port(opts.get_string("connect"));
  }
  if (opts.has("workers")) {
    HYCO_CHECK_MSG(f.connect, "--workers only applies to --connect mode");
    const auto w = opts.get_int("workers");
    HYCO_CHECK_MSG(w >= 1 && w <= 4096,
                   "--workers must be in [1, 4096], got " << w);
    f.workers = static_cast<unsigned>(w);
  }
  if (opts.has("lease")) {
    HYCO_CHECK_MSG(f.serve, "--lease only applies to --serve mode");
    const auto grain = opts.get_int("lease");
    HYCO_CHECK_MSG(grain >= 1, "--lease must be >= 1, got " << grain);
    f.lease_grain = static_cast<std::uint64_t>(grain);
  }
  if (opts.has("lease-floor")) {
    HYCO_CHECK_MSG(f.serve, "--lease-floor only applies to --serve mode");
    const auto floor = opts.get_int("lease-floor");
    HYCO_CHECK_MSG(floor >= 1, "--lease-floor must be >= 1, got " << floor);
    f.lease_floor = static_cast<std::uint64_t>(floor);
  }
  if (opts.has("reconnect")) {
    HYCO_CHECK_MSG(f.connect, "--reconnect only applies to --connect mode");
    const auto r = opts.get_int("reconnect");
    HYCO_CHECK_MSG(r >= 0 && r <= 100'000,
                   "--reconnect must be in [0, 100000], got " << r);
    f.reconnect = static_cast<unsigned>(r);
  }
  if (opts.has("lease-ttl")) {
    HYCO_CHECK_MSG(f.serve, "--lease-ttl only applies to --serve mode");
    const auto ttl = opts.get_int("lease-ttl");
    HYCO_CHECK_MSG(ttl >= 1 && ttl <= 86'400,
                   "--lease-ttl must be in [1, 86400] seconds, got " << ttl);
    f.lease_ttl = std::chrono::seconds(ttl);
  }
  if (opts.has("health")) {
    HYCO_CHECK_MSG(f.serve,
                   "--health only applies to --serve mode (the endpoint"
                   " reports the coordinator's ledger)");
    const auto hp = opts.get_int("health");
    HYCO_CHECK_MSG(hp >= 0 && hp <= 65'535,
                   "--health must be a port in [0, 65535], got " << hp);
    f.health_port = static_cast<int>(hp);
  }
  if (opts.has("profile")) {
    // Profile columns are host wall/CPU timing — meaningless to merge
    // across machines and a determinism hazard on the wire.
    HYCO_CHECK_MSG(!f.serve && !f.connect,
                   "--profile only applies to local execution (host timing"
                   " does not aggregate across distributed workers)");
  }
  if (f.connect) {
    for (const char* banned :
         {"json", "csv", "csv-shard", "checkpoint", "resume", "replay",
          "net-stats", "trace-out", "trace-cell", "trace-run",
          "trace-format", "trace-cap"}) {
      HYCO_CHECK_MSG(!opts.has(banned),
                     "--" << banned << " cannot combine with --connect"
                          << " (artifacts are emitted by the --serve"
                             " coordinator)");
    }
    for (const char* banned : {"threads", "chunk", "progress"}) {
      HYCO_CHECK_MSG(!opts.has(banned),
                     "--" << banned << " cannot combine with --connect"
                          << " (worker parallelism is --workers=N; the"
                             " coordinator owns execution and reporting)");
    }
  }
  if (f.serve) {
    // These shape the *local* executor, which never runs in coordinator
    // mode — reject them so a silently dead knob can't mislead anyone.
    for (const char* banned : {"threads", "chunk"}) {
      HYCO_CHECK_MSG(!opts.has(banned),
                     "--" << banned << " cannot combine with --serve"
                          << " (workers execute the runs; use --lease to"
                             " shape work units)");
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  try {
    // Every flag must be in the registry (src/exp/sweep_flags.cpp): a
    // typo'd flag exits 2 instead of silently falling back to a default.
    for (const std::string& key : opts.keys()) {
      HYCO_CHECK_MSG(is_sweep_flag(key),
                     "--" << key << ": unknown flag (docs/cli.md lists the"
                             " full registry)");
    }

    // Log level first, on the main thread, so a typo exits 2 before any
    // worker thread exists and the chosen level covers all startup logging.
    if (opts.has("log-level")) {
      const std::string name = opts.get_string("log-level");
      const auto lvl = parse_log_level(name);
      HYCO_CHECK_MSG(lvl.has_value(),
                     "--log-level: unknown level \"" << name
                         << "\" (want trace | debug | info | warn | error)");
      Log::set_level(*lvl);
    }

    ExperimentSpec spec;
    spec.name = "sweep";
    spec.base_seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    const auto runs_flag = opts.get_int("runs", 40);
    HYCO_CHECK_MSG(runs_flag >= 1, "--runs must be >= 1, got " << runs_flag);
    spec.runs_per_cell = static_cast<std::uint64_t>(runs_flag);
    const auto replay_flag = opts.get_int("replay", 0);
    HYCO_CHECK_MSG(replay_flag >= 0,
                   "--replay must be >= 0, got " << replay_flag);
    const auto csv_shard = opts.get_int("csv-shard", 0);
    HYCO_CHECK_MSG(csv_shard >= 0,
                   "--csv-shard must be >= 0, got " << csv_shard);
    spec.max_rounds = static_cast<Round>(opts.get_int("max-rounds", 5000));
    spec.inputs = parse_inputs(opts.get_string("inputs", "split"));
    spec.coin_epsilons.clear();
    for (const double e : opts.get_double_list("eps", {0.0})) {
      spec.coin_epsilons.push_back(e);
    }

    spec.algorithms.clear();
    for (const auto& a : opts.get_string_list("alg", {"local_coin"})) {
      spec.algorithms.push_back(parse_algorithm(a));
    }

    spec.delays = {parse_delay(opts.get_string("delay", "uniform:50:150"))};

    spec.crashes.clear();
    for (const auto& c : opts.get_string_list("crash", {"none"})) {
      spec.crashes.push_back(parse_crash(c, spec.base_seed));
    }

    spec.scenarios = {ScenarioAxis::of(parse_scenario(opts))};

    // Replicated-service workload axis (src/service/): closed-loop client
    // traffic over the sequenced consensus core, gridded batch x offered-
    // load alongside every other axis. Off by default, so plain grids keep
    // their cell indices, labels, and fingerprints.
    const bool service = opts.get_bool("service");
    // Ops every service run decides when it succeeds (clients x
    // ops-per-client); --progress uses it for the ETA. Zero for plain grids.
    std::uint64_t service_ops_per_run = 0;
    if (!service) {
      for (const char* orphan :
           {"clients", "ops-per-client", "batch", "batch-delay", "svc-load"}) {
        HYCO_CHECK_MSG(!opts.has(orphan),
                       "--" << orphan << " needs --service to apply to");
      }
    } else {
      HYCO_CHECK_MSG(!opts.has("alg"),
                     "--alg cannot combine with --service (the service layer"
                     " sequences multivalued consensus, which builds on the"
                     " hybrid common-coin algorithm)");
      HYCO_CHECK_MSG(!opts.has("inputs"),
                     "--inputs cannot combine with --service (clients supply"
                     " the proposed values)");
      HYCO_CHECK_MSG(!opts.has("phase-metrics"),
                     "--phase-metrics cannot combine with --service (service"
                     " runs do not instrument consensus phases)");
      spec.algorithms = {Algorithm::HybridCommonCoin};

      const auto clients = opts.get_int("clients", 100'000);
      HYCO_CHECK_MSG(clients >= 1 && clients <= 10'000'000,
                     "--clients must be in [1, 10000000], got " << clients);
      const auto opc = opts.get_int("ops-per-client", 1);
      HYCO_CHECK_MSG(opc >= 1 && opc <= 1'000'000,
                     "--ops-per-client must be in [1, 1000000], got " << opc);
      service_ops_per_run = static_cast<std::uint64_t>(clients) *
                            static_cast<std::uint64_t>(opc);
      const auto batch_delay = opts.get_int("batch-delay", 50'000);
      HYCO_CHECK_MSG(batch_delay >= 0,
                     "--batch-delay must be >= 0 ns, got " << batch_delay);

      spec.services.clear();
      for (const auto b : opts.get_int_list("batch", {64})) {
        HYCO_CHECK_MSG(b >= 1, "--batch: batch size must be >= 1, got " << b);
        for (const double load : opts.get_double_list("svc-load", {0.0})) {
          HYCO_CHECK_MSG(load >= 0.0,
                         "--svc-load must be >= 0 ops/sec, got " << load);
          spec.services.push_back(ServiceAxis::of(
              static_cast<std::uint64_t>(clients),
              static_cast<std::uint64_t>(opc), static_cast<std::size_t>(b),
              static_cast<SimTime>(batch_delay), load));
        }
      }
    }

    const auto ns = opts.get_int_list("n", {8});
    const auto ms = opts.get_int_list("m", {1});
    for (const auto n : ns) {
      HYCO_CHECK_MSG(n >= 1, "--n: process count must be >= 1, got " << n);
      for (const auto m : ms) {
        HYCO_CHECK_MSG(m >= 1, "--m: cluster count must be >= 1, got " << m);
        if (m > n) {
          std::cerr << "sweep: skipping n=" << n << " m=" << m
                    << " (more clusters than processes)\n";
          continue;
        }
        spec.layouts.push_back(ClusterLayout::even(
            static_cast<ProcId>(n), static_cast<ClusterId>(m)));
      }
    }
    HYCO_CHECK_MSG(!spec.layouts.empty(), "no valid (n, m) layouts in grid");

    // Validate the scenario against every layout here, on the main thread:
    // an out-of-range cluster/proc id would otherwise throw inside a worker
    // thread and terminate the process instead of exiting 2.
    for (const auto& axis : spec.scenarios) {
      for (const auto& layout : spec.layouts) {
        validate_scenario(axis.config, layout);
      }
    }

    // Distributed-mode flags get the same main-thread validation.
    const DistFlags dist_flags = parse_dist_flags(opts);

    // Observability report sections (all opt-in; see src/exp/report.h).
    // --phase-metrics flows into the spec *before* expand(): cells snapshot
    // collect_obs and the grid fingerprint mixes it, so timed and untimed
    // sweeps never share a checkpoint or a distributed grid.
    ReportOptions report_opts;
    report_opts.net_stats = opts.get_bool("net-stats");
    report_opts.phase_metrics = opts.get_bool("phase-metrics");
    report_opts.profile = opts.get_bool("profile");
    report_opts.service = service;
    spec.collect_obs = report_opts.phase_metrics;

    ParallelExecutor::Options exec_opts;
    exec_opts.threads = opts.get_int("threads", 0);
    exec_opts.profile = report_opts.profile;
    const auto chunk_flag = opts.get_int("chunk", 1024);
    HYCO_CHECK_MSG(chunk_flag >= 1,
                   "--chunk must be >= 1, got " << chunk_flag);
    exec_opts.chunk_size = static_cast<std::uint64_t>(chunk_flag);

    const auto cells = spec.expand();
    const std::uint64_t total = spec.total_runs();
    const std::uint64_t fingerprint = grid_fingerprint(cells);

    // Structured trace export: validated here, on the main thread, against
    // the expanded grid; the traced run itself happens after the sweep.
    const bool want_trace = opts.has("trace-out");
    std::string trace_path;
    std::uint64_t trace_cell = 0;
    std::uint64_t traced_run = 0;
    bool trace_binary = false;
    if (want_trace) {
      trace_path = opts.get_string("trace-out");
      HYCO_CHECK_MSG(!trace_path.empty(), "--trace-out needs a path (or -)");
      const auto cell_flag = opts.get_int("trace-cell", 0);
      HYCO_CHECK_MSG(cell_flag >= 0 &&
                         static_cast<std::uint64_t>(cell_flag) < cells.size(),
                     "--trace-cell must be in [0, " << cells.size()
                         << "), got " << cell_flag);
      trace_cell = static_cast<std::uint64_t>(cell_flag);
      const auto run_flag = opts.get_int("trace-run", 0);
      const std::uint64_t cell_runs = cells[trace_cell].runs;
      HYCO_CHECK_MSG(run_flag >= 0 &&
                         static_cast<std::uint64_t>(run_flag) < cell_runs,
                     "--trace-run must be in [0, " << cell_runs << "), got "
                         << run_flag);
      traced_run = static_cast<std::uint64_t>(run_flag);
      const std::string fmt = opts.get_string("trace-format", "jsonl");
      HYCO_CHECK_MSG(fmt == "jsonl" || fmt == "binary",
                     "--trace-format: unknown format \"" << fmt
                         << "\" (want jsonl | binary)");
      trace_binary = fmt == "binary";
    } else {
      for (const char* orphan : {"trace-cell", "trace-run", "trace-format"}) {
        HYCO_CHECK_MSG(!opts.has(orphan), "--" << orphan
                           << " needs --trace-out=PATH to apply to");
      }
    }
    // One ring capacity for both traced re-runs, --trace-out's and
    // --replay's.
    const auto cap_flag = opts.get_int("trace-cap", 1 << 16);
    HYCO_CHECK_MSG(want_trace || replay_flag > 0 || !opts.has("trace-cap"),
                   "--trace-cap needs --trace-out=PATH or --replay=N to"
                   " apply to");
    HYCO_CHECK_MSG(cap_flag >= 1 && cap_flag <= 100'000'000,
                   "--trace-cap must be in [1, 100000000] records, got "
                       << cap_flag);
    const auto trace_cap = static_cast<std::size_t>(cap_flag);

    // Worker mode: lease chunks from the coordinator and ship accumulators
    // back; the grid definition stays local (fingerprint-checked).
    if (dist_flags.connect) {
      dist::WorkerOptions wopts;
      wopts.target = dist_flags.target;
      wopts.sessions = dist_flags.workers;
      wopts.reconnect_attempts = dist_flags.reconnect;
      std::cerr << "sweep: worker connecting to " << wopts.target.host << ':'
                << wopts.target.port << " with " << wopts.sessions
                << " session(s)\n";
      const dist::WorkerReport report =
          dist::run_worker(cells, fingerprint, wopts);
      std::cerr << "sweep: worker executed " << report.runs_executed
                << " run(s) in " << report.chunks_executed << " chunk(s)\n";
      if (report.reconnects > 0) {
        std::cerr << "sweep: worker reconnected " << report.reconnects
                  << " time(s) mid-sweep\n";
      }
      if (!report.completed) {
        std::cerr << "sweep: worker did not finish cleanly: " << report.error
                  << '\n';
        return 1;
      }
      return 0;
    }

    // Checkpoint/resume, chunk-granular (plan_resume): every cell reloads
    // its folded chunk ranges bit-exactly and re-runs only the complement,
    // so a fully covered cell runs nothing.
    const std::string ckpt_path = opts.get_string("checkpoint");
    CheckpointData loaded;
    bool loaded_file = false;
    if (opts.get_bool("resume")) {
      HYCO_CHECK_MSG(!ckpt_path.empty(),
                     "--resume needs --checkpoint=PATH to read from");
      std::ifstream in(ckpt_path);
      loaded_file = in.good();
      if (loaded_file) {
        loaded = load_checkpoint_data(in, fingerprint);
      } else {
        std::cerr << "sweep: no checkpoint at " << ckpt_path
                  << ", starting fresh\n";
      }
    }
    ResumePlan plan = plan_resume(cells, std::move(loaded));

    std::ofstream ckpt_out;
    if (!ckpt_path.empty()) {
      if (plan.resumed_runs == 0) {
        // Never silently destroy an earlier session's progress: a file
        // that already carries a checkpoint header needs an explicit
        // --resume (or manual removal) before we truncate it.
        if (!opts.get_bool("resume")) {
          std::ifstream probe(ckpt_path);
          std::string first;
          if (probe.good() && std::getline(probe, first)) {
            HYCO_CHECK_MSG(
                first.rfind("hyco-checkpoint", 0) != 0,
                "--checkpoint: \"" << ckpt_path << "\" already holds a"
                " checkpoint; pass --resume to continue it or remove the"
                " file first");
          }
        }
        ckpt_out.open(ckpt_path, std::ios::trunc);
        HYCO_CHECK_MSG(ckpt_out.good(),
                       "cannot open \"" << ckpt_path << "\" for writing");
        write_checkpoint_header(ckpt_out, fingerprint);
      } else {
        // Before appending more blocks, rewrite the loaded trail as its
        // compacted equivalent (one merged chunk block per contiguous
        // chain) via a temporary + rename, so repeated crash/resume cycles
        // cannot grow the file without bound — and a kill mid-rewrite
        // leaves the old file untouched.
        const std::string tmp_path = ckpt_path + ".tmp";
        {
          std::ofstream compact(tmp_path, std::ios::trunc);
          HYCO_CHECK_MSG(compact.good(),
                         "cannot open \"" << tmp_path << "\" for writing");
          write_compacted_checkpoint(compact, fingerprint, plan.checkpoint);
          compact.flush();
          HYCO_CHECK_MSG(compact.good(),
                         "failed writing compacted checkpoint to \""
                             << tmp_path << '"');
        }
        HYCO_CHECK_MSG(std::rename(tmp_path.c_str(), ckpt_path.c_str()) == 0,
                       "cannot rename \"" << tmp_path << "\" over \""
                                          << ckpt_path << '"');
        ckpt_out.open(ckpt_path, std::ios::app);
        HYCO_CHECK_MSG(ckpt_out.good(),
                       "cannot open \"" << ckpt_path << "\" for appending");
      }
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> cells_done{0};
    std::atomic<std::uint64_t> ops_done{0};
    std::atomic<std::int64_t> last_print_ms{-1000};
    const bool want_progress = opts.get_bool("progress");
    // Throttled stderr heartbeat shared by the local executor and the
    // coordinator loop. Runs restored from a checkpoint count as done.
    const auto print_progress = [&](std::uint64_t done_runs,
                                    std::uint64_t total_runs,
                                    std::size_t workers) {
      const auto elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      auto last = last_print_ms.load(std::memory_order_relaxed);
      if (elapsed_ms - last < 1000 ||
          !last_print_ms.compare_exchange_strong(last, elapsed_ms)) {
        return;
      }
      const double secs = static_cast<double>(elapsed_ms) / 1000.0 + 1e-9;
      const std::uint64_t ops = ops_done.load(std::memory_order_relaxed);
      if (service && ops > 0) {
        // Service runs take minutes each, so runs/s reads 0 for most of a
        // sweep. Rate and ETA on decided ops instead: the executor reports
        // each chunk's decided-op count, and every successful run decides
        // clients x ops-per-client ops, so the remaining-runs estimate is
        // exact when nothing fails (and an upper bound otherwise).
        const double ops_rate = static_cast<double>(ops) / secs;
        const double remaining_ops =
            static_cast<double>(total_runs - done_runs) *
            static_cast<double>(service_ops_per_run);
        const double eta = ops_rate > 0.0 ? remaining_ops / ops_rate : 0.0;
        std::fprintf(stderr,
                     "sweep: %llu/%llu runs | %llu/%zu cells"
                     " | %.0f ops/s | eta ~%.1fs",
                     static_cast<unsigned long long>(done_runs),
                     static_cast<unsigned long long>(total_runs),
                     static_cast<unsigned long long>(
                         cells_done.load(std::memory_order_relaxed)),
                     cells.size(), ops_rate, eta);
        if (workers > 0) {
          std::fprintf(stderr, " | %zu worker(s)", workers);
        }
        std::fprintf(stderr, "\n");
        return;
      }
      const double rate =
          static_cast<double>(done_runs - plan.resumed_runs) / secs;
      const double eta =
          rate > 0.0 ? static_cast<double>(total_runs - done_runs) / rate
                     : 0.0;
      std::fprintf(stderr,
                   "sweep: %llu/%llu runs | %llu/%zu cells | %.0f runs/s"
                   " | eta %.1fs",
                   static_cast<unsigned long long>(done_runs),
                   static_cast<unsigned long long>(total_runs),
                   static_cast<unsigned long long>(
                       cells_done.load(std::memory_order_relaxed)),
                   cells.size(), rate, eta);
      if (workers > 0) {
        std::fprintf(stderr, " | %zu worker(s)", workers);
      }
      std::fprintf(stderr, "\n");
    };

    // One sink folds every run, whether local threads or --serve workers
    // execute it, and keeps no per-run record: it starts from the
    // checkpoint's blocks, and its hooks append each new chunk and count
    // finished cells.
    CollectingSink::Options sink_opts;
    if (ckpt_out.is_open()) {
      sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                               std::uint64_t end, const CellAccumulator& acc) {
        append_checkpoint_chunk(ckpt_out, cell.index, begin, end, acc);
      };
    }
    sink_opts.on_complete = [&](const ExperimentCell&,
                                const CellAccumulator&) {
      cells_done.fetch_add(1, std::memory_order_relaxed);
    };
    CollectingSink sink(cells, std::move(sink_opts));
    cells_done = sink.resume(std::move(plan.checkpoint));
    if (loaded_file) {
      std::cerr << "sweep: resumed " << plan.resumed_runs << " of " << total
                << " runs (" << cells_done << " of " << cells.size()
                << " cells complete) from " << ckpt_path << "\n";
    }

    if (dist_flags.serve) {
      // Coordinator mode: the ledger leases the spans to TCP workers and
      // hands what they fold back to the sink.
      dist::CoordinatorOptions copts;
      copts.port = dist_flags.serve_port;
      copts.lease_grain = dist_flags.lease_grain;
      copts.lease_floor = dist_flags.lease_floor;
      copts.lease_ttl = dist_flags.lease_ttl;
      copts.health_port = dist_flags.health_port;
      if (want_progress) copts.progress = print_progress;
      dist::Coordinator coordinator(cells, plan.spans, fingerprint,
                                    std::move(copts));
      coordinator.bind();
      std::cerr << "sweep: coordinating " << cells.size() << " cells x "
                << spec.runs_per_cell << " seeds = " << total
                << " runs on port " << coordinator.port() << " (lease grain "
                << dist_flags.lease_grain << ")\n";
      if (coordinator.health_port() != 0) {
        std::cerr << "sweep: health endpoint on port "
                  << coordinator.health_port() << "\n";
      }
      coordinator.serve(sink);
    } else {
      if (want_progress) {
        exec_opts.progress = [&](std::uint64_t done, std::uint64_t) {
          print_progress(plan.resumed_runs + done, total, 0);
        };
        if (service) {
          // Fed before `progress` for every chunk, so the heartbeat the
          // progress callback prints already includes this chunk's ops.
          exec_opts.ops_progress = [&](std::uint64_t ops) {
            ops_done.fetch_add(ops, std::memory_order_relaxed);
          };
        }
      }

      const ParallelExecutor exec(exec_opts);
      // The executor spawns worker_count(residual runs) workers (it
      // shrinks the chunk grain so the pool is never starved), so this
      // banner is exact even mid-resume.
      const unsigned workers = exec.worker_count(total - plan.resumed_runs);
      std::cerr << "sweep: " << cells.size() << " cells x "
                << spec.runs_per_cell << " seeds = " << total << " runs on "
                << workers << " threads\n";
      exec.run(cells, plan.spans, sink);
    }
    const std::vector<CellResult> results = sink.take_results();

    if (!opts.get_bool("quiet")) {
      to_table("sweep results", results).print(std::cout);
    }
    if (opts.has("csv")) {
      const std::string path = opts.get_string("csv");
      if (csv_shard > 0) {
        HYCO_CHECK_MSG(path != "-", "--csv-shard needs a file path, not -");
        const auto shards = write_cell_csv_sharded(
            path, results, static_cast<std::size_t>(csv_shard), report_opts);
        std::cerr << "sweep: wrote " << shards.size() << " CSV shard(s)\n";
      } else {
        write_report(path, [&](std::ostream& out) {
          write_cell_csv(out, results, report_opts);
        });
      }
    }
    if (opts.has("json")) {
      write_report(opts.get_string("json"), [&](std::ostream& out) {
        write_cell_json(out, spec.name, results, report_opts);
      });
    }

    // Structured trace export: re-run the selected (cell, run) bit-exactly
    // — seeds are pure functions of the spec — into a ring of --trace-cap
    // records, then export the structured records.
    if (want_trace) {
      Trace trace(trace_cap);
      const obs::TraceMeta meta =
          trace_run(cells[trace_cell], traced_run, trace).meta;
      if (meta.truncated) {
        HYCO_WARN("trace ring wrapped: recorded "
                  << meta.recorded << " events, kept the trailing "
                  << trace.size() << " (raise --trace-cap for the full run)");
      }
      const auto emit = [&](std::ostream& out) {
        if (trace_binary) {
          obs::write_trace_binary(out, meta, trace);
        } else {
          obs::write_trace_jsonl(out, meta, trace);
        }
      };
      if (trace_path == "-") {
        emit(std::cout);
      } else {
        std::ofstream out(trace_path, trace_binary
                                          ? std::ios::out | std::ios::binary
                                          : std::ios::out);
        HYCO_CHECK_MSG(out.good(), "cannot open \"" << trace_path
                                       << "\" for writing");
        emit(out);
      }
      std::cerr << "sweep: traced cell " << trace_cell << " run " << traced_run
                << " (seed " << meta.seed << ", " << meta.recorded
                << " events) -> " << trace_path << "\n";
    }

    if (replay_flag > 0) {
      Trace ring(trace_cap);
      replay_failures(std::cout, results,
                      static_cast<std::size_t>(replay_flag), ring);
    }
  } catch (const ContractViolation& e) {
    std::cerr << "sweep: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
