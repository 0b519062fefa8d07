// sweep — run an arbitrary experiment grid from flags and emit the
// aggregate as an ASCII table, CSV, and/or JSON. The declarative engine
// (src/exp/) fans all (cell × seed) runs across worker threads; aggregates
// are bit-identical at every --threads value.
//
// Example (reproduces the shape of T-ROUNDS' first table):
//   sweep --alg=common_coin --n=4,8,16,32,64 --m=4 --runs=300 \
//         --threads=8 --json=out.json
//
// Flags:
//   --alg=A,B       local_coin | common_coin | ben_or      [local_coin]
//   --n=8,16,32     process counts                         [8]
//   --m=1,4         cluster counts (cells with m > n skip) [1]
//   --runs=N        seeds per cell                         [40]
//   --threads=K     workers; 0 = hardware concurrency      [0]
//   --seed=S        base seed                              [1]
//   --eps=0,0.25    common-coin corruption probabilities   [0]
//   --inputs=KIND   split | all0 | all1                    [split]
//   --delay=SPEC    uniform:LO:HI | constant:T | exp:MEAN  [uniform:50:150]
//   --crash=C,...   none | minority | covering-dead | mid-broadcast  [none]
//   --max-rounds=R  per-run round cap                      [5000]
//   --json=PATH     write JSON report (- for stdout)
//   --csv=PATH      write CSV report (- for stdout)
//   --csv-shard=N   shard the CSV into PATH.000, PATH.001, … N cells each
//   --replay=N      re-run up to N failing seeds with tracing on
//   --quiet         suppress the ASCII table
//
// Streaming pipeline (bounded memory for multi-million-run grids; see
// README "Streaming sweeps"):
//   --stream          drop per-run records: memory stays O(cells) while
//                     CSV/JSON stay byte-identical to batch mode
//   --max-records=N   batch mode: retain at most N records per cell (the
//                     lowest run indices win)
//   --chunk=N         max runs per work unit (auto-shrunk so every worker
//                     has chunks to steal; grain never changes output bytes)
//                     [1024]
//   --checkpoint=PATH append each completed chunk's and cell's exact
//                     accumulator state to PATH (flushed per block; an
//                     existing checkpoint is never truncated without
//                     --resume)
//   --resume          load PATH first and skip its completed work. Resume
//                     is *chunk-granular*: a cell interrupted mid-flight
//                     re-runs only its uncovered run ranges, so even a
//                     single monster cell resumes where it left off. Final
//                     artifacts are byte-identical to an uninterrupted run.
//                     The loaded trail is also rewritten in place as its
//                     compacted equivalent (temp file + rename), so
//                     repeated crash/resume cycles never grow the file
//                     without bound.
//   --progress        1 Hz stderr line: runs & cells done, runs/s, ETA.
//                     With --service the rate and ETA count decided
//                     service ops instead of runs (a single service run
//                     can take minutes; runs/s would read 0 throughout)
//
// Distributed sweeps (src/dist/; see README "Distributed sweeps"):
//   --serve=PORT      coordinate: listen on PORT, lease chunk-sized run
//                     ranges to connecting workers, and merge their
//                     accumulators. Emits the same artifacts as a local
//                     run — byte-identical at any worker count, lease
//                     grain, or arrival order. Combines with --checkpoint
//                     (the work ledger doubles as the chunk checkpoint).
//   --connect=HOST:PORT  work for a coordinator started with the *same
//                     grid flags* (the handshake verifies the grid
//                     fingerprint). Emits no artifacts locally.
//                     Local-executor knobs (--threads/--chunk/--stream/
//                     --max-records) are rejected in both modes: workers
//                     parallelize with --workers, coordinators shape work
//                     units with --lease.
//   --workers=N       with --connect: parallel worker sessions [1]
//   --reconnect=N     with --connect: mid-sweep recovery budget — after a
//                     lost connection (sever, coordinator crash/restart) a
//                     session redials with jittered exponential backoff
//                     and re-Hellos, giving up after N consecutive failed
//                     attempts (the counter resets on every successful
//                     re-handshake). 0 = a mid-sweep disconnect is fatal [5]
//   --lease=N         with --serve: runs per lease chunk [4096]
//   --lease-floor=N   with --serve: adaptive-tail floor — as the pending
//                     pool drains, lease sizes halve from --lease down to
//                     N so the last chunks finish on all workers together
//                     instead of one straggler. Never changes output
//                     bytes; set equal to --lease to disable [32]
//   --lease-ttl=SEC   with --serve: re-queue leases not folded in SEC [60].
//                     Size --lease so a chunk comfortably finishes within
//                     the TTL: an expired lease is re-executed elsewhere
//                     (late results are dropped as duplicates — output is
//                     unaffected, but the work is done twice and the
//                     coordinator warns on stderr).
//
// Adversarial scenario flags (src/scenario/; all default off — combined
// into one scenario axis value applied to every cell):
//   --loss=P        per-link message loss probability      [0]
//   --dup=P         per-link duplication probability       [0]
//   --reorder=T     bounded-reordering jitter (ns/us/ms)   [0]
//   --partition=S,... scheduled cuts, KIND:IDS[:flap=D:period=D][@START..HEAL]
//                   with KIND cluster | procs | split; HEAL may be "never";
//                   flap/period make a square-wave cut/heal cycle
//                   (e.g. cluster:0-1@5ms..20ms, cluster:0:flap=2ms:period=4ms)
//   --recover=S,... crash-recovery cycles, PID@DOWN..UP or
//                   cluster:X@DOWN..UP (e.g. 3@2ms..8ms)
//   --coin-attack=BIT:BOOST delay round>=2 phase-1 carriers of BIT by BOOST
//   --skew=S,...    clock skew / slow processes: proc:ID:xF or
//                   cluster:ID:xF step-speed multipliers (e.g. proc:3:x4
//                   makes p3's steps 4x slower; x0.5 makes a fast process)
//
// Observability (src/obs/; see README "Observability" — every section is
// opt-in and strictly appended, so default artifacts stay byte-identical):
//   --log-level=L     trace | debug | info | warn | error       [warn]
//   --net-stats       append per-cell message-class counter columns
//                     (delivered / dropped_* / duplicated / held) to
//                     CSV/JSON
//   --phase-metrics   collect per-phase latency timings (phase1/phase2 ns,
//                     decide spread, coin flips) and append their columns.
//                     Changes the grid fingerprint (timed and untimed runs
//                     checkpoint separately) but never the base columns.
//   --profile         append executor wall/cpu/msgs-per-sec columns (host
//                     timing — NOT deterministic; local mode only)
//   --trace-out=PATH  after the sweep, re-run one (cell, run) with tracing
//                     on and export its event timeline ("-" for stdout)
//   --trace-cell=I    cell index to trace                       [0]
//   --trace-run=K     run index within the cell to trace        [0]
//   --trace-format=F  jsonl | binary                            [jsonl]
//   --trace-cap=N     trace ring capacity in records; a run that records
//                     more keeps the trailing window and the export is
//                     marked truncated                          [65536]
//   --health=PORT     with --serve: read-only HTTP progress endpoint
//                     (0 = kernel-assigned; printed on stderr). Serves one
//                     "hyco-health/2" JSON document per request, including
//                     the recovery counters (lease expiries, re-queued
//                     chunks, worker reconnects, checkpoint flush age).
//
// Replicated service workload (src/service/; see README "Replicated
// service" and docs/cli.md for the full flag registry):
//   --service         run the replicated-state-machine workload: closed-
//                     loop clients submit ops, replicas batch them into
//                     sequenced consensus slots, and cells report decided-
//                     ops/sec plus client-latency p50/p99/p999 decomposed
//                     into batching-wait / slot-queueing / consensus
//                     components. Forces the hybrid common-coin algorithm;
//                     rejects --alg, --inputs, --phase-metrics, and
//                     --crash=mid-broadcast. Combines with --trace-out:
//                     the traced re-run records service milestones (op /
//                     flush / slot / deliver) alongside network events.
//   --clients=N       simulated closed-loop clients            [100000]
//   --ops-per-client=K  ops each client submits (bounds a run) [1]
//   --batch=B,...     max ops per proposed batch (axis)        [64]
//   --batch-delay=D   ns a partial batch waits before flushing
//                     (0 = flush every op)                     [50000]
//   --svc-load=R,...  offered load in ops/sec across all clients;
//                     0 = no think time (axis)                 [0]
//
// Unknown --flags are rejected (exit 2): the registry in
// src/exp/sweep_flags.cpp is the single source of truth, and docs/cli.md
// documents every entry (enforced by tests and CI).
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
#include "service/service_runner.h"
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
    for (const char* banned :
         {"threads", "chunk", "stream", "max-records", "progress"}) {
      HYCO_CHECK_MSG(!opts.has(banned),
                     "--" << banned << " cannot combine with --connect"
                          << " (worker parallelism is --workers=N; the"
                             " coordinator owns execution and reporting)");
    }
  }
  if (f.serve) {
    // These shape the *local* executor, which never runs in coordinator
    // mode — reject them so a silently dead knob can't mislead anyone.
    for (const char* banned :
         {"threads", "chunk", "stream", "max-records"}) {
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
      for (const auto& c : opts.get_string_list("crash", {"none"})) {
        HYCO_CHECK_MSG(c != "mid-broadcast",
                       "--crash=mid-broadcast cannot combine with --service"
                       " (service runs support timed crash specs only)");
      }
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
    const std::uint64_t fingerprint = grid_fingerprint(
        cells, exec_opts.reservoir_capacity, exec_opts.failure_capacity);

    // Structured trace export: validated here, on the main thread, against
    // the expanded grid; the traced run itself happens after the sweep.
    const bool want_trace = opts.has("trace-out");
    std::string trace_path;
    std::uint64_t trace_cell = 0;
    std::uint64_t trace_run = 0;
    bool trace_binary = false;
    std::size_t trace_cap = 1 << 16;
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
      trace_run = static_cast<std::uint64_t>(run_flag);
      const std::string fmt = opts.get_string("trace-format", "jsonl");
      HYCO_CHECK_MSG(fmt == "jsonl" || fmt == "binary",
                     "--trace-format: unknown format \"" << fmt
                         << "\" (want jsonl | binary)");
      trace_binary = fmt == "binary";
      const auto cap_flag = opts.get_int("trace-cap", 1 << 16);
      HYCO_CHECK_MSG(cap_flag >= 1 && cap_flag <= 100'000'000,
                     "--trace-cap must be in [1, 100000000] records, got "
                         << cap_flag);
      trace_cap = static_cast<std::size_t>(cap_flag);
    } else {
      for (const char* orphan :
           {"trace-cell", "trace-run", "trace-format", "trace-cap"}) {
        HYCO_CHECK_MSG(!opts.has(orphan), "--" << orphan
                           << " needs --trace-out=PATH to apply to");
      }
    }

    // Worker mode: lease chunks from the coordinator and ship accumulators
    // back; the grid definition stays local (fingerprint-checked).
    if (dist_flags.connect) {
      dist::WorkerOptions wopts;
      wopts.target = dist_flags.target;
      wopts.sessions = dist_flags.workers;
      wopts.reconnect_attempts = dist_flags.reconnect;
      wopts.reservoir_capacity = exec_opts.reservoir_capacity;
      wopts.failure_capacity = exec_opts.failure_capacity;
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

    // Checkpoint/resume, chunk-granular (plan_resume): completed cells
    // reload bit-exactly and skip entirely; a partially-completed cell
    // reloads its folded chunk ranges and re-runs only the complement.
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
    if (loaded_file) {
      std::cerr << "sweep: resumed " << plan.resumed_runs << " of " << total
                << " runs (" << plan.checkpoint.cells.size() << " of "
                << cells.size() << " cells complete) from " << ckpt_path
                << "\n";
    }

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
        // compacted equivalent (cell blocks + one merged chunk block per
        // contiguous chain) via a temporary + rename, so repeated
        // crash/resume cycles cannot grow the file without bound — and a
        // kill mid-rewrite leaves the old file untouched.
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

    const bool stream = opts.get_bool("stream");
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> cells_done{plan.checkpoint.cells.size()};
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
    // execute it: it starts from the checkpoint's blocks, and its hooks
    // append each new chunk and finished cell.
    CollectingSink::Options sink_opts;
    sink_opts.retain_records = !stream;
    if (opts.has("max-records")) {
      const auto cap = opts.get_int("max-records");
      HYCO_CHECK_MSG(cap >= 0, "--max-records must be >= 0, got " << cap);
      sink_opts.max_records_per_cell = static_cast<std::uint64_t>(cap);
    }
    if (ckpt_out.is_open()) {
      sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                               std::uint64_t end, const CellAccumulator& acc) {
        append_checkpoint_chunk(ckpt_out, cell.index, begin, end, acc);
      };
    }
    sink_opts.on_complete = [&](const ExperimentCell& cell,
                                const CellAccumulator& acc) {
      cells_done.fetch_add(1, std::memory_order_relaxed);
      if (ckpt_out.is_open()) append_checkpoint_cell(ckpt_out, cell.index, acc);
    };
    CollectingSink sink(cells, std::move(sink_opts));
    sink.resume(std::move(plan.checkpoint));

    if (dist_flags.serve) {
      // Coordinator mode: the ledger leases the spans to TCP workers and
      // hands what they fold back to the sink.
      dist::CoordinatorOptions copts;
      copts.port = dist_flags.serve_port;
      copts.lease_grain = dist_flags.lease_grain;
      copts.lease_floor = dist_flags.lease_floor;
      copts.lease_ttl = dist_flags.lease_ttl;
      copts.reservoir_capacity = exec_opts.reservoir_capacity;
      copts.failure_capacity = exec_opts.failure_capacity;
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
                << workers << " threads"
                << (stream ? " [streaming]" : "") << "\n";
      exec.run(cells, plan.spans, sink);
    }
    const std::vector<CellResult> results = sink.take_results();

    if (!opts.get_bool("quiet")) {
      to_table("sweep results", results).print(std::cout);
    }
    if (opts.has("csv")) {
      const std::string path = opts.get_string("csv");
      const auto shard = opts.get_int("csv-shard", 0);
      if (shard > 0) {
        HYCO_CHECK_MSG(path != "-", "--csv-shard needs a file path, not -");
        const auto shards = write_cell_csv_sharded(
            path, results, static_cast<std::size_t>(shard), report_opts);
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
    // — seeds are pure functions of the spec — with tracing into a caller-
    // owned ring, then export the structured records.
    if (want_trace) {
      const ExperimentCell& cell = cells[trace_cell];
      Trace trace(trace_cap);
      if (cell.service.enabled) {
        ServiceRunConfig cfg = cell.service_run_config(trace_run);
        cfg.enable_trace = true;
        cfg.trace_sink = &trace;
        (void)run_service(cfg);
      } else {
        RunConfig cfg = cell.run_config(trace_run);
        cfg.enable_trace = true;
        cfg.trace_sink = &trace;
        (void)run_consensus(cfg);
      }
      if (trace.recorded() > trace.size()) {
        HYCO_WARN("trace ring wrapped: recorded "
                  << trace.recorded() << " events, kept the trailing "
                  << trace.size() << " (raise --trace-cap for the full run)");
      }
      obs::TraceMeta meta;
      meta.cell = trace_cell;
      meta.run = trace_run;
      meta.seed = cell.seed_for(trace_run);
      meta.label = cell.label();
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
      std::cerr << "sweep: traced cell " << trace_cell << " run " << trace_run
                << " (seed " << meta.seed << ", " << trace.recorded()
                << " events) -> " << trace_path << "\n";
    }

    const auto max_replays =
        static_cast<std::size_t>(opts.get_int("replay", 0));
    if (max_replays > 0) {
      const auto reports = replay_failures(results, max_replays);
      std::cout << "replayed " << reports.size() << " failing run(s)\n";
      dump_replays(std::cout, reports);
    }
  } catch (const ContractViolation& e) {
    std::cerr << "sweep: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
