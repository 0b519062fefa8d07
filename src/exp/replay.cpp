#include "exp/replay.h"

#include <utility>

#include "service/service_runner.h"
#include "sim/trace.h"

namespace hyco {

TracedRun trace_run(const ExperimentCell& cell, std::uint64_t run,
                    Trace& ring) {
  ring.clear();
  TracedRun out;
  if (cell.service.enabled) {
    ServiceRunConfig cfg = cell.service_run_config(run);
    cfg.enable_trace = true;
    cfg.trace_sink = &ring;
    ServiceRunResult r = run_service(cfg);
    out.terminated = r.terminated;
    out.safe_ok = r.safe_ok;
    out.violations = std::move(r.violations);
  } else {
    RunConfig cfg = cell.run_config(run);
    cfg.enable_trace = true;
    cfg.trace_sink = &ring;
    RunResult r = run_consensus(cfg);
    out.terminated = r.all_correct_decided;
    out.safe_ok = r.safe();
    out.violations = std::move(r.violations);
  }
  out.meta.cell = cell.index;
  out.meta.run = run;
  out.meta.seed = cell.seed_for(run);
  out.meta.label = cell.label();
  out.meta.recorded = ring.recorded();
  out.meta.truncated = ring.recorded() > ring.size();
  return out;
}

std::size_t replay_failures(std::ostream& out,
                            const std::vector<CellResult>& results,
                            std::size_t max_replays, Trace& ring) {
  std::vector<std::pair<const ExperimentCell*, std::uint64_t>> todo;
  for (const CellResult& res : results) {
    for (const RunScalars& fail : res.failures()) {
      if (todo.size() == max_replays) break;
      todo.emplace_back(&res.cell, fail.run);
    }
  }
  out << "replayed " << todo.size() << " failing run(s)\n";
  for (const auto& [cell, run] : todo) {
    const TracedRun t = trace_run(*cell, run, ring);
    out << "=== replay: cell " << t.meta.cell << " [" << t.meta.label
        << "] run " << t.meta.run << " seed " << t.meta.seed << " ===\n"
        << "terminated=" << (t.terminated ? "yes" : "no")
        << " safe=" << (t.safe_ok ? "yes" : "no") << '\n';
    for (const auto& v : t.violations) out << "violation: " << v << '\n';
    if (t.meta.truncated) {
      out << "trace ring wrapped: the last " << ring.size() << " of "
          << t.meta.recorded
          << " records follow (raise --trace-cap for the full run)\n";
    }
    ring.dump(out);
  }
  return todo.size();
}

}  // namespace hyco
