// Traced re-runs: any run of a grid can be re-run bit-exactly from its
// (cell, run) coordinates — seeds are pure functions of the spec — this
// time tracing into a caller's ring. `sweep --trace-out` exports one such
// re-run; `sweep --replay` re-runs the failures a sweep captured and prints
// their traces, so a failed cell in a thousand-run sweep turns into a
// readable event trace without re-running the sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/sink.h"
#include "obs/trace_export.h"

namespace hyco {

class Trace;

/// What a traced re-run reports besides its records.
struct TracedRun {
  /// The run's identity, as a trace export stamps it, with the ring's
  /// recorded count and whether it wrapped.
  obs::TraceMeta meta;
  bool terminated = false;  ///< every correct process decided / op completed
  bool safe_ok = true;
  std::vector<std::string> violations;
};

/// Re-runs run `run` of `cell` — run_service() on a service cell,
/// run_consensus() otherwise — tracing into `ring`, which is cleared first.
TracedRun trace_run(const ExperimentCell& cell, std::uint64_t run,
                    Trace& ring);

/// Re-runs the failures captured in each cell's bounded worst-seed ring,
/// service cells included, up to `max_replays` in all, each through
/// trace_run into `ring`. Writes a "replayed N failing run(s)" line, then
/// per run a header naming its cell, run and seed, its verdicts and
/// violations, and the ring's Trace::dump text; a run that recorded more
/// than the ring holds gets a notice naming both counts before its dump.
/// Returns N. Works under streaming execution: the failure rings survive
/// without any retained per-run records.
std::size_t replay_failures(std::ostream& out,
                            const std::vector<CellResult>& results,
                            std::size_t max_replays, Trace& ring);

}  // namespace hyco
