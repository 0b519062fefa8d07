// The run observer: the hook ProcessBase reports phase begins, quorum
// satisfactions and decisions through when a run collects phase timings
// or a trace. It forwards each event to the run's PhaseTimings and mirrors
// it into the trace ring as a PhaseStart/Quorum/Decide record carrying the
// round (and phase). Records inherit the trace's causal context (the
// delivery being dispatched), so a Decide chains back to the message whose
// arrival triggered it. Strictly passive — it reads the clock and writes
// the timings and the trace, never the seeded RNG, the network or process
// state — so installing it cannot change a run's outcome by construction.
// Ben-Or and m&m do not route through ProcessBase and report nothing: their
// phase metrics stay zero and their traces hold network records only.
#pragma once

#include <functional>
#include <utility>

#include "core/types.h"
#include "obs/phase_timings.h"
#include "sim/trace.h"

namespace hyco::obs {

class RunObserver {
 public:
  /// Either sink may be null; both must outlive the observer. `now` stamps
  /// the trace records.
  RunObserver(PhaseTimings* timings, Trace* trace,
              std::function<SimTime()> now)
      : timings_(timings), trace_(trace), now_(std::move(now)) {}

  /// Process `p` begins the exchange of (round `r`, phase `ph`).
  void on_phase_begin(ProcId p, Round r, Phase ph) {
    if (timings_ != nullptr) timings_->on_phase_begin(p, r, ph);
    record(TraceKind::PhaseStart, p, r, ph);
  }

  /// Process `p` decides in round `r`.
  void on_decide(ProcId p, Round r) {
    if (timings_ != nullptr) timings_->on_decide(p, r);
    record(TraceKind::Decide, p, r, Phase::One);
  }

  /// Process `p`'s message exchange for (round `r`, phase `ph`) just
  /// crossed its quorum threshold (credited clusters cover a majority).
  void on_quorum_satisfied(ProcId p, Round r, Phase ph) {
    if (timings_ != nullptr) timings_->on_quorum_satisfied(p, r, ph);
    record(TraceKind::Quorum, p, r, ph);
  }

 private:
  void record(TraceKind kind, ProcId p, Round r, Phase ph) {
    if (trace_ == nullptr) return;
    trace_->record({.at = now_(), .kind = kind, .phase = ph, .proc = p,
                    .round = r});
  }

  PhaseTimings* timings_;
  Trace* trace_;
  std::function<SimTime()> now_;
};

}  // namespace hyco::obs
