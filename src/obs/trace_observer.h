// IRunObserver that mirrors consensus phase structure into the trace ring:
// phase begins, quorum satisfactions, and decides become PhaseStart/Quorum/
// Decide records carrying the round (and phase). Records inherit the
// trace's causal context (the delivery being dispatched), so a Decide
// chains back to the message whose arrival triggered it. Strictly passive —
// reads the clock, writes the trace, touches nothing else.
#pragma once

#include <functional>
#include <utility>

#include "core/types.h"
#include "obs/observer.h"
#include "sim/trace.h"

namespace hyco::obs {

class TraceObserver final : public IRunObserver {
 public:
  TraceObserver(Trace& trace, std::function<SimTime()> now)
      : trace_(trace), now_(std::move(now)) {}

  void on_phase_begin(ProcId p, Round r, Phase ph) override {
    record(TraceKind::PhaseStart, p, r, ph);
  }

  void on_decide(ProcId p, Round r) override {
    record(TraceKind::Decide, p, r, Phase::One);
  }

  void on_quorum_satisfied(ProcId p, Round r, Phase ph) override {
    record(TraceKind::Quorum, p, r, ph);
  }

 private:
  void record(TraceKind kind, ProcId p, Round r, Phase ph) {
    trace_.record({.at = now_(), .kind = kind, .phase = ph, .proc = p,
                   .round = r});
  }

  Trace& trace_;
  std::function<SimTime()> now_;
};

}  // namespace hyco::obs
