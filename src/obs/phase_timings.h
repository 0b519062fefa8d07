// Per-phase latency instrumentation: converts the phase begin/decide
// events the run observer (obs/observer.h) forwards into sim-time spans.
// Each process has at most one open phase; the next phase-begin (or its
// decision) closes it and credits the elapsed sim-time to that phase's
// bucket. Time comes from an injected clock callback (the runner passes
// the simulator's now()), so the timings are simulation-agnostic and
// unit-testable with a fake clock.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"

namespace hyco::obs {

class PhaseTimings {
 public:
  PhaseTimings(ProcId n, std::function<SimTime()> now);

  void on_phase_begin(ProcId p, Round r, Phase ph);
  void on_decide(ProcId p, Round r);
  void on_quorum_satisfied(ProcId p, Round r, Phase ph);

  /// Writes the latency metrics into `s`: total closed phase-1/phase-2
  /// span ns (summed over processes and rounds), the spread between the
  /// first and last decision, and the total phase-begin-to-quorum wait. A
  /// phase still open at the end of the run (crashed or parked process) is
  /// discarded — only completed phases carry a defined duration.
  void fill(ObsSample& s) const;

  [[nodiscard]] std::uint64_t phase1_ns() const { return phase_ns_[0]; }
  [[nodiscard]] std::uint64_t phase2_ns() const { return phase_ns_[1]; }
  [[nodiscard]] std::uint64_t quorum_wait_ns() const {
    return quorum_wait_ns_;
  }
  [[nodiscard]] std::uint64_t decided_count() const { return decided_; }

 private:
  void close_open(ProcId p);

  struct Open {
    Phase phase = Phase::One;
    SimTime since = 0;
    bool active = false;
  };

  std::function<SimTime()> now_;
  std::vector<Open> open_;
  std::uint64_t phase_ns_[2] = {0, 0};  ///< [Phase::One, Phase::Two]
  std::uint64_t quorum_wait_ns_ = 0;    ///< phase begin -> quorum, summed
  SimTime first_decide_ = kSimTimeNever;
  SimTime last_decide_ = kSimTimeNever;
  std::uint64_t decided_ = 0;
};

}  // namespace hyco::obs
