// Uniform surface of every binary-consensus process implementation (the two
// hybrid algorithms, the pure message-passing Ben-Or baseline, and the m&m
// comparator), so a host can drive them interchangeably: the simulation
// runner delivers each message in an event, and the thread host
// (src/runtime/) from each process's mailbox on its own thread.
#pragma once

#include <cstdint>
#include <optional>

#include "core/types.h"
#include "net/message.h"

namespace hyco::obs {
class RunObserver;
}  // namespace hyco::obs

namespace hyco {

/// Per-process instrumentation shared by all algorithm implementations.
struct ProcessStats {
  std::uint64_t cons_invocations = 0;   ///< consensus-object proposals
  std::uint64_t coin_flips = 0;         ///< local or common coin consultations
  std::uint64_t phase_msgs_handled = 0; ///< PHASE messages credited
  Round rounds_entered = 0;
};

/// Event-driven binary consensus participant.
class IConsensusProcess {
 public:
  virtual ~IConsensusProcess() = default;

  /// The paper's propose(v): records the proposal and enters round 1 —
  /// unless a DECIDE delivered before the start already decided the
  /// process, which has then returned from propose() and enters no round.
  /// Returns true exactly when this call took the process from undecided
  /// to decided (its backlog already held a deciding quorum), so a host
  /// stamps decision times from it as from on_message.
  virtual bool start(Estimate proposal) = 0;

  /// Delivery hook for every message addressed to this process. Returns
  /// true exactly when this message took the process from undecided to
  /// decided (a host stamps its decision time from it, with no decided()
  /// call around each delivery); false for every message to a process that
  /// had already decided.
  virtual bool on_message(ProcId from, const Message& m) = 0;

  /// Crash-recovery hook (src/scenario/): the process just rejoined with
  /// its state intact but missed every message delivered while it was
  /// down. Implementations retransmit whatever peers need to pull it back
  /// in (typically the active PHASE message or its DECIDE). Default: no-op.
  virtual void on_recover() {}

  /// Peer-rejoin announcement (the runner calls it on every process when
  /// `peer` recovers): replies previously sent to `peer` may have fallen
  /// into its down window, so per-peer reply bookkeeping must be reset.
  /// Default: no-op.
  virtual void on_peer_recover(ProcId /*peer*/) {}

  /// Enables the scenario-assist gossip that keeps faulty runs live:
  /// (a) decide replies — a decided process answers stale non-DECIDE
  /// messages with a targeted DECIDE; (b) catch-up replies — an undecided
  /// process answers a PHASE message for any (round, phase) it has begun
  /// by retransmitting its own message of that (round, phase), once per
  /// (peer, round, phase), so a rejoined or loss-starved process can
  /// recover what it missed. Off by default (the paper's algorithms don't need
  /// either under reliable channels; keeping them off preserves
  /// byte-identical legacy runs). Default: ignored.
  virtual void set_scenario_assist(bool /*on*/) {}

  /// Installs an out-of-band observer notified of phase entries and
  /// decisions (src/obs/ per-phase latency instrumentation). The observer
  /// must outlive the process; nullptr detaches. Observation never feeds
  /// back into algorithm state, so an instrumented run is byte-identical
  /// to an uninstrumented one. Default: ignored (baselines report zeros).
  virtual void set_observer(obs::RunObserver* /*o*/) {}

  [[nodiscard]] virtual bool decided() const = 0;
  [[nodiscard]] virtual std::optional<Estimate> decision() const = 0;
  [[nodiscard]] virtual Round decision_round() const = 0;
  [[nodiscard]] virtual Round current_round() const = 0;
  /// True once the process hit its max-round cap and stopped advancing.
  [[nodiscard]] virtual bool parked() const = 0;
  [[nodiscard]] virtual const ProcessStats& stats() const = 0;
};

}  // namespace hyco
