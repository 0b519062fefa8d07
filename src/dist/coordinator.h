// Coordinator — owns one grid execution and farms its chunks to TCP
// workers (src/dist/worker.h). The chunk-granular WorkLedger accepts each
// chunk exactly once, and the coordinator hands it to the caller's RunSink
// exactly as ParallelExecutor does: absorb, then on_cell_complete when the
// cell's last chunk lands.
//
// Determinism contract: the sink sees exactly-once chunk accumulators over
// the spans it was given. Because every accumulator component is
// merge-order-invariant (exp/sink.h), a CollectingSink — and every CSV/JSON
// byte rendered from it — ends up identical to a single-machine `--stream`
// run at any worker count, lease grain, arrival order, or worker failure
// pattern.
//
// Fault handling: a worker disconnect re-queues its leased chunks; a lease
// older than lease_ttl is re-queued even without a disconnect (a wedged
// worker); a result arriving for an already-folded chunk (the original
// worker raced its re-issued lease) is dropped as a duplicate. The
// coordinator is single-threaded (one poll loop) — no locks, and the
// sink's calls (and its checkpoint hooks) run serialized.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dist/ledger.h"
#include "dist/proto.h"
#include "exp/sink.h"
#include "exp/spec.h"
#include "obs/health.h"

namespace hyco::dist {

struct CoordinatorOptions {
  /// TCP port to listen on; 0 = kernel-assigned (query with port()).
  std::uint16_t port = 0;
  /// Runs per lease chunk. Smaller = finer failure granularity and better
  /// load balance; larger = less protocol overhead. Never changes output
  /// bytes.
  std::uint64_t lease_grain = 4096;
  /// Adaptive-tail floor: as the pending pool drains, lease sizes shrink
  /// (halving) from lease_grain down to this so the final chunks land on
  /// all workers instead of one straggler (ledger.h adaptive_lease_cap).
  /// Never changes output bytes. Set equal to lease_grain to disable.
  std::uint64_t lease_floor = 32;
  /// A lease not folded within this window is re-queued for other workers.
  std::chrono::milliseconds lease_ttl{60'000};
  /// Poll-loop tick (lease expiry + progress cadence), and the retry hint
  /// sent with Wait replies.
  std::chrono::milliseconds poll_interval{100};
  /// Hard deadline for serve(); 0 = wait forever. Tests set it so a
  /// regression fails loudly instead of hanging CI.
  std::chrono::milliseconds max_wait{0};
  std::size_t reservoir_capacity = MetricStats::kDefaultReservoir;
  std::size_t failure_capacity = CellAccumulator::kDefaultFailureCap;
  /// Progress hook, called at most once per poll tick: (folded runs, total
  /// runs, connected workers), both counts over every cell, resumed runs
  /// included.
  std::function<void(std::uint64_t, std::uint64_t, std::size_t)> progress;
  /// Read-only HTTP health/progress endpoint: -1 = disabled, 0 =
  /// kernel-assigned (query with health_port()), else the TCP port to bind.
  /// Each request is answered with one "hyco-health/2" JSON document
  /// (obs/health.h) on the coordinator's own poll loop — no extra thread,
  /// and no interaction with the worker protocol.
  int health_port = -1;
  /// Chaos hook for crash tests: after this many accepted chunk folds the
  /// coordinator abruptly closes every socket (no Done broadcast — the
  /// moral equivalent of SIGKILL) and serve() throws ChaosKill. Whatever
  /// the sink checkpointed so far is exactly what a restarted --resume
  /// coordinator picks up. 0 = disabled (production).
  std::uint64_t crash_after_chunks = 0;
};

/// Thrown by serve() when crash_after_chunks fires. Deliberately not a
/// ContractViolation: tests catch this precise type to distinguish the
/// injected crash from a real failure.
struct ChaosKill {
  std::uint64_t folded_chunks = 0;  ///< accepted folds before the kill
};

class Coordinator {
 public:
  /// `cells` is the grid; `spans` the run ranges still to execute (for a
  /// resumed sweep, ResumePlan::spans — runs outside them count as
  /// resumed). `fingerprint` is the grid's identity that worker Hellos
  /// must match.
  Coordinator(std::vector<ExperimentCell> cells, std::vector<RunSpan> spans,
              std::uint64_t fingerprint, CoordinatorOptions opts);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds + listens; after this port() is valid (call before starting
  /// workers). Throws ContractViolation when the port is unavailable.
  void bind();
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }
  /// Bound health-endpoint port; 0 until bind() (or when disabled).
  [[nodiscard]] std::uint16_t health_port() const { return health_port_; }

  /// Runs the accept/lease/fold loop until every span has folded (or
  /// max_wait expires → ContractViolation), handing each accepted chunk to
  /// `sink`. Call bind() first.
  void serve(RunSink& sink);

 private:
  struct Conn;

  /// Returns false when the connection must be dropped.
  [[nodiscard]] bool handle_frame(Conn& conn, const Frame& frame,
                                  RunSink& sink);
  /// Point-in-time progress snapshot for the health endpoint.
  [[nodiscard]] obs::HealthSnapshot snapshot(
      WorkLedger::Clock::time_point started) const;
  /// Accepts one health request and answers it (blocking, short timeouts).
  void serve_health_request(WorkLedger::Clock::time_point started);

  std::vector<ExperimentCell> cells_;
  std::map<std::uint64_t, std::size_t> index_to_pos_;  ///< cell.index → pos
  CoordinatorOptions opts_;
  std::uint64_t fingerprint_;
  WorkLedger ledger_;
  std::uint64_t resumed_runs_ = 0;  ///< grid runs outside the spans

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  int health_fd_ = -1;
  std::uint16_t health_port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_owner_ = 1;

  // Recovery counters (surfaced on the health endpoint, hyco-health/2):
  std::uint64_t lease_expiries_ = 0;
  std::uint64_t requeued_chunks_ = 0;
  std::uint64_t worker_reconnects_ = 0;
  std::uint64_t accepted_folds_ = 0;
  /// Last time a checkpointing sink returned from a fold (i.e. the
  /// checkpoint writer flushed); unset until the first flush.
  std::optional<WorkLedger::Clock::time_point> last_flush_;
};

}  // namespace hyco::dist
