// One simulated world of the paper's hybrid model: n crash-prone processes
// over asynchronous links. A World owns what every simulation driver needs
// before it adds its own processes and memories — the simulator, the crash
// plan and tracker, the delay model (inside a ScenarioEngine when the run
// has scenario faults) and the network — and schedules the crash, rejoin
// and start events the drivers share.
//
// Each driver (run_consensus, run_multivalued, run_tob,
// run_register_workload, run_mm, run_service) is a thin adapter: build a
// World, build the processes on its network, schedule through it, run its
// simulator, harvest the result. The order in which a driver schedules
// crashes, rejoins, starts and submissions fixes the events' sequence
// numbers, which break same-time ties and become trace message ids — so
// each driver keeps its own call order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/cluster_layout.h"
#include "core/types.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "scenario/scenario.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

class ScenarioEngine;
class Trace;

/// Not copyable or movable: scheduled closures capture `this`.
class World {
 public:
  /// Builds the world of `n` processes from `seed`. An empty crash plan
  /// means nobody crashes; otherwise it needs one spec per process (the
  /// network throws ContractViolation on a size mismatch). A non-empty
  /// `scenario` takes over `delays` and is resolved against `layout`,
  /// which must then be given. `trace`, when set, is enabled and records
  /// the network's sends, deliveries and drops.
  World(ProcId n, std::uint64_t seed, const CrashPlan& crashes,
        std::unique_ptr<DelayModel> delays, Trace* trace = nullptr,
        const ScenarioConfig& scenario = {},
        const ClusterLayout* layout = nullptr);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] SimNetwork& net() { return net_; }
  [[nodiscard]] CrashTracker& tracker() { return tracker_; }
  /// The run's fault engine; nullptr when the scenario is empty.
  [[nodiscard]] const ScenarioEngine* scenario() const {
    return scenario_.get();
  }

  /// Whether p is scheduled to go down during the run: its crash spec is
  /// not None, or the scenario cycles it through a crash-recovery window.
  [[nodiscard]] bool scheduled_down(ProcId p) const;

  /// Schedules the plan's AtTime crashes. A time <= 0 means down from the
  /// start: the process is marked crashed now, before any event runs.
  void schedule_crashes();

  /// Schedules the scenario's crash-recovery cycles (a no-op without a
  /// scenario): each process goes down at its down time (from the start
  /// when <= 0) and, unless it stays down, recovers at its up time and
  /// then `on_up(p)` runs, when set.
  void schedule_rejoins(std::function<void(ProcId)> on_up = nullptr);

  /// Schedules `start(p)` for every process p at a time drawn uniformly
  /// from [0, jitter] on the run's start stream (no draw when jitter is
  /// 0), stretched by p's clock skew. A process that is down at its start
  /// time does not start.
  void schedule_starts(SimTime jitter, std::function<void(ProcId)> start);

 private:
  void crash_at(ProcId p, SimTime at);

  std::uint64_t seed_;
  Simulator sim_;
  CrashPlan plan_;
  CrashTracker tracker_;
  std::unique_ptr<DelayModel> delays_;  ///< null once a scenario owns it
  std::unique_ptr<ScenarioEngine> scenario_;
  SimNetwork net_;
  std::function<void(ProcId)> on_up_;
  std::function<void(ProcId)> start_;
};

}  // namespace hyco
