// Declarative experiment grids (the paper's tables are sweeps over
// {algorithm, layout, delay model, crash pattern, coin quality} × seeds).
//
// An ExperimentSpec names one value list per axis; expand() produces the
// cross-product as ExperimentCell values, each of which can mint the
// RunConfig of any of its seeds. Cells are plain data, independent, and
// seed-deterministic: cell `index` + run `k` always maps to the same
// RunConfig regardless of how (or on how many threads) the grid is executed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "core/runner.h"
#include "net/delay_model.h"
#include "scenario/scenario.h"
#include "sim/crash.h"

namespace hyco {

/// One value of the delay axis: a label plus either a declarative
/// DelayConfig or a custom factory (for adversarial schedulers).
struct DelayAxis {
  std::string name = "uniform(50,150)";
  DelayConfig config = DelayConfig::uniform(50, 150);
  std::function<std::unique_ptr<DelayModel>()> factory;  ///< overrides config

  static DelayAxis of(std::string name, DelayConfig cfg);
  static DelayAxis adversarial(
      std::string name, std::function<std::unique_ptr<DelayModel>()> factory);
};

/// One value of the crash axis: a label plus a plan generator. The generator
/// takes the cell's layout so one axis value can apply to every layout in
/// the grid (crash plans are sized to n).
struct CrashAxis {
  std::string name = "none";
  std::function<CrashPlan(const ClusterLayout&)> make;  ///< null = no crashes

  static CrashAxis none();
  static CrashAxis of(std::string name, CrashPlan plan);
  static CrashAxis of(std::string name,
                      std::function<CrashPlan(const ClusterLayout&)> make);
};

/// One value of the scenario axis: a label plus the adversarial scenario
/// applied to every run of the cell (partitions, link faults, recoveries,
/// coin attack — src/scenario/scenario.h). Declarative specs are resolved
/// against each cell's layout, so one axis value rides every (n, m).
struct ScenarioAxis {
  std::string name = "none";
  ScenarioConfig config;

  static ScenarioAxis none();
  static ScenarioAxis of(std::string name, ScenarioConfig config);
  /// Labels the axis with the config's own compact label().
  static ScenarioAxis of(ScenarioConfig config);
};

/// One value of the service-workload axis: when enabled, the cell's runs
/// execute the replicated service (run_service) — closed-loop clients
/// driving batched total-order broadcast — instead of single-instance
/// consensus. The default `none()` keeps the grid a pure consensus sweep
/// (labels, fingerprints, and artifacts byte-identical to pre-service
/// builds).
struct ServiceAxis {
  std::string name = "none";
  bool enabled = false;
  std::uint64_t clients = 0;
  std::uint64_t ops_per_client = 1;
  std::size_t batch_max = 64;
  SimTime batch_delay = 50'000;  ///< ns; 0 = flush every op
  double load = 0.0;             ///< offered load, ops/sec; 0 = no think time

  static ServiceAxis none();
  /// Labels itself "c<clients>x<ops> b<batch_max> d<batch_delay> l<load>".
  static ServiceAxis of(std::uint64_t clients, std::uint64_t ops_per_client,
                        std::size_t batch_max, SimTime batch_delay,
                        double load);
};

struct RunRecord;
struct ServiceRunConfig;

/// How proposals are assigned across processes.
enum class InputKind : std::uint8_t {
  Split,    ///< process i proposes i % 2 — the adversarially divided start
  AllZero,  ///< unanimous 0
  AllOne,   ///< unanimous 1
};

const char* to_cstring(InputKind k);

struct ExperimentCell;

/// A full parameter grid. Every axis must be non-empty (expand() checks);
/// the defaults make single-axis sweeps one-liners.
struct ExperimentSpec {
  std::string name = "experiment";

  /// Not Algorithm::Mm: a grid has no memory-domain axis.
  std::vector<Algorithm> algorithms{Algorithm::HybridLocalCoin};
  std::vector<ClusterLayout> layouts;
  std::vector<DelayAxis> delays{DelayAxis{}};
  std::vector<CrashAxis> crashes{CrashAxis::none()};
  std::vector<ScenarioAxis> scenarios{ScenarioAxis{}};
  std::vector<double> coin_epsilons{0.0};
  std::vector<ServiceAxis> services{ServiceAxis{}};

  /// Seeds per cell. 64-bit end to end: multi-million-run grids (and the
  /// cells × runs product) must not wrap 32-bit counters anywhere.
  std::uint64_t runs_per_cell = 40;
  std::uint64_t base_seed = 1;
  InputKind inputs = InputKind::Split;
  Round max_rounds = 5000;

  /// Collect per-phase latency timings on every run (RunConfig::collect_obs).
  /// Out of band: results and emitted artifacts stay byte-identical apart
  /// from the opt-in observability columns themselves.
  bool collect_obs = false;

  /// Cross-product size (cells, not runs).
  [[nodiscard]] std::size_t cell_count() const;

  /// Total run count (cell_count() × runs_per_cell), overflow-checked.
  [[nodiscard]] std::uint64_t total_runs() const;

  /// Expands the grid row-major in axis declaration order: algorithms ▸
  /// layouts ▸ delays ▸ crashes ▸ scenarios ▸ coin_epsilons ▸ services.
  /// Throws ContractViolation if any axis is empty, runs_per_cell < 1 or
  /// an algorithm is Algorithm::Mm.
  [[nodiscard]] std::vector<ExperimentCell> expand() const;
};

/// One point of the grid; knows how to build the RunConfig of each seed.
struct ExperimentCell {
  std::size_t index = 0;  ///< position in the row-major expansion
  Algorithm alg = Algorithm::HybridLocalCoin;
  ClusterLayout layout;
  DelayAxis delay;
  CrashAxis crash;
  ScenarioAxis scenario;
  double coin_epsilon = 0.0;
  ServiceAxis service;

  // Scalars snapshotted from the spec so a cell is self-contained.
  std::uint64_t runs = 0;
  std::uint64_t base_seed = 1;
  InputKind inputs = InputKind::Split;
  Round max_rounds = 5000;
  bool collect_obs = false;

  explicit ExperimentCell(ClusterLayout l) : layout(std::move(l)) {}

  /// The seed of run k — a pure function of (base_seed, index, k), so
  /// results are replayable from the aggregate report alone.
  [[nodiscard]] std::uint64_t seed_for(std::uint64_t run) const;

  /// Mints the full RunConfig of run k (0 <= k < runs).
  [[nodiscard]] RunConfig run_config(std::uint64_t run) const;

  /// Mints the ServiceRunConfig of run k; service.enabled must hold.
  [[nodiscard]] ServiceRunConfig service_run_config(std::uint64_t run) const;

  /// Executes run k — run_service() on service cells, run_consensus()
  /// otherwise — and extracts its RunRecord.
  [[nodiscard]] RunRecord run_record(std::uint64_t run) const;

  /// "hybrid-CC n=16 m=4 delay=uniform(50,150) crash=none scn=none eps=0" —
  /// stable across runs; used in tables, CSV, and JSON. Service cells
  /// append " svc=<name>" (plain consensus labels are unchanged, keeping
  /// old grid fingerprints and checkpoints valid).
  [[nodiscard]] std::string label() const;
};

}  // namespace hyco
