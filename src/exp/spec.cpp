#include "exp/spec.h"

#include <limits>
#include <sstream>
#include <utility>

#include "exp/sink.h"
#include "service/service_runner.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

namespace {

/// Rejects a delay configuration its delay model would refuse mid-run.
void check_delay(const DelayAxis& d) {
  const DelayConfig& c = d.config;
  switch (c.kind) {
    case DelayConfig::Kind::Constant:
      HYCO_CHECK_MSG(c.constant >= 0, "delay \"" << d.name
                         << "\": constant delay must be >= 0, got "
                         << c.constant);
      break;
    case DelayConfig::Kind::Uniform:
      HYCO_CHECK_MSG(c.uniform_lo >= 0 && c.uniform_hi >= c.uniform_lo,
                     "delay \"" << d.name << "\": uniform range ["
                         << c.uniform_lo << ", " << c.uniform_hi
                         << "] needs 0 <= LO <= HI");
      break;
    case DelayConfig::Kind::Exponential:
      HYCO_CHECK_MSG(c.exp_mean > 0.0, "delay \"" << d.name
                         << "\": exponential mean must be > 0, got "
                         << c.exp_mean);
      break;
  }
}

}  // namespace

DelayAxis DelayAxis::of(std::string name, DelayConfig cfg) {
  DelayAxis a;
  a.name = std::move(name);
  a.config = cfg;
  return a;
}

DelayAxis DelayAxis::adversarial(
    std::string name, std::function<std::unique_ptr<DelayModel>()> factory) {
  DelayAxis a;
  a.name = std::move(name);
  a.factory = std::move(factory);
  return a;
}

CrashAxis CrashAxis::none() { return CrashAxis{}; }

CrashAxis CrashAxis::of(std::string name, CrashPlan plan) {
  CrashAxis a;
  a.name = std::move(name);
  a.make = [plan = std::move(plan)](const ClusterLayout& layout) {
    HYCO_CHECK_MSG(plan.specs.size() == static_cast<std::size_t>(layout.n()),
                   "fixed crash plan sized for n=" << plan.specs.size()
                                                   << " used with n="
                                                   << layout.n());
    return plan;
  };
  return a;
}

CrashAxis CrashAxis::of(std::string name,
                        std::function<CrashPlan(const ClusterLayout&)> make) {
  CrashAxis a;
  a.name = std::move(name);
  a.make = std::move(make);
  return a;
}

ScenarioAxis ScenarioAxis::none() { return ScenarioAxis{}; }

ScenarioAxis ScenarioAxis::of(std::string name, ScenarioConfig config) {
  ScenarioAxis a;
  a.name = std::move(name);
  a.config = std::move(config);
  return a;
}

ScenarioAxis ScenarioAxis::of(ScenarioConfig config) {
  ScenarioAxis a;
  a.name = config.label();
  a.config = std::move(config);
  return a;
}

ServiceAxis ServiceAxis::none() { return ServiceAxis{}; }

ServiceAxis ServiceAxis::of(std::uint64_t clients,
                            std::uint64_t ops_per_client,
                            std::size_t batch_max, SimTime batch_delay,
                            double load) {
  ServiceAxis a;
  a.enabled = true;
  a.clients = clients;
  a.ops_per_client = ops_per_client;
  a.batch_max = batch_max;
  a.batch_delay = batch_delay;
  a.load = load;
  std::ostringstream os;
  os << "c" << clients << "x" << ops_per_client << " b" << batch_max << " d"
     << batch_delay << " l" << load;
  a.name = os.str();
  return a;
}

const char* to_cstring(InputKind k) {
  switch (k) {
    case InputKind::Split: return "split";
    case InputKind::AllZero: return "all-0";
    case InputKind::AllOne: return "all-1";
  }
  return "?";
}

std::size_t ExperimentSpec::cell_count() const {
  return algorithms.size() * layouts.size() * delays.size() * crashes.size() *
         scenarios.size() * coin_epsilons.size() * services.size();
}

std::uint64_t ExperimentSpec::total_runs() const {
  const auto cells = static_cast<std::uint64_t>(cell_count());
  if (cells == 0 || runs_per_cell == 0) return 0;
  HYCO_CHECK_MSG(runs_per_cell <=
                     std::numeric_limits<std::uint64_t>::max() / cells,
                 "grid size overflows: " << cells << " cells x "
                                         << runs_per_cell << " runs");
  return cells * runs_per_cell;
}

std::vector<ExperimentCell> ExperimentSpec::expand() const {
  HYCO_CHECK_MSG(!algorithms.empty(), "experiment needs >= 1 algorithm");
  HYCO_CHECK_MSG(!layouts.empty(), "experiment needs >= 1 layout");
  HYCO_CHECK_MSG(!delays.empty(), "experiment needs >= 1 delay axis value");
  HYCO_CHECK_MSG(!crashes.empty(), "experiment needs >= 1 crash axis value");
  HYCO_CHECK_MSG(!scenarios.empty(),
                 "experiment needs >= 1 scenario axis value");
  HYCO_CHECK_MSG(!coin_epsilons.empty(),
                 "experiment needs >= 1 coin_epsilon value");
  HYCO_CHECK_MSG(!services.empty(),
                 "experiment needs >= 1 service axis value");
  HYCO_CHECK_MSG(runs_per_cell >= 1, "runs_per_cell must be >= 1");
  // Values a run would reject, rejected here instead: expand() runs on the
  // caller's thread, a run may not.
  HYCO_CHECK_MSG(max_rounds >= 1,
                 "max_rounds must be >= 1, got " << max_rounds);
  for (const double eps : coin_epsilons) {
    HYCO_CHECK_MSG(eps >= 0.0 && eps <= 1.0,
                   "coin_epsilon must be in [0, 1], got " << eps);
  }
  for (const DelayAxis& d : delays) check_delay(d);

  std::vector<ExperimentCell> cells;
  cells.reserve(cell_count());
  for (const Algorithm alg : algorithms) {
    for (const ClusterLayout& layout : layouts) {
      for (const DelayAxis& delay : delays) {
        for (const CrashAxis& crash : crashes) {
          for (const ScenarioAxis& scenario : scenarios) {
            for (const double eps : coin_epsilons) {
              for (const ServiceAxis& service : services) {
                ExperimentCell c(layout);
                c.index = cells.size();
                c.alg = alg;
                c.delay = delay;
                c.crash = crash;
                c.scenario = scenario;
                c.coin_epsilon = eps;
                c.service = service;
                c.runs = runs_per_cell;
                c.base_seed = base_seed;
                c.inputs = inputs;
                c.max_rounds = max_rounds;
                c.collect_obs = collect_obs;
                cells.push_back(std::move(c));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::uint64_t ExperimentCell::seed_for(std::uint64_t run) const {
  return mix64(base_seed, mix64(static_cast<std::uint64_t>(index), run));
}

RunConfig ExperimentCell::run_config(std::uint64_t run) const {
  HYCO_CHECK_MSG(run < runs,
                 "run index " << run << " out of range [0, " << runs << ")");
  RunConfig cfg(layout);
  cfg.alg = alg;
  switch (inputs) {
    case InputKind::Split: cfg.inputs = split_inputs(layout.n()); break;
    case InputKind::AllZero:
      cfg.inputs = uniform_inputs(layout.n(), Estimate::Zero);
      break;
    case InputKind::AllOne:
      cfg.inputs = uniform_inputs(layout.n(), Estimate::One);
      break;
  }
  cfg.seed = seed_for(run);
  cfg.delays = delay.config;
  cfg.delay_factory = delay.factory;
  if (crash.make) cfg.crashes = crash.make(layout);
  cfg.scenario = scenario.config;
  cfg.max_rounds = max_rounds;
  cfg.coin_epsilon = coin_epsilon;
  cfg.collect_obs = collect_obs;
  return cfg;
}

ServiceRunConfig ExperimentCell::service_run_config(std::uint64_t run) const {
  HYCO_CHECK_MSG(run < runs,
                 "run index " << run << " out of range [0, " << runs << ")");
  HYCO_CHECK_MSG(service.enabled,
                 "service_run_config on a non-service cell");
  ServiceRunConfig cfg(layout);
  cfg.seed = seed_for(run);
  cfg.delays = delay.config;
  cfg.delay_factory = delay.factory;
  if (crash.make) cfg.crashes = crash.make(layout);
  cfg.scenario = scenario.config;
  cfg.max_rounds_per_bit = max_rounds;
  cfg.coin_epsilon = coin_epsilon;
  cfg.clients = service.clients;
  cfg.ops_per_client = service.ops_per_client;
  cfg.batch_max = service.batch_max;
  cfg.batch_delay = service.batch_delay;
  cfg.load = service.load;
  return cfg;
}

RunRecord ExperimentCell::run_record(std::uint64_t run) const {
  if (service.enabled) {
    const ServiceRunConfig cfg = service_run_config(run);
    return extract_service_record(run, cfg.seed, run_service(cfg));
  }
  const RunConfig cfg = run_config(run);
  return extract_record(run, cfg.seed, run_consensus(cfg));
}

std::string ExperimentCell::label() const {
  std::ostringstream os;
  os << to_cstring(alg) << " n=" << layout.n() << " m=" << layout.m()
     << " delay=" << delay.name << " crash=" << crash.name
     << " scn=" << scenario.name << " eps=" << coin_epsilon;
  if (service.enabled) os << " svc=" << service.name;
  return os.str();
}

}  // namespace hyco
