// T-ADV — adversarial-scheduler and imperfect-coin ablation:
//   * a value-split delay adversary (delays 1-carrying messages) against
//     Algorithm 2 vs Algorithm 3 — randomization defeats it, but round
//     counts degrade gracefully;
//   * an ε-biased common coin against Algorithm 3 — the adversary's ability
//     to pick coin bits slows (never corrupts) decisions.
// Usage: table_adversary [--runs=N] [--threads=K]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "exp/executor.h"
#include "util/options.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyco;

namespace {

DelayAxis split_adversary(SimTime factor) {
  return DelayAxis::adversarial(
      "split-x" + std::to_string(factor), [factor] {
        return std::make_unique<AdversarialDelay>(
            [factor](ProcId, ProcId, const Message& m, SimTime, Rng& rng) {
              const SimTime base = rng.uniform(10, 50);
              return m.est == Estimate::One ? base * factor : base;
            });
      });
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const std::uint64_t runs = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, opts.get_int("runs", 200)));
  ParallelExecutor::Options exec_opts;
  exec_opts.threads = opts.get_int("threads", 0);
  const ParallelExecutor exec(exec_opts);

  std::cout << "T-ADV: adversarial scheduling and imperfect coins (n=7,"
               " fig1-left, split inputs, " << runs << " seeds)\n\n";

  Table t("value-split delay adversary (messages carrying 1 delayed x"
          " factor)");
  t.set_columns({"delay factor", "algorithm", "terminated", "violations",
                 "mean rounds", "p95 rounds"});
  {
    const std::vector<SimTime> factors{1, 10, 100};
    ExperimentSpec spec;
    spec.name = "t-adv-split";
    spec.algorithms = {Algorithm::HybridLocalCoin,
                       Algorithm::HybridCommonCoin};
    spec.layouts = {ClusterLayout::fig1_left()};
    spec.delays.clear();
    for (const SimTime factor : factors) {
      spec.delays.push_back(split_adversary(factor));
    }
    spec.runs_per_cell = runs;
    spec.base_seed = 0xAD;
    const auto res = exec.run(spec);
    // Expansion is algorithms ▸ delays; the table iterates factor outer,
    // algorithm inner, so cell (a, f) sits at a * factors.size() + f.
    for (std::size_t f = 0; f < factors.size(); ++f) {
      for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
        const auto& r = res[a * factors.size() + f];
        t.add_row_values(factors[f], to_cstring(r.cell.alg),
                         std::to_string(r.terminated()) + "/" +
                             std::to_string(r.runs()),
                         r.violations(), fixed(r.rounds().mean()),
                         fixed(r.rounds().percentile(95)));
      }
    }
  }
  t.print(std::cout);

  Table b("ε-biased common coin (adversary substitutes bit 0 with"
          " probability ε)");
  b.set_columns({"epsilon", "terminated", "violations", "mean rounds",
                 "p95 rounds"});
  {
    ExperimentSpec spec;
    spec.name = "t-adv-coin";
    spec.algorithms = {Algorithm::HybridCommonCoin};
    spec.layouts = {ClusterLayout::fig1_left()};
    spec.coin_epsilons = {0.0, 0.1, 0.25, 0.5, 0.9};
    spec.runs_per_cell = runs;
    spec.base_seed = 0xAE;
    for (const auto& r : exec.run(spec)) {
      b.add_row_values(fixed(r.cell.coin_epsilon, 2),
                       std::to_string(r.terminated()) + "/" +
                           std::to_string(r.runs()),
                       r.violations(), fixed(r.rounds().mean()),
                       fixed(r.rounds().percentile(95)));
    }
  }
  b.print(std::cout);

  std::cout << "Expected shape: termination stays 100% with 0 violations in"
               " every cell (indulgence + randomization);\nround counts rise"
               " with the delay factor and with ε — the adversary can slow,"
               " never corrupt.\n";
  return 0;
}
