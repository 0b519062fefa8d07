// T-ABL — ablations of the reproduction's design choices (DESIGN.md §4):
//   * delay distribution: constant vs uniform vs exponential (round counts
//     should be distribution-robust; simulated latency shifts);
//   * DECIDE gossip contribution: measured as the share of processes whose
//     decision round differs from the maximum (i.e. they were pulled over
//     the line by gossip rather than their own phase completion).
// Usage: table_ablation [--runs=N]
#include <algorithm>
#include <cstdint>
#include <iostream>

#include "core/runner.h"
#include "util/options.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const std::uint64_t runs = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, opts.get_int("runs", 200)));
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});

  std::cout << "T-ABL: design-choice ablations (n=7, split inputs, " << runs
            << " seeds)\n\n";

  Table delays("delay distribution robustness (hybrid-CC)");
  delays.set_columns({"distribution", "mean rounds", "p95 rounds",
                      "mean sim latency (ns)"});
  const struct {
    const char* name;
    DelayConfig cfg;
  } dists[] = {
      {"constant(100)", DelayConfig::constant_of(100)},
      {"uniform(50,150)", DelayConfig::uniform(50, 150)},
      {"uniform(1,500)", DelayConfig::uniform(1, 500)},
      {"exponential(100)", DelayConfig::exponential(100.0)},
  };
  for (const auto& d : dists) {
    Summary rounds, latency;
    for (int i = 0; i < runs; ++i) {
      RunConfig cfg(layout);
      cfg.alg = Algorithm::HybridCommonCoin;
      cfg.inputs = split_inputs(7);
      cfg.seed = mix64(0xAB2, static_cast<std::uint64_t>(i));
      cfg.delays = d.cfg;
      const auto r = run_consensus(cfg);
      rounds.add(static_cast<double>(r.max_decision_round));
      latency.add(static_cast<double>(r.last_decision_time));
    }
    delays.add_row_values(d.name, fixed(rounds.mean()),
                          fixed(rounds.percentile(95)),
                          fixed(latency.mean(), 0));
  }
  delays.print(std::cout);

  Table gossip("DECIDE gossip contribution (hybrid-LC)");
  gossip.set_columns({"metric", "value"});
  {
    Summary pulled;
    for (int i = 0; i < runs; ++i) {
      RunConfig cfg(layout);
      cfg.alg = Algorithm::HybridLocalCoin;
      cfg.inputs = split_inputs(7);
      cfg.seed = mix64(0xAB3, static_cast<std::uint64_t>(i));
      const auto r = run_consensus(cfg);
      int early = 0;
      for (const Round dr : r.decision_rounds) {
        if (dr < r.max_decision_round) ++early;
      }
      pulled.add(static_cast<double>(early) / 7.0);
    }
    gossip.add_row_values("mean share of processes decided before the last"
                          " round (gossip or early phase-2)",
                          fixed(pulled.mean() * 100.0, 1) + " %");
  }
  gossip.print(std::cout);

  std::cout << "Expected shape: round counts are delay-distribution robust;"
               " only simulated latency scales.\n";
  return 0;
}
