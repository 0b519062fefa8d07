// Adversary demo: hands the message scheduler to an adversary that delays
// all messages carrying value 1 by 100x, trying to keep the system split
// between 0-supporters and 1-supporters. Randomized consensus defeats such
// schedulers with probability 1 — the demo shows both algorithms deciding
// anyway, and how the ε-biased coin degrades Algorithm 3 gracefully.
//
// Run: ./build/example_adversary_demo [--runs=N]
#include <iostream>
#include <memory>

#include "core/runner.h"
#include "util/options.h"
#include "util/stats.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int runs = static_cast<int>(opts.get_int("runs", 300));
  const auto layout = ClusterLayout::fig1_left();

  const auto adversary = [] {
    return std::make_unique<AdversarialDelay>(
        [](ProcId, ProcId, const Message& m, SimTime, Rng& rng) {
          const SimTime base = rng.uniform(10, 50);
          return m.est == Estimate::One ? base * 100 : base;
        });
  };

  std::cout << "value-split adversary (1-messages delayed 100x), " << runs
            << " runs each:\n";
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    Summary rounds;
    int decided0 = 0, decided1 = 0;
    for (int i = 0; i < runs; ++i) {
      RunConfig cfg(layout);
      cfg.alg = alg;
      cfg.inputs = split_inputs(7);
      cfg.seed = mix64(0xADD, static_cast<std::uint64_t>(i));
      cfg.delay_factory = adversary;
      const auto r = run_consensus(cfg);
      if (!r.success()) {
        std::cerr << "violation/timeout under adversary!\n";
        return 1;
      }
      rounds.add(static_cast<double>(r.max_decision_round));
      (*r.decided_value == Estimate::Zero ? decided0 : decided1)++;
    }
    std::cout << "  " << to_cstring(alg) << ": mean rounds "
              << rounds.mean() << ", p95 " << rounds.percentile(95)
              << ", decisions 0/1: " << decided0 << "/" << decided1
              << "  (adversary biases WHICH value wins — never safety)\n";
  }

  std::cout << "\nε-biased common coin (adversary picks bit 0 with prob ε):\n";
  for (const double eps : {0.0, 0.5, 0.9}) {
    Summary rounds;
    for (int i = 0; i < runs; ++i) {
      RunConfig cfg(layout);
      cfg.alg = Algorithm::HybridCommonCoin;
      cfg.inputs = split_inputs(7);
      cfg.seed = mix64(0xADE, static_cast<std::uint64_t>(i));
      cfg.coin_epsilon = eps;
      const auto r = run_consensus(cfg);
      if (!r.safe()) {
        std::cerr << "safety violation!\n";
        return 1;
      }
      rounds.add(static_cast<double>(r.max_decision_round));
    }
    std::cout << "  eps=" << eps << ": mean rounds " << rounds.mean()
              << " (slower, never wrong)\n";
  }
  return 0;
}
