// Quickstart: binary consensus among 7 processes arranged in the paper's
// Figure 1 (left) decomposition — three clusters of sizes {2, 3, 2} — using
// the local-coin Algorithm 2 on the deterministic simulator.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run: ./build/example_quickstart [--seed=N]
#include <iostream>

#include "core/runner.h"
#include "util/options.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);

  // 1. Describe the system: n = 7 processes in m = 3 clusters. Processes
  //    within one cluster share a memory (with compare&swap); everyone can
  //    message everyone.
  const auto layout = ClusterLayout::fig1_left();
  std::cout << "layout: " << layout.to_string() << "  (n=" << layout.n()
            << ", m=" << layout.m() << ")\n";

  // 2. Configure a run: the local-coin algorithm, a contested input vector
  //    (even processes propose 0, odd propose 1), random message delays.
  RunConfig cfg(layout);
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(layout.n());
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 2024));
  cfg.delays = DelayConfig::uniform(50, 150);

  // 3. Run it. The runner wires up the simulator, network, per-cluster
  //    memories and processes, and checks every paper invariant online.
  const RunResult result = run_consensus(cfg);

  // 4. Inspect the outcome.
  std::cout << "decided value : " << *result.decided_value << '\n'
            << "rounds needed : " << result.max_decision_round << '\n'
            << "messages sent : " << result.net.unicasts_sent << '\n'
            << "shm proposals : " << result.shm.consensus_proposals << '\n'
            << "sim time (ns) : " << result.last_decision_time << '\n'
            << "all correct processes decided: "
            << (result.all_correct_decided ? "yes" : "no") << '\n'
            << "safety (agreement/validity/WA1/WA2): "
            << (result.safe() ? "ok" : "VIOLATED") << '\n';

  for (ProcId p = 0; p < layout.n(); ++p) {
    const auto idx = static_cast<std::size_t>(p);
    std::cout << "  p" << p << " proposed " << cfg.inputs[idx] << ", decided "
              << *result.decisions[idx] << " in round "
              << result.decision_rounds[idx] << '\n';
  }
  return result.success() ? 0 : 1;
}
