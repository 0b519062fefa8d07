// Common-coin demo (Algorithm 3): 32 processes in 4 clusters decide a
// contested value in an expected O(1) number of rounds — the round count
// does not grow with n. The demo sweeps n to make the claim visible and
// prints the round-count histogram for the largest system.
//
// Run: ./build/example_common_coin_demo [--runs=N]
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "core/runner.h"
#include "util/options.h"
#include "util/stats.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int runs = static_cast<int>(opts.get_int("runs", 500));

  std::cout << "Algorithm 3 (common coin), split inputs, " << runs
            << " runs per n:\n\n";
  std::cout << "   n   mean rounds   p95   max\n";
  for (const ProcId n : {8, 16, 32, 64}) {
    Summary rounds;
    for (int i = 0; i < runs; ++i) {
      RunConfig cfg(ClusterLayout::even(n, 4));
      cfg.alg = Algorithm::HybridCommonCoin;
      cfg.inputs = split_inputs(n);
      cfg.seed = mix64(0xDE40, static_cast<std::uint64_t>(i));
      const auto r = run_consensus(cfg);
      if (!r.success()) {
        std::cerr << "unexpected failure at n=" << n << "\n";
        return 1;
      }
      rounds.add(static_cast<double>(r.max_decision_round));
    }
    std::cout << "  " << n << "\t" << rounds.mean() << "\t"
              << rounds.percentile(95) << "\t" << rounds.max() << '\n';
  }

  std::cout << "\nround distribution at n=64 (geometric tail — each round"
               " past agreement decides w.p. 1/2):\n";
  std::map<Round, int> by_round;
  int peak = 1;
  for (int i = 0; i < runs; ++i) {
    RunConfig cfg(ClusterLayout::even(64, 4));
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.inputs = split_inputs(64);
    cfg.seed = mix64(0xDE41, static_cast<std::uint64_t>(i));
    peak = std::max(peak, ++by_round[run_consensus(cfg).max_decision_round]);
  }
  for (const auto& [round, count] : by_round) {
    std::cout << std::setw(4) << round << " | "
              << std::string(static_cast<std::size_t>(count * 40 / peak), '#')
              << ' ' << count << '\n';
  }
  return 0;
}
