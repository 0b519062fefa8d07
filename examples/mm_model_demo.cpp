// m&m model demo (Section III-C + appendix): builds the Figure 2 uniform
// shared-memory domain from its graph, prints the S_i sets exactly as the
// paper's appendix lists them, runs the m&m consensus comparator, and
// contrasts its consensus-object usage with the hybrid model's.
//
// Run: ./build/example_mm_model_demo
#include <iostream>

#include "baseline/mm_domain.h"
#include "core/runner.h"

using namespace hyco;

int main() {
  const auto d = MmDomain::fig2();
  std::cout << "Figure 2 graph: 5 processes, edges"
               " {p0p1, p1p2, p2p3, p2p4, p3p4}\n";
  std::cout << "memory domains: " << d.to_string() << "\n\n";

  RunConfig cfg(d);
  cfg.seed = 5;
  const auto r = run_consensus(cfg);
  std::cout << "m&m consensus on this domain: decided "
            << (r.decided_value ? to_cstring(*r.decided_value) : "nothing")
            << " in " << r.max_decision_round << " round(s), "
            << r.shm.consensus_proposals << " consensus proposals\n\n";

  std::cout << "per-process consensus-object invocations per phase"
               " (m&m claim: degree + 1):\n";
  for (ProcId p = 0; p < d.n(); ++p) {
    const auto& st = r.proc_stats[static_cast<std::size_t>(p)];
    const double per_phase =
        st.rounds_entered > 0
            ? static_cast<double>(st.cons_invocations) /
                  (2.0 * static_cast<double>(st.rounds_entered))
            : 0.0;
    std::cout << "  p" << p << ": degree " << d.degree(p) << " -> "
              << per_phase << " invocations/phase\n";
  }

  // The hybrid side of the III-C comparison on the same number of
  // processes, 2 clusters: always exactly 1 invocation per phase.
  RunConfig hybrid(ClusterLayout::from_sizes({3, 2}));
  hybrid.alg = Algorithm::HybridLocalCoin;
  hybrid.inputs = split_inputs(5);
  hybrid.seed = 5;
  const auto hr = run_consensus(hybrid);
  std::cout << "\nhybrid (n=5, m=2) for contrast: ";
  const auto& st = hr.proc_stats[0];
  std::cout << static_cast<double>(st.cons_invocations) /
                   (2.0 * static_cast<double>(st.rounds_entered))
            << " invocation/phase per process, " << hr.consensus_objects
            << " objects total for " << hr.max_decision_round
            << " round(s)\n";
  std::cout << "\nThe m&m model also lacks the one-for-all closure: see"
               " tests/mm_model_test.cpp (NoOneForAllClosure).\n";
  return 0;
}
