// T-INV — the Section III-C comparison table: consensus-object usage per
// phase of a round in the hybrid model vs the m&m model.
//
// Paper claims:
//   hybrid:  a process invokes exactly 1 consensus object per phase;
//            the system touches m objects per phase (one per cluster).
//   m&m:     a process invokes a_i + 1 objects per phase (a_i = degree);
//            the system touches n objects per phase (one per process).
// Usage: table_invocations
#include <iostream>

#include "baseline/mm_domain.h"
#include "core/runner.h"
#include "util/table.h"

using namespace hyco;

namespace {

// Consensus objects the system touched per phase: one round = 2 phases.
double objects_per_phase(const RunResult& r) {
  return static_cast<double>(r.consensus_objects) /
         (2.0 * static_cast<double>(r.max_decision_round));
}

// One hybrid measurement row: run to decision, derive per-process-per-phase
// invocations and system objects per phase from the instrumentation.
void hybrid_row(Table& t, const char* label, const ClusterLayout& layout) {
  RunConfig cfg(layout);
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = uniform_inputs(layout.n(), Estimate::Zero);  // 1-round run
  cfg.seed = 0x11;
  const auto r = run_consensus(cfg);

  double max_per_phase = 0.0;
  for (const auto& st : r.proc_stats) {
    if (st.rounds_entered == 0) continue;
    max_per_phase = std::max(
        max_per_phase, static_cast<double>(st.cons_invocations) /
                           (2.0 * static_cast<double>(st.rounds_entered)));
  }
  t.add_row_values(label, "hybrid", layout.n(), layout.m(), "1",
                   fixed(max_per_phase, 1), std::to_string(layout.m()),
                   fixed(objects_per_phase(r), 1));
}

void mm_row(Table& t, const char* label, const MmDomain& d) {
  RunConfig cfg(d);
  cfg.inputs = std::vector<Estimate>(static_cast<std::size_t>(d.n()),
                                     Estimate::Zero);
  cfg.seed = 0x12;
  const auto r = run_consensus(cfg);

  ProcId max_deg = 0;
  for (ProcId i = 0; i < d.n(); ++i) max_deg = std::max(max_deg, d.degree(i));
  double max_per_phase = 0.0;
  for (const auto& st : r.proc_stats) {
    if (st.rounds_entered == 0) continue;
    max_per_phase = std::max(
        max_per_phase, static_cast<double>(st.cons_invocations) /
                           (2.0 * static_cast<double>(st.rounds_entered)));
  }
  t.add_row_values(label, "m&m", d.n(), "n/a",
                   "a_i+1 (max " + std::to_string(max_deg + 1) + ")",
                   fixed(max_per_phase, 1), std::to_string(d.n()),
                   fixed(objects_per_phase(r), 1));
}

}  // namespace

int main() {
  std::cout << "T-INV: consensus-object invocations per phase "
               "(Section III-C comparison)\n\n";

  Table t("hybrid (1 per process, m system-wide) vs m&m (a_i+1 per process,"
          " n system-wide)");
  t.set_columns({"configuration", "model", "n", "m",
                 "claimed/process/phase", "measured/process/phase (max)",
                 "claimed system/phase", "measured system/phase"});

  hybrid_row(t, "fig1-left  n=7 m=3", ClusterLayout::fig1_left());
  hybrid_row(t, "fig1-right n=7 m=3", ClusterLayout::fig1_right());
  hybrid_row(t, "even       n=16 m=4", ClusterLayout::even(16, 4));
  hybrid_row(t, "even       n=32 m=4", ClusterLayout::even(32, 4));
  hybrid_row(t, "singleton  n=16 m=16", ClusterLayout::singletons(16));

  mm_row(t, "fig2       n=5", MmDomain::fig2());
  // A denser graph: ring of 16 with chords (every process degree 4).
  {
    std::vector<std::pair<ProcId, ProcId>> edges;
    const ProcId n = 16;
    for (ProcId i = 0; i < n; ++i) {
      edges.push_back({i, static_cast<ProcId>((i + 1) % n)});
      edges.push_back({i, static_cast<ProcId>((i + 2) % n)});
    }
    const MmDomain ring(n, edges);
    mm_row(t, "ring+chords n=16", ring);
  }
  t.print(std::cout);

  std::cout << "Expected shape: hybrid measured/process/phase = 1 exactly;"
               " m&m grows with the degree;\nthe hybrid system count equals"
               " m << n while m&m touches all n memories.\n";
  return 0;
}
