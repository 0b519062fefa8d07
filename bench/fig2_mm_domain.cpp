// FIG2 — reproduction of Figure 2 + appendix: the uniform m&m shared-memory
// domain of 5 processes. Verifies the constructed S_i sets against the
// paper's list, then runs the m&m consensus comparator on the domain.
// Exits 1 when a constructed S_i differs from the paper's.
// Usage: fig2_mm_domain [--runs=N]
#include <iostream>

#include "baseline/mm_domain.h"
#include "core/runner.h"
#include "util/options.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int runs = static_cast<int>(opts.get_int("runs", 300));

  std::cout << "FIG2: uniform m&m shared-memory domain (Raynal & Cao,"
               " Figure 2 + appendix)\n\n";
  const auto d = MmDomain::fig2();

  // Paper's appendix, 1-based: S1={p1,p2} S2={p1,p2,p3} S3={p2,p3,p4,p5}
  // S4={p3,p4,p5} S5={p3,p4,p5}.
  const char* paper_sets[] = {"{0,1}", "{0,1,2}", "{1,2,3,4}", "{2,3,4}",
                              "{2,3,4}"};
  Table sets("Memory domains S_i (paper appendix vs constructed, 0-based)");
  sets.set_columns({"process", "paper S_i", "constructed S_i", "degree a_i",
                    "match"});
  bool all_match = true;
  for (ProcId i = 0; i < d.n(); ++i) {
    const auto set = d.domain_set(i).to_string();
    const bool match = set == paper_sets[i];
    all_match &= match;
    sets.add_row_values("p" + std::to_string(i), paper_sets[i], set,
                        d.degree(i), match ? "yes" : "NO");
  }
  sets.print(std::cout);
  std::cout << (all_match ? "All S_i sets match the paper.\n\n"
                          : "MISMATCH against the paper!\n\n");

  Table run("m&m consensus on the Figure 2 domain (split inputs)");
  run.set_columns({"runs", "terminated", "safety violations", "mean rounds",
                   "p95 rounds"});
  Summary rounds;
  int terminated = 0, violations = 0;
  for (int i = 0; i < runs; ++i) {
    RunConfig cfg(d);
    cfg.seed = mix64(0xF162, static_cast<std::uint64_t>(i));
    const auto r = run_consensus(cfg);
    terminated += r.all_correct_decided ? 1 : 0;
    violations += (r.agreement_ok && r.validity_ok) ? 0 : 1;
    rounds.add(static_cast<double>(r.max_decision_round));
  }
  run.add_row_values(runs, terminated, violations, fixed(rounds.mean()),
                     fixed(rounds.percentile(95)));
  run.print(std::cout);

  Table inv("Per-process consensus-object invocations per phase (claim: a_i + 1)");
  inv.set_columns({"process", "claimed a_i+1", "measured"});
  {
    RunConfig cfg(d);
    cfg.inputs = std::vector<Estimate>(5, Estimate::Zero);  // 1-round run
    cfg.seed = 99;
    const auto r = run_consensus(cfg);
    for (ProcId p = 0; p < d.n(); ++p) {
      const auto& st = r.proc_stats[static_cast<std::size_t>(p)];
      const double per_phase =
          st.rounds_entered > 0
              ? static_cast<double>(st.cons_invocations) /
                    (2.0 * static_cast<double>(st.rounds_entered))
              : 0.0;
      inv.add_row_values("p" + std::to_string(p), d.degree(p) + 1,
                         fixed(per_phase, 1));
    }
  }
  inv.print(std::cout);
  return all_match ? 0 : 1;
}
