// "One for All and All for One" — the paper's headline scenario.
//
// Layout: Figure 1 (right): P[0]={p0}, P[1]={p1,p2,p3,p4}, P[2]={p5,p6}.
// P[1] holds a majority of the 7 processes. We crash SIX of the seven
// processes — everyone except p2 — and consensus still terminates, because
// the lone survivor of the majority cluster speaks for its whole cluster:
// the message-exchange pattern credits a message from p2 to all of P[1]
// (4 > 7/2 processes). Pure message passing (Ben-Or) provably blocks here;
// the demo runs it side by side.
//
// Run: ./build/example_majority_cluster [--seed=N]
#include <iostream>

#include "core/runner.h"
#include "util/options.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 7));

  const auto layout = ClusterLayout::fig1_right();
  std::cout << "layout: " << layout.to_string() << "\n";

  CrashPlan crashes = CrashPlan::none(7);
  for (const ProcId p : {0, 1, 3, 4, 5, 6}) {
    // Crash at staggered virtual times early in the run.
    crashes.specs[static_cast<std::size_t>(p)] =
        CrashSpec::at_time(20 * (p + 1));
  }
  std::cout << "crashing 6 of 7 processes (all but p2, a member of the"
               " majority cluster P[1])\n\n";

  RunConfig hybrid(layout);
  hybrid.alg = Algorithm::HybridCommonCoin;
  hybrid.inputs = split_inputs(7);
  hybrid.crashes = crashes;
  hybrid.seed = seed;
  const auto hr = run_consensus(hybrid);

  std::cout << "hybrid (Algorithm 3):\n"
            << "  p2 decided: "
            << (hr.decisions[2].has_value() ? to_cstring(*hr.decisions[2])
                                            : "no")
            << " (round " << hr.decision_rounds[2] << ")\n"
            << "  safety: " << (hr.safe() ? "ok" : "VIOLATED") << "\n\n";

  RunConfig benor(ClusterLayout::singletons(7));
  benor.alg = Algorithm::BenOr;
  benor.inputs = split_inputs(7);
  benor.crashes = crashes;
  benor.seed = seed;
  benor.max_rounds = 100;
  const auto br = run_consensus(benor);

  std::cout << "pure message passing (Ben-Or), same failure pattern:\n"
            << "  anyone decided: "
            << (br.decided_value.has_value() ? "yes" : "no — blocked, as"
                                               " theory demands (f >= n/2)")
            << "\n  safety: " << (br.safe() ? "ok (indulgent)" : "VIOLATED")
            << '\n';

  return (hr.decisions[2].has_value() && hr.safe() && br.safe() &&
          !br.decided_value.has_value())
             ? 0
             : 1;
}
