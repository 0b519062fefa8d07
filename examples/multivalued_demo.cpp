// Multivalued consensus demo: seven processes propose seven DIFFERENT
// 16-bit values; the bit-by-bit reduction over embedded hybrid binary
// instances agrees on the index of one proposer (3 bits for 7 processes)
// and decides that proposer's value — never a frankenstein bit pattern —
// and it still works when six of the seven processes crash (one-for-all).
//
// Run: ./build/example_multivalued_demo [--seed=N]
#include <iostream>

#include "core/multivalued_runner.h"
#include "util/options.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 5));
  const auto layout = ClusterLayout::fig1_right();

  MultiRunConfig cfg(layout);
  cfg.width = 16;
  cfg.inputs = {1111, 2222, 3333, 4444, 5555, 6666, 7777};
  cfg.seed = seed;
  const auto r = run_multivalued(cfg);

  std::cout << "layout " << layout.to_string() << ", proposals:";
  for (const auto v : cfg.inputs) std::cout << ' ' << v;
  std::cout << "\ndecided: " << *r.decided_value
            << " (a proposed value: " << (r.validity_ok ? "yes" : "NO")
            << "), agreement " << (r.agreement_ok ? "ok" : "VIOLATED")
            << "\nconsensus objects used: " << r.consensus_objects
            << " across " << MultiValuedProcess::index_bits(layout.n())
            << " proposer-index bit instances, "
            << r.net.unicasts_sent << " messages\n\n";

  // Same, with 6 of 7 processes crashed (survivor in the majority cluster).
  MultiRunConfig crashy = cfg;
  crashy.crashes = CrashPlan::none(7);
  for (const ProcId p : {0, 1, 3, 4, 5, 6}) {
    crashy.crashes.specs[static_cast<std::size_t>(p)] =
        CrashSpec::at_time(10 * (p + 1));
  }
  const auto cr = run_multivalued(crashy);
  std::cout << "with 6/7 crashed: survivor p2 decided "
            << (cr.decisions[2] ? std::to_string(*cr.decisions[2]) : "nothing")
            << " — one-for-all carries over to multivalued consensus\n";
  return (r.success() && cr.decisions[2].has_value()) ? 0 : 1;
}
