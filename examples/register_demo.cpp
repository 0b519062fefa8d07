// Hybrid register demo: an MWMR atomic register emulated with one-for-all
// cluster quorums. Seven processes hammer the register with reads and
// uniquely-valued writes; the recorded history is checked for atomicity.
// Then the majority-crash scenario: the lone survivor of the majority
// cluster keeps reading and writing — a process-majority ABD would block.
//
// Run: ./build/example_register_demo [--seed=N]
#include <iostream>

#include "util/options.h"
#include "workload/register_harness.h"

using namespace hyco;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 3));
  const auto layout = ClusterLayout::fig1_right();

  RegisterRunConfig cfg(layout);
  cfg.ops_per_process = 6;
  cfg.seed = seed;
  const auto r = run_register_workload(cfg);
  std::cout << "workload: " << r.history.size() << " operations completed, "
            << "atomicity " << (r.atomicity_ok ? "ok" : "VIOLATED") << '\n';
  int reads = 0, writes = 0;
  for (const auto& op : r.history) (op.is_write ? writes : reads)++;
  std::cout << "  " << writes << " writes, " << reads << " reads, "
            << r.net.unicasts_sent << " messages, final sim time "
            << r.end_time << " ns\n\n";

  RegisterRunConfig crashy(layout);
  crashy.ops_per_process = 5;
  crashy.seed = seed + 1;
  crashy.crashes = CrashPlan::none(7);
  for (const ProcId p : {0, 1, 3, 4, 5, 6}) {
    crashy.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  const auto cr = run_register_workload(crashy);
  std::cout << "with 6/7 crashed at t=0 (survivor p2 in the majority"
               " cluster):\n  survivor completed "
            << cr.history.size() << "/5 ops, atomicity "
            << (cr.atomicity_ok ? "ok" : "VIOLATED")
            << " — register quorums inherit one-for-all\n";
  return (r.success() && cr.success()) ? 0 : 1;
}
