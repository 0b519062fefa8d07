// Threaded-runtime demo: the simulator's Algorithm 2 and 3 processes running
// on REAL threads — one std::thread per process fed from its mailbox, and
// cluster consensus on std::atomic compare_exchange. Includes three
// mid-broadcast crashes.
//
// Run: ./build/example_threaded_runtime_demo [--seed=N]
#include <iostream>

#include "runtime/threaded_runner.h"
#include "util/options.h"

using namespace hyco;

namespace {

void report(const char* title, const ThreadRunResult& r,
            const ClusterLayout& layout) {
  std::cout << title << '\n';
  std::cout << "  decided value: "
            << (r.decided_value ? to_cstring(*r.decided_value) : "none")
            << ", agreement " << (r.agreement_ok ? "ok" : "VIOLATED")
            << ", validity " << (r.validity_ok ? "ok" : "VIOLATED")
            << ", deadline hit: " << (r.deadline_hit ? "yes" : "no") << '\n';
  for (ProcId p = 0; p < layout.n(); ++p) {
    const auto idx = static_cast<std::size_t>(p);
    const auto& d = r.decisions[idx];
    std::cout << "    p" << p << ": "
              << (d ? "decided " + std::string(to_cstring(*d)) : "undecided")
              << " after " << r.proc_stats[idx].rounds_entered
              << " round(s)\n";
  }
  std::cout << "  crashed: " << r.crashed
            << ", messages sent: " << r.messages_sent << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 11));
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  std::cout << "layout " << layout.to_string() << ", real threads\n\n";

  {
    ThreadRunConfig cfg(layout);
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.seed = seed;
    report("Algorithm 3 (common coin), no crashes:", run_threaded(cfg),
           layout);
  }
  {
    ThreadRunConfig cfg(layout);
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.seed = seed + 1;
    report("Algorithm 2 (local coin), no crashes:", run_threaded(cfg),
           layout);
  }
  {
    // Crash one member of each small cluster and one of the middle cluster
    // mid-broadcast; the covering set {P0,P1,P2} keeps survivors, so the
    // rest must still decide.
    ThreadRunConfig cfg(layout);
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.seed = seed + 2;
    cfg.crashes = CrashPlan::none(7);
    // p0 dies in its round-1 broadcast, serving 3 peers.
    cfg.crashes.specs[0] = CrashSpec::on_broadcast(0, 3);
    // p3 dies in its second broadcast (round 2's PHASE message, or the
    // DECIDE of a round-1 decision), serving 1 peer.
    cfg.crashes.specs[3] = CrashSpec::on_broadcast(1, 1);
    // p5 dies in its round-1 broadcast, serving nobody.
    cfg.crashes.specs[5] = CrashSpec::on_broadcast(0, 0);
    report("Algorithm 3 with three mid-broadcast crashes:",
           run_threaded(cfg), layout);
  }
  return 0;
}
