// Total-order broadcast demo: state machine replication on the hybrid
// model. Three clients submit commands concurrently; every process delivers
// the identical log — and the ordering service keeps running after a
// majority of processes crash (covering clusters survive).
//
// Run: ./build/example_total_order_demo [--seed=N]
#include <iostream>

#include "core/total_order_runner.h"
#include "util/options.h"

using namespace hyco;

namespace {

void print_logs(const TobRunResult& r) {
  for (std::size_t p = 0; p < r.logs.size(); ++p) {
    std::cout << "  p" << p << " log:";
    for (const auto v : r.logs[p]) std::cout << ' ' << v;
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 9));
  const auto layout = ClusterLayout::fig1_right();

  std::cout << "layout " << layout.to_string()
            << " — commands 501, 502, 503 submitted concurrently\n\n";
  TobRunConfig cfg(layout);
  cfg.submissions = {{0, 0, 501}, {3, 0, 502}, {6, 0, 503}};
  cfg.seed = seed;
  const auto r = run_tob(cfg);
  std::cout << "prefix agreement: " << (r.prefix_agreement ? "ok" : "VIOLATED")
            << ", all delivered: " << (r.all_delivered ? "yes" : "no")
            << '\n';
  print_logs(r);

  std::cout << "\nnow with 5 of 7 processes crashed at t=100 (survivors p0,"
               " p2 — a covering set {P[0], P[1]}):\n";
  TobRunConfig crashy(layout);
  crashy.submissions = {{0, 0, 601}, {2, 50, 602}, {2, 4000, 603}};
  crashy.seed = seed + 1;
  crashy.crashes = CrashPlan::none(7);
  for (const ProcId p : {1, 3, 4, 5, 6}) {
    crashy.crashes.specs[static_cast<std::size_t>(p)] =
        CrashSpec::at_time(100);
  }
  const auto cr = run_tob(crashy);
  std::cout << "prefix agreement: "
            << (cr.prefix_agreement ? "ok" : "VIOLATED") << '\n';
  std::cout << "  p0 delivered " << cr.logs[0].size() << " commands, p2 "
            << cr.logs[2].size()
            << " — ordering continued past the majority crash\n";
  return (r.success() && cr.prefix_agreement) ? 0 : 1;
}
