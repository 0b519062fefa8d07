// Total-order broadcast demo: state machine replication on the hybrid
// model, run through the replicated service with batching off (every
// client command is its own batch). Three clients submit commands
// concurrently; every process delivers the identical log — and the
// ordering service keeps running after a majority of processes crash
// (covering clusters survive).
//
// Run: ./build/example_total_order_demo [--seed=N]
#include <iostream>

#include "core/total_order.h"
#include "service/service_runner.h"
#include "util/options.h"

using namespace hyco;

namespace {

ServiceRunConfig demo_config(std::uint64_t seed, std::uint64_t clients,
                             std::uint64_t ops_per_client) {
  ServiceRunConfig cfg(ClusterLayout::fig1_right());
  cfg.seed = seed;
  cfg.clients = clients;
  cfg.ops_per_client = ops_per_client;
  cfg.batch_delay = 0;
  return cfg;
}

/// p's delivered commands (batch ids), NOOP slots skipped.
void print_log(const ServiceRunResult& r, std::size_t p) {
  std::cout << "  p" << p << " log:";
  for (const SlotRecord& s : r.slot_logs[p]) {
    if (s.batch != TobProcess::kNoop) std::cout << ' ' << s.batch;
  }
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 9));

  std::cout << "layout " << ClusterLayout::fig1_right().to_string()
            << " — 3 clients submit one command each, concurrently\n\n";
  const auto r = run_service(demo_config(seed, 3, 1));
  std::cout << "log agreement: " << (r.safe_ok ? "ok" : "VIOLATED")
            << ", all delivered: " << (r.terminated ? "yes" : "no") << '\n';
  for (std::size_t p = 0; p < r.slot_logs.size(); ++p) print_log(r, p);

  std::cout << "\nnow 7 clients, 3 commands each, with 5 of 7 processes"
               " crashed at t=100 (survivors p0, p2 — a covering set"
               " {P[0], P[1]}):\n";
  ServiceRunConfig crashy = demo_config(seed + 1, 7, 3);
  crashy.crashes = CrashPlan::none(7);
  for (const ProcId p : {1, 3, 4, 5, 6}) {
    crashy.crashes.specs[static_cast<std::size_t>(p)] =
        CrashSpec::at_time(100);
  }
  const auto cr = run_service(crashy);
  std::cout << "log agreement: " << (cr.safe_ok ? "ok" : "VIOLATED")
            << ", survivors' clients done: " << (cr.terminated ? "yes" : "no")
            << '\n';
  print_log(cr, 0);
  print_log(cr, 2);
  std::cout << "  — ordering continued past the majority crash\n";
  return (r.success() && cr.success()) ? 0 : 1;
}
