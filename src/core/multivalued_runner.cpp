#include "core/multivalued_runner.h"

#include <algorithm>

#include "core/world.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

namespace {
/// Event budget of one run: a backstop far above any terminating run.
constexpr std::uint64_t kMaxEvents = 400'000'000;
}  // namespace

MultiRunResult run_multivalued(const MultiRunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  HYCO_CHECK_MSG(cfg.width >= 1 && cfg.width <= 64, "bad width");
  const std::uint64_t mask = cfg.width == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << cfg.width) - 1;

  std::vector<std::uint64_t> inputs = cfg.inputs;
  if (inputs.empty()) {
    Rng rng(mix64(cfg.seed, 0x3A1E));
    inputs.resize(static_cast<std::size_t>(n));
    for (auto& v : inputs) v = rng.next_u64() & mask;
  }
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(n),
                 "inputs size mismatch");
  for (const std::uint64_t v : inputs) {
    HYCO_CHECK_MSG((v & ~mask) == 0,
                   "input " << v << " does not fit in " << cfg.width
                            << " bits");
  }

  World world(n, cfg.seed, cfg.crashes, make_delay_model(cfg.delays));
  MemoryPool pool(n);
  CommonCoin coin(mix64(cfg.seed, 0xC01C02));

  std::vector<std::unique_ptr<MultiValuedProcess>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<MultiValuedProcess>(
        p, cfg.layout, world.net(), pool, coin, cfg.max_rounds_per_bit));
  }

  world.net().set_deliver([&](ProcId to, ProcId from, const Message& m) {
    procs[static_cast<std::size_t>(to)]->on_message(from, m);
  });
  world.schedule_crashes();
  world.schedule_starts(50, [&](ProcId p) {
    procs[static_cast<std::size_t>(p)]->start(
        inputs[static_cast<std::size_t>(p)]);
  });

  MultiRunResult result;
  result.stop = world.sim().run(kMaxEvents);
  result.end_time = world.sim().now();
  result.events = world.sim().events_executed();
  result.crashed = world.tracker().crashed_count();
  result.decisions.assign(static_cast<std::size_t>(n), std::nullopt);

  bool all_correct_decided = true;
  for (ProcId p = 0; p < n; ++p) {
    const auto& proc = *procs[static_cast<std::size_t>(p)];
    const auto idx = static_cast<std::size_t>(p);
    if (proc.decided()) {
      result.decisions[idx] = proc.decision();
      if (!result.decided_value.has_value()) {
        result.decided_value = proc.decision();
      } else if (*result.decided_value != *proc.decision()) {
        result.agreement_ok = false;
      }
    } else if (!world.tracker().is_crashed(p)) {
      all_correct_decided = false;
    }
  }
  result.all_correct_decided = all_correct_decided;
  if (result.decided_value.has_value()) {
    result.validity_ok = std::find(inputs.begin(), inputs.end(),
                                   *result.decided_value) != inputs.end();
  }
  result.shm = pool.total();
  result.consensus_objects = pool.objects_created();
  result.net = world.net().stats();
  return result;
}

}  // namespace hyco
