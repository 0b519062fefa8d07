#include "baseline/mm_runner.h"

#include "baseline/mm_process.h"
#include "core/world.h"
#include "util/assert.h"

namespace hyco {

namespace {
/// Event budget of one run: a backstop far above any terminating run.
constexpr std::uint64_t kMaxEvents = 200'000'000;
}  // namespace

RunResult run_mm(const MmRunConfig& cfg) {
  const ProcId n = cfg.domain.n();
  const std::vector<Estimate> inputs =
      cfg.inputs.empty() ? split_inputs(n) : cfg.inputs;
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(n),
                 "inputs size mismatch");

  World world(n, cfg.seed, cfg.crashes, make_delay_model(cfg.delays));
  MmMemories memories(cfg.domain);

  std::vector<std::unique_ptr<IConsensusProcess>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<MmProcess>(
        p, cfg.domain, memories, world.net(),
        mix64(cfg.seed, 0x33A7 + static_cast<std::uint64_t>(p)),
        cfg.max_rounds));
  }

  RunResult result;
  world.net().set_deliver(
      decision_timing_deliver(procs, world.sim(), result));
  world.schedule_crashes();
  world.schedule_starts(50, [&](ProcId p) {
    procs[static_cast<std::size_t>(p)]->start(
        inputs[static_cast<std::size_t>(p)]);
  });

  result.stop = world.sim().run(kMaxEvents);
  result.end_time = world.sim().now();
  result.events = world.sim().events_executed();
  result.crashed = world.tracker().crashed_count();
  harvest_decisions(procs, inputs, world.tracker(), result);
  result.shm = memories.total();
  result.net = world.net().stats();
  return result;
}

}  // namespace hyco
