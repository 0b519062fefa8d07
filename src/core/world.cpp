#include "core/world.h"

#include <algorithm>
#include <cmath>

#include "scenario/engine.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

namespace {

std::unique_ptr<ScenarioEngine> make_scenario(
    const ScenarioConfig& scenario, const ClusterLayout* layout,
    std::unique_ptr<DelayModel>& delays) {
  if (scenario.empty()) return nullptr;
  HYCO_CHECK_MSG(layout != nullptr, "a scenario needs the run's layout");
  return std::make_unique<ScenarioEngine>(scenario, *layout,
                                          std::move(delays));
}

}  // namespace

World::World(ProcId n, std::uint64_t seed, const CrashPlan& crashes,
             std::unique_ptr<DelayModel> delays, Trace* trace,
             const ScenarioConfig& scenario, const ClusterLayout* layout)
    : seed_(seed),
      sim_(seed),
      plan_(crashes.specs.empty()
                ? CrashPlan::none(static_cast<std::size_t>(n))
                : crashes),
      tracker_(static_cast<std::size_t>(n)),
      delays_(std::move(delays)),
      scenario_(make_scenario(scenario, layout, delays_)),
      net_(sim_, scenario_ != nullptr ? scenario_->channel() : *delays_,
           tracker_, n, &plan_, trace) {
  sim_.reserve_all_to_all(n);
  if (scenario_ != nullptr) net_.set_scenario(scenario_.get());
}

World::~World() = default;

bool World::scheduled_down(ProcId p) const {
  const CrashSpec& spec = plan_.specs[static_cast<std::size_t>(p)];
  if (spec.kind != CrashSpec::Kind::None) return true;
  if (scenario_ == nullptr) return false;
  const auto& rejoins = scenario_->rejoins();
  return std::any_of(
      rejoins.begin(), rejoins.end(),
      [p](const ScenarioEngine::Rejoin& rj) { return rj.proc == p; });
}

void World::crash_at(ProcId p, SimTime at) {
  if (at <= 0) {
    tracker_.crash(p, 0);
  } else {
    sim_.schedule_at(at, [this, p, at] { tracker_.crash(p, at); });
  }
}

void World::schedule_crashes() {
  for (ProcId p = 0; p < net_.n(); ++p) {
    const CrashSpec& spec = plan_.specs[static_cast<std::size_t>(p)];
    if (spec.kind == CrashSpec::Kind::AtTime) crash_at(p, spec.time);
  }
}

void World::schedule_rejoins(std::function<void(ProcId)> on_up) {
  if (scenario_ == nullptr) return;
  on_up_ = std::move(on_up);
  for (const ScenarioEngine::Rejoin& rj : scenario_->rejoins()) {
    crash_at(rj.proc, rj.down_at);
    if (rj.up_at == kSimTimeNever) continue;
    sim_.schedule_at(rj.up_at, [this, p = rj.proc, t = rj.up_at] {
      tracker_.recover(p, t);
      if (on_up_) on_up_(p);
    });
  }
}

void World::schedule_starts(SimTime jitter,
                            std::function<void(ProcId)> start) {
  start_ = std::move(start);
  Rng start_rng(mix64(seed_, 0x57A7));
  for (ProcId p = 0; p < net_.n(); ++p) {
    SimTime at = jitter > 0 ? start_rng.uniform(0, jitter) : 0;
    if (scenario_ != nullptr) {
      const double f = scenario_->speed_factor(p);
      if (f != 1.0) {
        at = static_cast<SimTime>(std::llround(static_cast<double>(at) * f));
      }
    }
    sim_.schedule_at(at, [this, p] {
      if (!tracker_.is_crashed(p)) start_(p);
    });
  }
}

}  // namespace hyco
