#include "net/delay_model.h"

#include <cmath>

#include "util/assert.h"

namespace hyco {

void DelayModel::draw(ProcId from, const Message& m, SimTime now, Rng& rng,
                      std::span<FanoutCopy> copies) {
  for (FanoutCopy& c : copies) c.delay = delay(from, c.to, m, now, rng);
}

namespace {
/// Checks a uniform delay range before UniformDraw sees it.
UniformDraw checked_uniform(SimTime lo, SimTime hi) {
  HYCO_CHECK_MSG(lo >= 0 && hi >= lo, "bad uniform delay range [" << lo << ','
                                                                  << hi << ']');
  return UniformDraw(lo, hi);
}
}  // namespace

UniformDelay::UniformDelay(SimTime lo, SimTime hi)
    : uniform_(checked_uniform(lo, hi)) {}

ExponentialDelay::ExponentialDelay(double mean_ns, SimTime floor_ns)
    : mean_(mean_ns), floor_(floor_ns) {
  HYCO_CHECK_MSG(mean_ns > 0.0, "exponential delay mean must be positive");
  HYCO_CHECK_MSG(floor_ns >= 0, "delay floor must be non-negative");
}

SimTime ExponentialDelay::delay(ProcId, ProcId, const Message&, SimTime,
                                Rng& rng) {
  const double d = rng.exponential(mean_);
  return floor_ + static_cast<SimTime>(std::llround(d));
}

AdversarialDelay::AdversarialDelay(Strategy strategy)
    : strategy_(std::move(strategy)) {
  HYCO_CHECK_MSG(static_cast<bool>(strategy_),
                 "adversarial delay needs a strategy");
}

SimTime AdversarialDelay::delay(ProcId from, ProcId to, const Message& m,
                                SimTime now, Rng& rng) {
  const SimTime d = strategy_(from, to, m, now, rng);
  HYCO_CHECK_MSG(d >= 0, "adversarial strategy produced negative delay " << d);
  return d;
}

std::unique_ptr<DelayModel> make_delay_model(const DelayConfig& cfg) {
  switch (cfg.kind) {
    case DelayConfig::Kind::Constant:
      return std::make_unique<ConstantDelay>(cfg.constant);
    case DelayConfig::Kind::Uniform:
      return std::make_unique<UniformDelay>(cfg.uniform_lo, cfg.uniform_hi);
    case DelayConfig::Kind::Exponential:
      return std::make_unique<ExponentialDelay>(cfg.exp_mean);
  }
  return nullptr;
}

}  // namespace hyco
