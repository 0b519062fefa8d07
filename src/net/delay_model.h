// Message-delay models: the semantics of "asynchronous but reliable"
// channels. Transit times are arbitrary-but-finite; delay() draws the
// delay of one message, and draw() the delays of a whole fan-out in one
// call. The network draws every fan-out (a broadcast's receivers, a send's
// copies) through draw(): the constant and uniform models override it
// with a loop that makes no virtual call per copy, and every other model
// keeps one delay() per copy, in copy order, so both paths consume the
// same draws. The adversarial model lets experiments hand the scheduler
// to an adversary that inspects message contents (e.g. to try to keep the
// system split between 0-supporters and 1-supporters — the attack
// randomized consensus defeats).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/types.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace hyco {

/// Strategy interface for drawing per-message transit delays.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Delay (>= 0) for a message from `from` to `to` sent at time `now`.
  virtual SimTime delay(ProcId from, ProcId to, const Message& m, SimTime now,
                        Rng& rng) = 0;

  /// Sets the delay of every copy of one fan-out of `m` from `from` at
  /// `now`, in copy order. An override must draw exactly what one delay()
  /// per copy, in copy order, would. Default: that loop.
  virtual void draw(ProcId from, const Message& m, SimTime now, Rng& rng,
                    std::span<FanoutCopy> copies);
};

/// Every message takes exactly `fixed` time units.
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(SimTime fixed) : fixed_(fixed) {}
  SimTime delay(ProcId, ProcId, const Message&, SimTime, Rng&) override {
    return fixed_;
  }
  void draw(ProcId, const Message&, SimTime, Rng&,
            std::span<FanoutCopy> copies) override {
    for (FanoutCopy& c : copies) c.delay = fixed_;
  }

 private:
  SimTime fixed_;
};

/// Uniformly random transit in [lo, hi], drawn without a division
/// (UniformDraw).
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(SimTime lo, SimTime hi);
  SimTime delay(ProcId, ProcId, const Message&, SimTime, Rng& rng) override {
    return uniform_(rng);
  }
  void draw(ProcId, const Message&, SimTime, Rng& rng,
            std::span<FanoutCopy> copies) override {
    // Local copies stay in registers: a store through `copies` may alias
    // the generator's 64-bit state words, so drawing on `rng` itself would
    // reload them after every copy.
    Rng local = rng;
    const UniformDraw uniform = uniform_;
    for (FanoutCopy& c : copies) c.delay = uniform(local);
    rng = local;
  }

 private:
  UniformDraw uniform_;
};

/// Exponentially distributed transit with the given mean (heavy-ish tail —
/// a common model for asynchronous networks), plus a small floor so delays
/// are never zero.
class ExponentialDelay final : public DelayModel {
 public:
  explicit ExponentialDelay(double mean_ns, SimTime floor_ns = 1);
  SimTime delay(ProcId, ProcId, const Message&, SimTime, Rng& rng) override;

 private:
  double mean_;
  SimTime floor_;
};

/// Fully programmable delay: the strategy sees everything the model sees.
class AdversarialDelay final : public DelayModel {
 public:
  using Strategy =
      std::function<SimTime(ProcId from, ProcId to, const Message&, SimTime now, Rng&)>;
  explicit AdversarialDelay(Strategy strategy);
  SimTime delay(ProcId from, ProcId to, const Message& m, SimTime now,
                Rng& rng) override;

 private:
  Strategy strategy_;
};

/// Declarative configuration for building a delay model (used by RunConfig
/// so experiment grids stay plain data).
struct DelayConfig {
  enum class Kind { Constant, Uniform, Exponential } kind = Kind::Uniform;
  SimTime constant = 100;
  SimTime uniform_lo = 50;
  SimTime uniform_hi = 150;
  double exp_mean = 100.0;

  static DelayConfig constant_of(SimTime t) {
    DelayConfig c;
    c.kind = Kind::Constant;
    c.constant = t;
    return c;
  }
  static DelayConfig uniform(SimTime lo, SimTime hi) {
    DelayConfig c;
    c.kind = Kind::Uniform;
    c.uniform_lo = lo;
    c.uniform_hi = hi;
    return c;
  }
  static DelayConfig exponential(double mean) {
    DelayConfig c;
    c.kind = Kind::Exponential;
    c.exp_mean = mean;
    return c;
  }
};

/// Instantiates the configured model.
std::unique_ptr<DelayModel> make_delay_model(const DelayConfig& cfg);

}  // namespace hyco
