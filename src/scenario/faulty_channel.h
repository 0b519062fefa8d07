// FaultyChannel — a DelayModel decorator that makes any delay model lossy.
//
// Wraps an inner model and adds, per message:
//  * bounded reordering: an extra uniform delay in [0, reorder_max], so a
//    later message can overtake an earlier one by at most reorder_max
//    (drawn without a division: the bound is fixed at construction);
//  * the adversarial coin-attack boost for coin-carrying messages (PHASE,
//    round >= 2, phase 1 — the messages championing the previous round's
//    coin-derived estimates) whose estimate matches the targeted bit;
//  * a copy count per send (copies()): 0 = lost, 2 = duplicated. The
//    network draws the copy count once per send and then draws one delay
//    per surviving copy, all from the run's seeded Rng. The channel keeps
//    DelayModel's per-copy draw(): each copy's delay is one delay() call.
#pragma once

#include <vector>

#include "net/delay_model.h"
#include "scenario/scenario.h"

namespace hyco {

class FaultyChannel final : public DelayModel {
 public:
  /// `inner` must outlive the channel. Throws ContractViolation when loss
  /// or dup are outside [0, 1] or reorder_max/boost are negative.
  FaultyChannel(DelayModel& inner, const LinkFaultConfig& link,
                const CoinAttackConfig& coin_attack);

  /// Inner delay + reorder jitter + coin-attack boost, the sum scaled by
  /// the receiver's step-speed factor when clock skew is installed.
  SimTime delay(ProcId from, ProcId to, const Message& m, SimTime now,
                Rng& rng) override;

  /// Installs per-process step-speed multipliers (clock skew): the total
  /// transit of every message to process p is scaled by (*factors)[p] — a
  /// slow process finishes handling each delivery that much later. The
  /// vector must outlive the channel and hold one entry per process;
  /// nullptr (the default) disables skew.
  void set_speed_factors(const std::vector<double>* factors) {
    speed_ = factors;
  }

  /// Delivery copies for one send: 0 (lost), 1, or 2 (duplicated). Loss
  /// wins over duplication when both fire.
  [[nodiscard]] int copies(const Message& m, Rng& rng) const;

  /// True iff the coin attack targets m (see file comment).
  [[nodiscard]] bool is_targeted_coin_carrier(const Message& m) const;

 private:
  DelayModel& inner_;
  LinkFaultConfig link_;
  UniformDraw reorder_;  ///< the jitter in [0, reorder_max]
  CoinAttackConfig coin_attack_;
  const std::vector<double>* speed_ = nullptr;  ///< per-proc skew factors
};

}  // namespace hyco
