#include "scenario/faulty_channel.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace hyco {

FaultyChannel::FaultyChannel(DelayModel& inner, const LinkFaultConfig& link,
                             const CoinAttackConfig& coin_attack)
    : inner_(inner),
      link_(link),
      // A negative bound fails the check below; until then draw over [0, 0].
      reorder_(0, std::max<SimTime>(link.reorder_max, 0)),
      coin_attack_(coin_attack) {
  HYCO_CHECK_MSG(link.loss >= 0.0 && link.loss <= 1.0,
                 "loss probability must be in [0, 1], got " << link.loss);
  HYCO_CHECK_MSG(link.dup >= 0.0 && link.dup <= 1.0,
                 "dup probability must be in [0, 1], got " << link.dup);
  HYCO_CHECK_MSG(link.reorder_max >= 0,
                 "reorder bound must be >= 0, got " << link.reorder_max);
  HYCO_CHECK_MSG(coin_attack.boost >= 0,
                 "coin-attack boost must be >= 0, got " << coin_attack.boost);
  HYCO_CHECK_MSG(!coin_attack.enabled ||
                     (coin_attack.bit == 0 || coin_attack.bit == 1),
                 "coin-attack bit must be 0 or 1, got " << coin_attack.bit);
}

bool FaultyChannel::is_targeted_coin_carrier(const Message& m) const {
  return coin_attack_.enabled && m.kind == MsgKind::Phase && m.round >= 2 &&
         m.phase == Phase::One && is_binary(m.est) &&
         estimate_to_bit(m.est) == coin_attack_.bit;
}

SimTime FaultyChannel::delay(ProcId from, ProcId to, const Message& m,
                             SimTime now, Rng& rng) {
  SimTime d = inner_.delay(from, to, m, now, rng);
  if (link_.reorder_max > 0) {
    d += reorder_(rng);
  }
  if (is_targeted_coin_carrier(m)) {
    d += coin_attack_.boost;
  }
  if (speed_ != nullptr) {
    const double f = (*speed_)[static_cast<std::size_t>(to)];
    // f == 1.0 must leave the delay bit-identical (no float round-trip).
    if (f != 1.0) {
      d = static_cast<SimTime>(std::llround(static_cast<double>(d) * f));
    }
  }
  return d;
}

int FaultyChannel::copies(const Message&, Rng& rng) const {
  if (link_.loss > 0.0 && rng.bernoulli(link_.loss)) return 0;
  if (link_.dup > 0.0 && rng.bernoulli(link_.dup)) return 2;
  return 1;
}

}  // namespace hyco
