#include "coin/coin.h"

#include "util/assert.h"

namespace hyco {

BiasedCommonCoin::BiasedCommonCoin(std::uint64_t seed, double epsilon,
                                   int adversary_bit)
    : seed_(seed), epsilon_(epsilon), adversary_bit_(adversary_bit) {
  HYCO_CHECK_MSG(epsilon >= 0.0 && epsilon <= 1.0,
                 "epsilon " << epsilon << " out of [0,1]");
  HYCO_CHECK_MSG(adversary_bit == 0 || adversary_bit == 1,
                 "adversary bit must be 0/1, got " << adversary_bit);
}

int BiasedCommonCoin::bit(Round r) {
  // Two independent derivations from (seed, r): one for the fair bit, one
  // for the "is this round corrupted" trial. Both are pure functions of
  // (seed, r), so every process computes the same outcome.
  const std::uint64_t h1 = mix64(seed_, static_cast<std::uint64_t>(r));
  const std::uint64_t h2 = mix64(h1, 0xAD7E);
  const double u =
      static_cast<double>(h2 >> 11) * 0x1.0p-53;  // uniform in [0,1)
  if (u < epsilon_) return adversary_bit_;
  return static_cast<int>(h1 & 1U);
}

std::unique_ptr<ICommonCoin> make_common_coin(std::uint64_t seed,
                                              double epsilon) {
  const std::uint64_t coin_seed = mix64(seed, 0xC01C01);
  if (epsilon > 0.0) {
    return std::make_unique<BiasedCommonCoin>(coin_seed, epsilon,
                                              kAdversaryBit);
  }
  return std::make_unique<CommonCoin>(coin_seed);
}

}  // namespace hyco
