// Coin oracles (Section II-B).
//
//  * LocalCoin — per-process independent fair coin: local_coin() returns 0
//    or 1 with probability 1/2; coins of distinct processes are independent.
//  * CommonCoin — common_coin() delivers the SAME random bit sequence
//    b_1, b_2, ... to every process: the r-th invocation by p_i and the r-th
//    invocation by p_j return the same bit. Implemented as a seeded hash of
//    the round number, which every process can evaluate locally — a perfect
//    common coin with zero communication (the paper defers constructions to
//    textbooks).
//  * BiasedCommonCoin — ablation oracle: with probability epsilon the "coin"
//    returns an adversary-chosen bit instead of the fair bit, still common
//    to all processes. Models an imperfect coin; used by experiment T-ADV.
#pragma once

#include <cstdint>
#include <memory>

#include "core/types.h"
#include "util/rng.h"

namespace hyco {

/// Independent fair coin of one process.
class LocalCoin {
 public:
  /// Each process must get its own stream (fork the run seed by process id).
  explicit LocalCoin(std::uint64_t seed) : rng_(seed) {}

  /// Returns 0 or 1 with probability 1/2 each.
  int flip() { return rng_.coin(); }

  [[nodiscard]] std::uint64_t flips() const { return count_; }

  /// flip() with instrumentation.
  int flip_counted() {
    ++count_;
    return flip();
  }

 private:
  Rng rng_;
  std::uint64_t count_ = 0;
};

/// Oracle returning the common bit b_r for round r.
class ICommonCoin {
 public:
  virtual ~ICommonCoin() = default;

  /// The r-th bit of the common sequence; identical for every caller.
  virtual int bit(Round r) = 0;
};

/// Perfect common coin: b_r = hash(seed, r) & 1.
class CommonCoin final : public ICommonCoin {
 public:
  explicit CommonCoin(std::uint64_t seed) : seed_(seed) {}
  int bit(Round r) override {
    return static_cast<int>(mix64(seed_, static_cast<std::uint64_t>(r)) & 1U);
  }

 private:
  std::uint64_t seed_;
};

/// The bit the adversary substitutes whenever a run's common coin is
/// corrupted (RunConfig::coin_epsilon, ServiceRunConfig::coin_epsilon).
inline constexpr int kAdversaryBit = 0;

/// ε-biased common coin: with probability epsilon the adversary substitutes
/// `adversary_bit` (0 or 1) for round r's bit. Deterministic in (seed, r),
/// hence still common.
class BiasedCommonCoin final : public ICommonCoin {
 public:
  BiasedCommonCoin(std::uint64_t seed, double epsilon, int adversary_bit);

  int bit(Round r) override;

 private:
  std::uint64_t seed_;
  double epsilon_;
  int adversary_bit_;
};

/// The common coin of a run seeded `seed`: a BiasedCommonCoin reading
/// kAdversaryBit when epsilon > 0, a perfect CommonCoin otherwise. Both
/// hash from mix64(seed, 0xC01C01), so every driver of Algorithm 3 (and the
/// TOB above it) flips the same bits for the same seed.
std::unique_ptr<ICommonCoin> make_common_coin(std::uint64_t seed,
                                              double epsilon);

}  // namespace hyco
