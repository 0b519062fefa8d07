// Deterministic pseudo-random number generation for reproducible experiments.
//
// The whole repository derives every random choice (message delays, coin
// flips, crash subsets, workload inputs) from a single 64-bit run seed via
// SplitMix64-based stream derivation, so any run can be replayed exactly.
#pragma once

#include <array>
#include <cstdint>

namespace hyco {

/// SplitMix64 step; also used as a mixing/finalizing function.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless mix of two 64-bit values into one; used to derive independent
/// stream seeds (e.g. per-process local-coin streams) from a run seed.
constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** generator (Blackman & Vigna). Fast, 256-bit state, passes
/// BigCrush; plenty for simulation workloads. Not cryptographic.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64 (the procedure
  /// recommended by the xoshiro authors).
  explicit Rng(std::uint64_t seed = 0xD1B54A32D192ED03ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Derives an independent generator for a named substream.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    return Rng(mix64(s_[0] ^ s_[3], stream_id));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. The span
  /// and the sum are computed in unsigned arithmetic, so every range is
  /// defined: the full range [INT64_MIN, INT64_MAX] (span 2^64, which
  /// wraps to 0) adds one whole next_u64() to lo.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const auto base = static_cast<std::uint64_t>(lo);
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - base + 1;
    return static_cast<std::int64_t>(
        base + (span == 0 ? next_u64() : bounded(span)));
  }

  /// Uniform integer in [0, bound); bound == 0 yields 0.
  std::uint64_t bounded(std::uint64_t bound) {
    if (bound <= 1) return 0;
    // Unbiased modulo with rejection: discard draws below 2^64 mod bound.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return next_double() < p; }

  /// A fair coin flip in {0, 1}.
  int coin() { return static_cast<int>(next_u64() >> 63); }

  /// Exponentially distributed double with the given mean (> 0).
  double exponential(double mean);

  /// Fisher–Yates shuffle of a random-access container. Draw order: one
  /// bounded(i) per position for i = size() … 2 (bounded(1) is never
  /// drawn), finalizing positions back to front.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(bounded(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Partial Fisher–Yates: after the call, c[0 … k-1] is a uniform random
  /// k-subset of the container's elements in uniform random order; the
  /// tail is unspecified. Draw order: draw i (0-based) uses
  /// bounded(size - i) — the same bound sequence as the first k draws of
  /// shuffle() — so selecting k elements consumes exactly k draws
  /// (bounded(1) consumes none) instead of size-1. Requires k <= size.
  template <typename Container>
  void partial_shuffle(Container& c, std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(bounded(c.size() - i));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  // UniformRandomBitGenerator interface (for interop with <algorithm>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

/// Rng::uniform(lo, hi) with the range fixed up front, for a bound that is
/// constant for a whole run (a delay model's, a channel's jitter). The
/// constructor computes the rejection threshold 2^64 mod span and the
/// 128-bit magic number ceil(2^128 / span) of Lemire, Kaser & Kurz,
/// "Faster remainder by direct computation" (2019), so a draw takes its
/// remainder with multiplications instead of a division. A draw
/// accepts and rejects the same next_u64() values as Rng::uniform(lo, hi)
/// and returns the same value, so the two are interchangeable in any
/// stream.
class UniformDraw {
 public:
  /// Requires lo <= hi.
  UniformDraw(std::int64_t lo, std::int64_t hi);

  std::int64_t operator()(Rng& rng) const {
    if (span_ <= 1) {
      // A single value takes no draw; the full range (span 0) takes one.
      return static_cast<std::int64_t>(span_ == 0 ? base_ + rng.next_u64()
                                                  : base_);
    }
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold_) return static_cast<std::int64_t>(base_ + mod(r));
    }
  }

 private:
  /// r mod span_: the low 128 bits of magic_ * r, times span_, keep the
  /// top 64 bits of the 192-bit product. Exact for every 64-bit r and
  /// span_ >= 2, because the magic number carries 128 bits.
  [[nodiscard]] std::uint64_t mod(std::uint64_t r) const {
    const unsigned __int128 low = magic_ * r;
    const unsigned __int128 bottom =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(low)) *
         span_) >> 64;
    const unsigned __int128 top = (low >> 64) * span_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }

  std::uint64_t base_;       ///< lo, as unsigned
  std::uint64_t span_;       ///< hi - lo + 1 mod 2^64; 0 = the full range
  std::uint64_t threshold_;  ///< draws below it are rejected
  unsigned __int128 magic_;  ///< ceil(2^128 / span_)
};

}  // namespace hyco
