// Foundational vocabulary types shared by every module: process/cluster/round
// identifiers and the three-valued estimate domain {0, 1, ⊥} of the paper.
//
// Process indices are 0-based internally (p_0 … p_{n-1}); the paper writes
// p_1 … p_n. Documentation and printed tables use the internal 0-based ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>

namespace hyco {

/// Index of a process (the paper's p_i). 0-based.
using ProcId = std::int32_t;

/// Index of a cluster (the paper's P[x]). 0-based.
using ClusterId = std::int32_t;

/// Round number r >= 1 (0 means "not started").
using Round = std::int32_t;

/// Phase within a round of Algorithm 2. Algorithm 3 has a single phase and
/// always uses Phase::One.
enum class Phase : std::uint8_t { One = 1, Two = 2 };

inline std::ostream& operator<<(std::ostream& os, Phase ph) {
  return os << (ph == Phase::One ? "ph1" : "ph2");
}

/// The exchange slot of (r, ph): 2(r − 1) + (ph − 1), the index under which
/// a process keeps per-(round, phase) state. Any round maps to a slot; a
/// round < 1 maps past every slot that can exist.
constexpr std::size_t exchange_slot(Round r, Phase ph) {
  return 2 * static_cast<std::size_t>(static_cast<std::int64_t>(r) - 1) +
         (ph == Phase::Two ? 1 : 0);
}

/// Exchange slots a process's first growth makes room for: rounds 1–8, as
/// in the cluster memory's first chunk. Later growth doubles.
inline constexpr std::size_t kFirstExchangeSlots = 16;

/// A value in the estimate domain {0, 1, ⊥}. ⊥ (Bot) is the paper's "no
/// championed value". The underlying values are chosen so that an Estimate
/// can directly index a 3-slot array (supporters[0], supporters[1],
/// supporters[⊥]).
enum class Estimate : std::uint8_t { Zero = 0, One = 1, Bot = 2 };

/// True iff e is a binary value (0 or 1), i.e. not ⊥.
constexpr bool is_binary(Estimate e) { return e != Estimate::Bot; }

/// Converts a bit (0/1) into the corresponding Estimate.
constexpr Estimate estimate_from_bit(int bit) {
  return bit == 0 ? Estimate::Zero : Estimate::One;
}

/// Converts a binary Estimate to its bit. Precondition: is_binary(e).
constexpr int estimate_to_bit(Estimate e) {
  return e == Estimate::Zero ? 0 : 1;
}

/// Array index of an estimate (0, 1, or 2 for ⊥).
constexpr std::size_t estimate_index(Estimate e) {
  return static_cast<std::size_t>(e);
}

/// The three estimate values, in index order; handy for iteration.
inline constexpr Estimate kAllEstimates[3] = {Estimate::Zero, Estimate::One,
                                              Estimate::Bot};

/// A set of estimates as a 3-bit mask: bit estimate_index(v) is set iff v
/// is a member.
using EstimateSet = std::uint8_t;

/// The set of the listed estimates.
constexpr EstimateSet estimate_set(std::initializer_list<Estimate> vs) {
  EstimateSet s = 0;
  for (const Estimate v : vs) {
    s |= static_cast<EstimateSet>(1u << estimate_index(v));
  }
  return s;
}

/// True iff v is a member of s.
constexpr bool contains(EstimateSet s, Estimate v) {
  return ((s >> estimate_index(v)) & 1u) != 0;
}

inline const char* to_cstring(Estimate e) {
  switch (e) {
    case Estimate::Zero: return "0";
    case Estimate::One: return "1";
    case Estimate::Bot: return "bot";
  }
  return "?";
}

inline std::ostream& operator<<(std::ostream& os, Estimate e) {
  return os << to_cstring(e);
}

/// Simulated time in abstract nanoseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kSimTimeNever = -1;

}  // namespace hyco
