// Instrumentation counters for shared-memory operations. The Section III-C
// reproduction (experiment T-INV) relies on these to count consensus-object
// invocations per process and per phase.
#pragma once

#include <cstdint>

namespace hyco {

/// Aggregate operation counts of one shared memory (one cluster's MEM_x, or
/// one m&m per-process memory).
struct ShmOpCounts {
  std::uint64_t reads = 0;
  std::uint64_t cas_attempts = 0;
  std::uint64_t cas_successes = 0;
  std::uint64_t consensus_proposals = 0;

  ShmOpCounts& operator+=(const ShmOpCounts& o) {
    reads += o.reads;
    cas_attempts += o.cas_attempts;
    cas_successes += o.cas_successes;
    consensus_proposals += o.consensus_proposals;
    return *this;
  }
};

}  // namespace hyco
