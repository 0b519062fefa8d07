// Multivalued consensus from binary consensus — the paper's future-work
// direction ("it would be interesting to investigate the scalability
// benefits of the hybrid communication model for other distributed
// computing problems", Section V), built entirely on the paper's own
// primitives.
//
// Construction (bit-by-bit reduction in the style of Mostéfaoui–Raynal,
// applied to the proposer's index rather than to the value):
//  1. Every process uniform-reliably broadcasts its proposal (VALUE
//     messages; URB = re-broadcast on first delivery, so any value
//     delivered anywhere is eventually delivered by every correct process).
//  2. The winning origin's index is decided MSB-first by B = max(1,
//     bit_width(n - 1)) sequential instances of the hybrid common-coin
//     binary consensus (Algorithm 3), multiplexed via per-message instance
//     ids. At bit k a process proposes bit k of the SMALLEST delivered
//     origin index matching the decided prefix, so by induction the decided
//     index d names an origin whose VALUE some process delivered; a process
//     with no matching origin waits for URB to deliver one.
//  3. The decision is d's proposed value (validity), taken once URB has
//     delivered VALUE(d) here; MULTIDECIDE gossip carries it and, with the
//     per-bit DECIDE gossip, lets stragglers catch up.
//
// Fault tolerance is inherited unchanged: the one-for-all property holds
// per embedded instance, so multivalued consensus also survives a majority
// of crashes whenever a covering set of clusters keeps one live process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "coin/coin.h"
#include "core/cluster_layout.h"
#include "core/common_coin_process.h"
#include "net/network.h"
#include "shm/cluster_memory.h"

namespace hyco {

/// INetwork adapter that stamps a fixed instance id on all outgoing
/// traffic, so embedded binary instances can share one physical network.
class InstanceNetwork final : public INetwork {
 public:
  InstanceNetwork(INetwork& inner, InstanceId instance)
      : inner_(inner), instance_(instance) {}

  void send(ProcId from, ProcId to, const Message& m) override {
    Message stamped = m;
    stamped.instance = instance_;
    inner_.send(from, to, stamped);
  }
  void broadcast(ProcId from, const Message& m) override {
    Message stamped = m;
    stamped.instance = instance_;
    inner_.broadcast(from, stamped);
  }
  [[nodiscard]] ProcId n() const override { return inner_.n(); }

 private:
  INetwork& inner_;
  InstanceId instance_;
};

/// Lazily materialized cluster memories, one MEM_x per (instance, cluster):
/// each embedded binary instance gets fresh CONS arrays.
class MemoryPool {
 public:
  MemoryPool(ProcId n, ConsensusImpl impl) : n_(n), impl_(impl) {}

  ClusterMemory& get(InstanceId instance, ClusterId cluster);

  [[nodiscard]] ShmOpCounts total() const;
  [[nodiscard]] std::uint64_t objects_created() const;

 private:
  ProcId n_;
  ConsensusImpl impl_;
  std::map<std::pair<InstanceId, ClusterId>, std::unique_ptr<ClusterMemory>>
      memories_;
};

/// One process of the multivalued consensus. Event-driven like the binary
/// processes: the runner feeds every delivered message to on_message().
class MultiValuedProcess {
 public:
  /// Index bits per instance at `n` processes: max(1, bit_width(n - 1)).
  [[nodiscard]] static int index_bits(ProcId n);

  /// `pool` and `coin` are shared by all processes of the run.
  /// `instance_base` reserves the instance-id block [base, base +
  /// index_bits(n)] (VALUE/MULTIDECIDE at `base`, bit k at `base + 1 + k`),
  /// so several instances — e.g. the slots of the total-order broadcast —
  /// can share one network.
  MultiValuedProcess(ProcId self, const ClusterLayout& layout, INetwork& net,
                     MemoryPool& pool, ICommonCoin& coin,
                     Round max_rounds_per_bit, InstanceId instance_base = 0);
  ~MultiValuedProcess();

  MultiValuedProcess(const MultiValuedProcess&) = delete;
  MultiValuedProcess& operator=(const MultiValuedProcess&) = delete;

  /// Proposes any 64-bit value.
  void start(std::uint64_t proposal);

  void on_message(ProcId from, const Message& m);

  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] std::optional<std::uint64_t> decision() const {
    return decision_;
  }

 private:
  void urb_deliver(ProcId origin, std::uint64_t value);
  void maybe_start_bit();
  void poll_embedded();
  void decide_multi(std::uint64_t value);
  [[nodiscard]] std::optional<std::uint64_t> min_matching_origin() const;

  ProcId self_;
  const ClusterLayout& layout_;
  INetwork& net_;
  MemoryPool& pool_;
  ICommonCoin& coin_;
  int bits_;
  Round max_rounds_per_bit_;
  InstanceId instance_base_;
  InstanceNetwork base_net_;  ///< stamps VALUE/MULTIDECIDE with the base id

  bool started_ = false;
  /// URB-delivered VALUE per origin index (empty = not delivered yet).
  std::vector<std::optional<std::uint64_t>> values_;

  int bit_ = 0;                     ///< next index bit to decide
  std::uint64_t prefix_ = 0;        ///< decided index bits, MSB-aligned
  std::unique_ptr<InstanceNetwork> inst_net_;
  std::unique_ptr<CommonCoinProcess> embedded_;
  std::map<InstanceId, std::vector<std::pair<ProcId, Message>>> backlog_;

  std::optional<std::uint64_t> decision_;
};

}  // namespace hyco
