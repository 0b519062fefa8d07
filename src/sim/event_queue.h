// Time-ordered event queue for the discrete-event simulator.
//
// Ordering is (time, insertion sequence): events at equal times run in the
// order they were scheduled, which makes every simulation fully
// deterministic for a given seed. The (at, seq) key is a total order (seq is
// unique), so the pop sequence is independent of how events are stored —
// swapping the internal structure can never change simulation behavior.
//
// Pushes are monotone: no event may be scheduled before the last popped
// time (the simulator's clock). A push before it is a contract violation.
//
// The queue is the hot path of every experiment: one all-to-all consensus
// round schedules O(n²) deliveries. The structure is a calendar queue in
// front of a 4-ary heap:
//
//  * Calendar front end. A ring of 2^bucket_bits day buckets, each holding
//    the events of one timestamp, covers the current window
//    [base_day, base_day + buckets). Pushing is an O(1) append, and since
//    seq is monotonic a day's appends are already in (at, seq) order: no
//    sort runs anywhere in the queue. Popping walks a cursor over the ring.
//    The simulator's near-future, heavily tied time distributions make this
//    O(1) per event where a heap pays an O(log n) sift against a
//    10^6-deep queue.
//  * Day storage. A day is a chain of fixed-size blocks of 32 entries
//    (768 bytes plus a link). Blocks come from chunks the queue owns, and
//    a block goes back to a LIFO free list the moment its last entry is
//    consumed, so a run's days recycle a working set of hot blocks instead
//    of each allocating and regrowing a vector of its own. An empty day
//    holds no block.
//  * Overflow heap. Events beyond the window land in the 4-ary implicit
//    min-heap (16-byte packed (at, seq) keys, parallel ref array, hole-sift
//    pop). When the calendar drains, the window rebases onto the heap's
//    minimum and near events migrate into buckets; an empty queue rebases
//    it onto the cursor instead. Every heap time is strictly later than
//    every calendar time, so the merged pop order is exactly the global
//    (at, seq) order. If overflow pushes dominate between migrations the
//    window doubles its bucket count.
//
// Ticks: pop_tick() removes the whole run of events sharing the minimum
// time in one step and returns it as one contiguous span, in seq order, so
// the simulator can dispatch a broadcast burst without a virtual call per
// message.
//
// Payload rules for the n² path:
//
//  * No per-event heap allocation, and no per-pop Message copy. Deliver
//    payloads live in a chunked slab whose chunks never move, so pop_tick()
//    hands out stable `const Message*` references. A chunk's slots stay
//    uninitialized until a push writes them. A popped slot is recycled only
//    at the NEXT pop_tick() (deferred free list), so the reference stays
//    valid across any pushes the tick's handlers make.
//  * Generic timer/callback events (the ~10 cold call sites in runners,
//    harnesses, and tests) park their std::function in a free-list slab;
//    pushing into a recycled slot performs no allocation as long as the
//    callable fits std::function's small-buffer optimization.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.h"
#include "net/message.h"
#include "util/assert.h"

namespace hyco {

/// One event of a tick (see EventQueue::pop_tick): either a message
/// delivery (payload referenced in the slab) or a generic callback (closure
/// parked in the pool, referenced by slot).
struct TickItem {
  enum class Kind : std::uint8_t {
    Callback,  ///< run the pooled closure in `slot`
    Deliver,   ///< hand `*msg` from `from` to `to` via the deliver sink
  };

  /// Deliver: payload in the slab, valid until the next pop_tick().
  /// Callback: nullptr.
  const Message* msg = nullptr;
  std::uint64_t seq = 0;   ///< insertion sequence (the event's identity)
  ProcId from = -1;        ///< Deliver: sender
  ProcId to = -1;          ///< Deliver: receiver
  std::uint32_t slot = 0;  ///< Callback: closure slot; Deliver: slab index
  Kind kind = Kind::Callback;
};

/// Events sharing the minimum virtual time, in seq order. The items pointer
/// is owned by the queue and valid until the next pop_tick(); pushes made
/// during the tick never invalidate it.
struct TickSpan {
  SimTime at = 0;
  const TickItem* items = nullptr;
  std::size_t count = 0;
};

/// Calendar-fronted priority queue of events ordered by (at, seq), with
/// free-list slabs for both payload kinds. Not thread-safe (the simulator
/// is single-threaded).
class EventQueue {
 public:
  /// Calendar geometry. The defaults suit the simulator's workloads (dense
  /// near-future times); tests pin tiny windows to force the overflow heap,
  /// migration, and widening paths.
  struct Tuning {
    unsigned bucket_bits = 11;      ///< initial ring size = 2^bucket_bits
    unsigned max_bucket_bits = 14;  ///< widen by doubling up to this
    /// Widen when overflow pushes since the last migration exceed
    /// `widen_threshold_mult * bucket_count`.
    std::size_t widen_threshold_mult = 2;
  };

  EventQueue() : EventQueue(Tuning{}) {}
  explicit EventQueue(const Tuning& t);

  /// Pre-sizes the deliver slab index space and the closure pool for
  /// `events` / `callbacks` concurrent events. Never shrinks.
  void reserve(std::size_t events, std::size_t callbacks = 0);

  /// Schedules a generic callback at `at`, which must not precede the last
  /// popped time. Returns the event's insertion sequence.
  std::uint64_t push(SimTime at, std::function<void()> fn) {
    check_push_time(at);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      pool_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(std::move(fn));
    }
    return route_new(at, slot);
  }

  /// Schedules a message delivery at `at`, which must not precede the last
  /// popped time. Allocation-free in steady state: the message is copied
  /// into a recycled slab slot, never onto the heap. Returns the event's
  /// insertion sequence — a stable identity for the scheduled delivery that
  /// the trace layer uses as its message id.
  std::uint64_t push_deliver(SimTime at, ProcId from, ProcId to,
                             const Message& m) {
    check_push_time(at);
    std::uint32_t idx;
    if (!free_deliveries_.empty()) {
      idx = free_deliveries_.back();
      free_deliveries_.pop_back();
    } else {
      idx = slab_used_++;
      if ((idx >> kChunkBits) >= slab_.size()) {
        slab_.emplace_back(new PayloadSlot[kChunkSize]);
      }
    }
    slab_[idx >> kChunkBits][idx & (kChunkSize - 1)].p =
        DeliverPayload{from, to, m};
    return route_new(at, idx | kDeliverBit);
  }

  [[nodiscard]] bool empty() const { return cal_count_ == 0 && heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return cal_count_ + heap_.size(); }

  /// Removes the pending events at the minimum virtual time, at most `cap`
  /// of them, and returns them in seq order; the rest of that time's run
  /// stays queued for the next call. Precondition: !empty(). The span and
  /// its payloads stay valid until the next pop_tick(), whatever the
  /// caller pushes meanwhile. The caller must call take_callback once for
  /// each Callback item.
  TickSpan pop_tick(std::uint64_t cap);

  /// Moves the pooled closure out of `slot` and returns the slot to the
  /// free list. Call exactly once per popped Callback item, before running
  /// the closure (the closure may push new events, which can recycle or
  /// grow the pool slot it came from).
  std::function<void()> take_callback(std::uint32_t slot) {
    HYCO_CHECK_MSG(slot < pool_.size(), "bad callback slot " << slot);
    std::function<void()> fn = std::move(pool_[slot]);
    HYCO_CHECK_MSG(static_cast<bool>(fn), "callback slot " << slot
                                          << " taken twice or never filled");
    pool_[slot] = nullptr;  // drop any residual captured state now
    free_slots_.push_back(slot);
    return fn;
  }

  /// Total number of events ever pushed.
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

  /// High-water mark of size() — the peak number of concurrently pending
  /// events (feeds the perf snapshot's queue-depth metric).
  [[nodiscard]] std::size_t peak_size() const { return peak_; }

  // Pool introspection for tests and benchmarks: total slots ever
  // materialized, and how many of them are currently in use. A deliver slot
  // awaiting its deferred recycle counts as free (its event is gone).
  [[nodiscard]] std::size_t pool_capacity() const { return pool_.size(); }
  [[nodiscard]] std::size_t pool_in_use() const {
    return pool_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t deliver_pool_capacity() const {
    return slab_used_;
  }
  [[nodiscard]] std::size_t deliver_pool_in_use() const {
    return slab_used_ - free_deliveries_.size() - pending_frees_.size();
  }

  // Calendar introspection for tests: current ring size (it doubles when
  // the window widens) and how many events sit in the overflow heap now.
  [[nodiscard]] std::size_t bucket_count() const { return nb_; }
  [[nodiscard]] std::size_t overflow_size() const { return heap_.size(); }

 private:
  // 4-ary implicit heap: children of i are 4i+1 … 4i+4, parent (i-1)/4.
  static constexpr std::size_t kArity = 4;

  /// High bit of an event's ref distinguishes the two payload slabs; low 31
  /// bits index into the corresponding one.
  static constexpr std::uint32_t kDeliverBit = 0x8000'0000u;

  /// Deliver slab chunking: fixed-size chunks that never move once
  /// allocated, so `const Message*` references survive slab growth.
  static constexpr std::uint32_t kChunkBits = 12;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  /// Entries per calendar block. Smaller blocks add chain hops to the
  /// thousands-deep days of the perf snapshot's fan-out bursts; larger ones
  /// leave more of each block empty on the one- or two-entry days of small
  /// runs.
  static constexpr std::uint32_t kBlockEntries = 32;
  /// Blocks per chunk of block storage (~49 KB, left uninitialized).
  static constexpr std::size_t kChunkBlocks = 64;

  /// What the overflow heap orders: (at, seq) packed into one 128-bit
  /// integer, high half `at` (non-negative by contract, so unsigned compare
  /// is exact), low half `seq`. One register-pair compare replaces the
  /// two-field lexicographic compare, and four 16-byte keys share a cache
  /// line. Payload refs ride in a parallel array (refs_[i] belongs to
  /// heap_[i]) so the sift only drags 4 extra bytes per moved node.
  using Key = unsigned __int128;

  static Key make_key(SimTime at, std::uint64_t seq) {
    return (Key{static_cast<std::uint64_t>(at)} << 64) | seq;
  }
  static SimTime key_at(Key k) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
  }
  static std::uint64_t key_seq(Key k) {
    return static_cast<std::uint64_t>(k);
  }

  /// A calendar entry: explicit (at, seq) plus the payload ref. 24 bytes —
  /// packing into a 16-byte Key would pad the struct to 32.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t ref;
  };

  /// A run of one day's entries; `next` links the day's chain, or the free
  /// list once the block is released.
  struct Block {
    Entry items[kBlockEntries];
    Block* next;
  };

  /// One day of the calendar ring: a chain of blocks from `first`, whose
  /// entries before `head` are consumed, to `last`, filled up to `fill`.
  /// All of a day's entries share one time, so append order is seq order.
  /// A day with no pending entry holds no block: `first` is null.
  struct Bucket {
    Block* first = nullptr;
    Block* last = nullptr;
    std::uint16_t head = 0;
    std::uint16_t fill = 0;
  };

  /// A parked Deliver payload, in a stable slab chunk.
  struct DeliverPayload {
    ProcId from;
    ProcId to;
    Message msg;
  };

  /// A slab slot: constructing a chunk writes nothing, and push_deliver's
  /// assignment starts the payload's lifetime.
  union PayloadSlot {
    PayloadSlot() {}
    DeliverPayload p;
  };

  /// A day is one unit of virtual time: each bucket holds one timestamp.
  static std::uint64_t day(SimTime at) {
    return static_cast<std::uint64_t>(at);
  }

  void check_push_time(SimTime at) const {
    HYCO_CHECK_MSG(at >= static_cast<SimTime>(cursor_day_),
                   "cannot schedule an event at " << at
                       << ", before the last popped time " << cursor_day_);
  }

  const DeliverPayload& payload(std::uint32_t idx) const {
    return slab_[idx >> kChunkBits][idx & (kChunkSize - 1)].p;
  }

  /// Files a freshly pushed event (checked: at or after the cursor) into
  /// the calendar window or the overflow heap. Returns the assigned
  /// insertion sequence.
  std::uint64_t route_new(SimTime at, std::uint32_t ref) {
    const std::uint64_t seq = next_seq_++;
    const std::uint64_t d = day(at);
    if (d - base_day_ < nb_) {
      append_to_bucket(buckets_[d & mask_], at, seq, ref);
    } else if (empty() && d - cursor_day_ < nb_) {
      base_day_ = cursor_day_;  // empty queue: slide the window to the cursor
      append_to_bucket(buckets_[d & mask_], at, seq, ref);
    } else {
      heap_push(make_key(at, seq), ref);
      ++overflow_pushes_;
    }
    const std::size_t sz = cal_count_ + heap_.size();
    if (sz > peak_) peak_ = sz;
    return seq;
  }

  void append_to_bucket(Bucket& b, SimTime at, std::uint64_t seq,
                        std::uint32_t ref) {
    if (b.first == nullptr) {
      b.first = b.last = take_block();
    } else if (b.fill == kBlockEntries) {
      Block* blk = take_block();
      b.last->next = blk;
      b.last = blk;
      b.fill = 0;
    }
    b.last->items[b.fill++] = Entry{at, seq, ref};
    ++cal_count_;
  }

  Block* take_block() {
    Block* blk = free_blocks_;
    if (blk != nullptr) {
      free_blocks_ = blk->next;
      return blk;
    }
    if (fresh_ == fresh_end_) grow_blocks();
    return fresh_++;
  }

  void release_block(Block* blk) {
    blk->next = free_blocks_;
    free_blocks_ = blk;
  }

  /// The first non-empty day at or after the cursor, which moves onto it.
  /// Precondition: !empty(). Migrates from the heap when the calendar is
  /// drained.
  Bucket& activate();
  void migrate_from_heap();
  void maybe_widen();
  void grow_blocks();

  /// Drops the first `k` pending entries of `b`, releasing every block
  /// they empty. Precondition: `b` holds at least `k` pending entries.
  void consume(Bucket& b, std::size_t k);

  void flush_pending_frees() {
    if (pending_frees_.empty()) return;
    free_deliveries_.insert(free_deliveries_.end(), pending_frees_.begin(),
                            pending_frees_.end());
    pending_frees_.clear();
  }

  void heap_push(Key k, std::uint32_t ref) {
    heap_.push_back(k);
    refs_.push_back(ref);
    sift_up(heap_.size() - 1);
  }

  /// Removes the heap minimum (caller has already read front()).
  void heap_pop_top();

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    const std::uint32_t r = refs_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (k >= heap_[parent]) break;
      heap_[i] = heap_[parent];
      refs_[i] = refs_[parent];
      i = parent;
    }
    heap_[i] = k;
    refs_[i] = r;
  }

  // Calendar window.
  std::vector<Bucket> buckets_;
  std::vector<std::unique_ptr<Block[]>> block_chunks_;
  Block* free_blocks_ = nullptr;  ///< released blocks, most recent first
  Block* fresh_ = nullptr;        ///< next never-used block of the last chunk
  Block* fresh_end_ = nullptr;
  std::uint64_t nb_;             ///< ring size, power of two
  std::uint64_t mask_;           ///< nb_ - 1
  std::uint64_t base_day_ = 0;   ///< first day of the window
  std::uint64_t cursor_day_ = 0; ///< the last popped day; >= base_day_
  std::size_t cal_count_ = 0;    ///< pending entries in the calendar
  unsigned bucket_bits_;
  unsigned max_bucket_bits_;
  std::size_t widen_threshold_mult_;
  std::uint64_t overflow_pushes_ = 0;  ///< heap pushes since last migration

  // Overflow heap (times strictly beyond the window).
  std::vector<Key> heap_;            ///< (at, seq) sort keys
  std::vector<std::uint32_t> refs_;  ///< parallel payload refs

  // Deliver payload slab: chunks never move, so popped refs stay valid.
  std::vector<std::unique_ptr<PayloadSlot[]>> slab_;
  std::uint32_t slab_used_ = 0;  ///< high-water of materialized slots
  std::vector<std::uint32_t> free_deliveries_;
  std::vector<std::uint32_t> pending_frees_;  ///< recycle at next pop_tick

  // Callback closure pool.
  std::vector<std::function<void()>> pool_;
  std::vector<std::uint32_t> free_slots_;

  /// The last popped span (its first TickSpan::count items); only grows.
  std::vector<TickItem> tick_items_;

  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace hyco
