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
//    (512 bytes plus a link). Blocks come from chunks the queue owns, and
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
//    (at, seq) order. The window's size is fixed: on the simulator's
//    workloads the heap takes no event at all (dense all-to-all grids) or
//    a minority of them (fault scenarios, the service).
//
// Ticks: pop_tick() removes the whole run of events sharing the minimum
// time in one step and returns it as one contiguous span, in seq order, so
// the simulator can dispatch a broadcast burst without a virtual call per
// message.
//
// Payload rules for the n² path:
//
//  * One payload per broadcast, one push per fan-out. stage() parks a
//    {from, refcount, Message} payload in a chunked slab and returns it
//    pinned; push_fanout() files one 16-byte calendar entry {seq, payload
//    ref, to} per copy of the fan-out in a single call, adding the copies'
//    references to the payload at once; unpin() drops the pin. An entry
//    carries no time, since its day bucket holds exactly one timestamp. A
//    payload no entry was pushed for is freed when its pin drops.
//  * No per-event heap allocation, and no per-pop Message copy. Slab chunks
//    never move, so pop_tick() hands out stable `const Message*`
//    references, and a chunk's slots stay uninitialized until stage()
//    writes them. A payload whose last entry a pop_tick() removes is
//    recycled only at the NEXT pop_tick() (deferred free list), so the
//    reference stays valid across any pushes the tick's handlers make.
//  * Generic timer/callback events (the ~10 cold call sites in runners,
//    harnesses, and tests) park their std::function in a free-list slab;
//    pushing into a recycled slot performs no allocation as long as the
//    callable fits std::function's small-buffer optimization.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/types.h"
#include "net/message.h"
#include "util/assert.h"

namespace hyco {

/// One copy of a fan-out (EventQueue::push_fanout): its receiver and its
/// delay from the push time. A delay model's draw() fills in the delays.
struct FanoutCopy {
  SimTime delay = 0;
  ProcId to = -1;
};

/// One event of a tick (see EventQueue::pop_tick): either a message
/// delivery (its staged payload referenced in the slab) or a generic
/// callback (closure parked in the pool, referenced by slot).
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
  std::uint32_t slot = 0;  ///< Callback: closure slot; Deliver: payload index
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
/// free-list slabs for staged payloads and callback closures. Not
/// thread-safe (the simulator is single-threaded).
class EventQueue {
 public:
  /// A calendar window of 2^bucket_bits days. The default suits the
  /// simulator's workloads (dense near-future times); tests pin tiny
  /// windows to force the overflow heap and migration paths.
  explicit EventQueue(unsigned bucket_bits = 11);

  /// Pre-sizes the payload slab's index space for `payloads` concurrently
  /// staged payloads, and the closure pool for `callbacks` concurrent
  /// callbacks. Never shrinks.
  void reserve(std::size_t payloads, std::size_t callbacks = 0);

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
    RouteState r = route_state();
    const std::uint64_t seq = route(r, at, Target{slot, -1});
    store(r);
    note_size();
    return seq;
  }

  /// Stages one message from `from` for a fan-out of deliveries and returns
  /// its payload index, pinned: the payload lives until the pin is dropped
  /// (unpin) and every entry pushed for it has been popped. Allocation-free
  /// in steady state: the message is copied into a recycled slab slot.
  std::uint32_t stage(ProcId from, const Message& m) {
    std::uint32_t idx;
    if (!free_payloads_.empty()) {
      idx = free_payloads_.back();
      free_payloads_.pop_back();
    } else {
      idx = slab_used_++;
      if ((idx >> kChunkBits) >= slab_.size()) {
        slab_.emplace_back(new PayloadSlot[kChunkSize]);
      }
    }
    payload(idx) = Payload{from, 1, m};
    return idx;
  }

  /// Files a fan-out of staged payload `idx` in one call: copy i is a
  /// delivery to copies[i].to at `at + copies[i].delay`. `at` must not
  /// precede the last popped time and no delay may be negative; both are
  /// checked before anything is filed, so a rejected fan-out files nothing
  /// and adds no reference to the payload. Each copy still gets its own
  /// seq, in copy order, and its own route (calendar day, window slide or
  /// overflow heap), so the queue ends up exactly as if the copies had been
  /// pushed one at a time. Returns the first copy's insertion sequence;
  /// copy i's is that plus i — a stable identity for the scheduled
  /// delivery that the trace layer uses as its message id.
  std::uint64_t push_fanout(SimTime at, std::uint32_t idx,
                            std::span<const FanoutCopy> copies) {
    check_push_time(at);
    SimTime min_delay = 0;
    for (const FanoutCopy& c : copies) {
      min_delay = std::min(min_delay, c.delay);
    }
    HYCO_CHECK_MSG(min_delay >= 0, "negative delay " << min_delay);
    payload(idx).refs += static_cast<std::uint32_t>(copies.size());
    RouteState r = route_state();
    const std::uint64_t first = r.seq;
    const std::uint32_t ref = idx | kDeliverBit;
    for (const FanoutCopy& c : copies) {
      route(r, at + c.delay, Target{ref, c.to});
    }
    store(r);
    note_size();  // the size only grew during the fan-out
    return first;
  }

  /// Drops stage()'s pin on payload `idx`, freeing it if no entry holds it.
  void unpin(std::uint32_t idx) {
    if (--payload(idx).refs == 0) free_payloads_.push_back(idx);
  }

  /// One delivery on a payload of its own: stage, push a fan-out of one
  /// and unpin.
  std::uint64_t push_deliver(SimTime at, ProcId from, ProcId to,
                             const Message& m) {
    check_push_time(at);  // before staging, so a rejected push leaks nothing
    const std::uint32_t idx = stage(from, m);
    const FanoutCopy copy{0, to};
    const std::uint64_t seq = push_fanout(at, idx, {&copy, 1});
    unpin(idx);
    return seq;
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

  /// High-water mark of size() — the peak number of concurrently pending
  /// events (feeds the perf snapshot's queue-depth metric).
  [[nodiscard]] std::size_t peak_size() const { return peak_; }

  // Pool introspection for tests and benchmarks: total slots ever
  // materialized, and how many of them are currently in use. The deliver
  // pool counts staged payloads: one is in use while pinned or while an
  // entry holds it, and one awaiting its deferred recycle counts as free.
  [[nodiscard]] std::size_t pool_capacity() const { return pool_.size(); }
  [[nodiscard]] std::size_t pool_in_use() const {
    return pool_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t deliver_pool_capacity() const {
    return slab_used_;
  }
  [[nodiscard]] std::size_t deliver_pool_in_use() const {
    return slab_used_ - free_payloads_.size() - pending_frees_.size();
  }

  /// Calendar introspection for tests: how many events sit in the overflow
  /// heap now.
  [[nodiscard]] std::size_t overflow_size() const { return heap_.size(); }

 private:
  // 4-ary implicit heap: children of i are 4i+1 … 4i+4, parent (i-1)/4.
  static constexpr std::size_t kArity = 4;

  /// High bit of an event's ref distinguishes the two payload slabs; low 31
  /// bits index into the corresponding one.
  static constexpr std::uint32_t kDeliverBit = 0x8000'0000u;

  /// Payload slab chunking: fixed-size chunks that never move once
  /// allocated, so `const Message*` references survive slab growth. A
  /// payload serves a whole broadcast, so a run holds O(n) of them: 256
  /// slots (10 KB) cover an n = 8 run in one chunk and an n = 128 run in a
  /// few, where a chunk sized for deliveries would mostly sit unwritten.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  /// Entries per calendar block. Smaller blocks add chain hops to the
  /// thousands-deep days of the perf snapshot's fan-out bursts; larger ones
  /// leave more of each block empty on the one- or two-entry days of small
  /// runs.
  static constexpr std::uint32_t kBlockEntries = 32;
  /// Blocks per chunk of block storage (~33 KB, left uninitialized).
  static constexpr std::size_t kChunkBlocks = 64;

  /// What the overflow heap orders: (at, seq) packed into one 128-bit
  /// integer, high half `at` (non-negative by contract, so unsigned compare
  /// is exact), low half `seq`. One register-pair compare replaces the
  /// two-field lexicographic compare, and four 16-byte keys share a cache
  /// line. (ref, to) pairs ride in a parallel array (refs_[i] belongs to
  /// heap_[i]) so the sift only drags 8 extra bytes per moved node.
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

  /// What an event points at: the payload ref and, for a delivery, the
  /// receiver (-1 for a callback).
  struct Target {
    std::uint32_t ref;
    ProcId to;
  };

  /// A calendar entry, 16 bytes. Its time is its day's: a bucket holds
  /// exactly one timestamp.
  struct Entry {
    std::uint64_t seq;
    Target target;
  };
  static_assert(sizeof(Entry) == 16);

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

  /// A staged message and its sender, shared by every entry pushed for it,
  /// in a stable slab chunk. `refs` counts those entries still queued, plus
  /// one while stage()'s pin holds.
  struct Payload {
    ProcId from;
    std::uint32_t refs;
    Message msg;
  };

  /// A slab slot: constructing a chunk writes nothing, and stage()'s
  /// assignment starts the payload's lifetime.
  union PayloadSlot {
    PayloadSlot() {}
    Payload p;
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

  Payload& payload(std::uint32_t idx) {
    return slab_[idx >> kChunkBits][idx & (kChunkSize - 1)].p;
  }

  /// What routing a push reads and writes, copied out of the members for
  /// the length of one push (route_state) and written back once (store).
  /// An entry store may alias any of these 64-bit members, so a fan-out
  /// that routed through the members would reload and re-store each of
  /// them per copy; no entry store can touch a local copy.
  struct RouteState {
    std::uint64_t seq;         ///< next_seq_
    std::size_t cal_count;     ///< cal_count_
    std::uint64_t base_day;    ///< base_day_
    std::uint64_t cursor_day;  ///< cursor_day_ (read only)
    std::uint64_t nb;          ///< nb_ (read only)
    std::uint64_t mask;        ///< mask_ (read only)
    Bucket* buckets;           ///< buckets_.data() (read only)
  };

  RouteState route_state() {
    return {next_seq_, cal_count_, base_day_, cursor_day_,
            nb_,       mask_,      buckets_.data()};
  }
  void store(const RouteState& r) {
    next_seq_ = r.seq;
    cal_count_ = r.cal_count;
    base_day_ = r.base_day;
  }

  /// Files a freshly pushed event (checked: at or after the cursor) into
  /// the calendar window or the overflow heap, under `r`. Returns the
  /// assigned insertion sequence. The caller stores `r` back and updates
  /// the peak size (note_size).
  std::uint64_t route(RouteState& r, SimTime at, Target target) {
    const std::uint64_t seq = r.seq++;
    const std::uint64_t d = day(at);
    if (d - r.base_day >= r.nb) {
      if (r.cal_count == 0 && heap_.empty() && d - r.cursor_day < r.nb) {
        // Empty queue: slide the window to the cursor.
        r.base_day = r.cursor_day;
      } else {
        push_overflow(at, seq, target);
        return seq;
      }
    }
    append_to_bucket(r.buckets[d & r.mask], Entry{seq, target});
    ++r.cal_count;
    return seq;
  }

  void note_size() {
    const std::size_t sz = cal_count_ + heap_.size();
    if (sz > peak_) peak_ = sz;
  }

  /// Appends `e` to day `b`; the caller counts it in cal_count.
  void append_to_bucket(Bucket& b, const Entry& e) {
    if (b.first == nullptr) {
      b.first = b.last = take_block();
    } else if (b.fill == kBlockEntries) {
      Block* blk = take_block();
      b.last->next = blk;
      b.last = blk;
      b.fill = 0;
    }
    b.last->items[b.fill++] = e;
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
  void grow_blocks();

  /// Drops the first `k` pending entries of `b`, releasing every block
  /// they empty. Precondition: `b` holds at least `k` pending entries.
  void consume(Bucket& b, std::size_t k);

  void flush_pending_frees() {
    if (pending_frees_.empty()) return;
    free_payloads_.insert(free_payloads_.end(), pending_frees_.begin(),
                          pending_frees_.end());
    pending_frees_.clear();
  }

  /// route()'s cold path: files an event past the window into the
  /// overflow heap. Out of line, so that a fan-out's per-copy loop keeps
  /// its routing state in registers instead of spilling it to the stack.
  void push_overflow(SimTime at, std::uint64_t seq, Target target);

  /// Removes the heap minimum (caller has already read front()).
  void heap_pop_top();

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    const Target r = refs_[i];
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

  // Overflow heap (times strictly beyond the window).
  std::vector<Key> heap_;      ///< (at, seq) sort keys
  std::vector<Target> refs_;   ///< parallel (ref, to) pairs

  // Payload slab: chunks never move, so popped refs stay valid.
  std::vector<std::unique_ptr<PayloadSlot[]>> slab_;
  std::uint32_t slab_used_ = 0;  ///< high-water of materialized slots
  std::vector<std::uint32_t> free_payloads_;
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
