#include "sim/event_queue.h"

namespace hyco {

EventQueue::EventQueue(unsigned bucket_bits) {
  HYCO_CHECK_MSG(bucket_bits >= 1 && bucket_bits <= 24,
                 "bucket_bits out of range: " << bucket_bits);
  nb_ = std::uint64_t{1} << bucket_bits;
  mask_ = nb_ - 1;
  buckets_.resize(nb_);
}

void EventQueue::reserve(std::size_t payloads, std::size_t callbacks) {
  // Payloads: pre-size the chunk pointer table (chunks themselves
  // materialize on demand — one allocation per kChunkSize slots, and
  // existing chunks never move) and the free list that can grow to slab
  // size.
  const std::size_t chunks = (payloads + kChunkSize - 1) >> kChunkBits;
  if (chunks > slab_.capacity()) slab_.reserve(chunks);
  if (payloads > free_payloads_.capacity()) free_payloads_.reserve(payloads);
  if (callbacks > pool_.capacity()) {
    pool_.reserve(callbacks);
    free_slots_.reserve(callbacks);
  }
}

EventQueue::Bucket& EventQueue::activate() {
  if (cal_count_ == 0) migrate_from_heap();
  for (std::uint64_t scanned = 0; scanned <= nb_; ++scanned, ++cursor_day_) {
    Bucket& b = buckets_[cursor_day_ & mask_];
    if (b.first != nullptr) return b;
  }
  HYCO_CHECK_MSG(false, "calendar cursor ran off the window (count "
                            << cal_count_ << ")");
  return buckets_.front();  // unreachable
}

TickSpan EventQueue::pop_tick(std::uint64_t cap) {
  HYCO_CHECK(!empty());
  HYCO_CHECK_MSG(cap >= 1, "pop_tick needs a positive event budget");
  flush_pending_frees();
  Bucket& b = activate();
  const auto t = static_cast<SimTime>(cursor_day_);
  // Copy the day out, block by block, then consume what was copied: the
  // tick's handlers may append to this very day, so the span must not
  // alias it. A payload whose last entry leaves here recycles only at the
  // next pop_tick, so it outlives whatever the tick's handlers push.
  std::size_t k = 0;
  std::size_t i = b.head;
  for (const Block* blk = b.first;; blk = blk->next, i = 0) {
    const std::size_t end = blk == b.last ? b.fill : kBlockEntries;
    std::size_t stop = end;
    if (cap - k < stop - i) stop = i + static_cast<std::size_t>(cap - k);
    if (tick_items_.size() < k + (stop - i)) {
      tick_items_.resize(k + (stop - i));
    }
    TickItem* out = tick_items_.data() + k;
    for (std::size_t j = i; j < stop; ++j, ++out) {
      const Entry& e = blk->items[j];
      if (e.target.ref & kDeliverBit) {
        const std::uint32_t idx = e.target.ref & ~kDeliverBit;
        Payload& p = payload(idx);
        *out = TickItem{&p.msg, e.seq, p.from, e.target.to, idx,
                        TickItem::Kind::Deliver};
        if (--p.refs == 0) pending_frees_.push_back(idx);
      } else {
        *out = TickItem{nullptr, e.seq, -1, -1, e.target.ref,
                        TickItem::Kind::Callback};
      }
    }
    k += stop - i;
    if (stop < end || blk == b.last) break;
  }
  consume(b, k);
  return TickSpan{t, tick_items_.data(), k};
}

void EventQueue::consume(Bucket& b, std::size_t k) {
  cal_count_ -= k;
  for (;;) {
    const std::size_t end = b.first == b.last ? b.fill : kBlockEntries;
    if (k < end - b.head) {
      b.head = static_cast<std::uint16_t>(b.head + k);
      return;
    }
    k -= end - b.head;
    Block* done = b.first;
    if (done == b.last) {  // the day is drained
      release_block(done);
      b = Bucket{};
      return;
    }
    b.first = done->next;
    b.head = 0;
    release_block(done);
    if (k == 0) return;
  }
}

void EventQueue::grow_blocks() {
  block_chunks_.emplace_back(new Block[kChunkBlocks]);
  fresh_ = block_chunks_.back().get();
  fresh_end_ = fresh_ + kChunkBlocks;
}

void EventQueue::migrate_from_heap() {
  HYCO_CHECK_MSG(!heap_.empty(), "migrate with an empty overflow heap");
  base_day_ = day(key_at(heap_.front()));
  cursor_day_ = base_day_;
  const std::uint64_t end_day = base_day_ + nb_;
  // Heap pops come out in increasing (at, seq), so each day's appends stay
  // in seq order.
  while (!heap_.empty()) {
    const Key k = heap_.front();
    const SimTime at = key_at(k);
    const std::uint64_t d = day(at);
    if (d >= end_day) break;
    const Target target = refs_.front();
    heap_pop_top();
    append_to_bucket(buckets_[d & mask_], Entry{key_seq(k), target});
    ++cal_count_;
  }
}

void EventQueue::push_overflow(SimTime at, std::uint64_t seq, Target target) {
  heap_.push_back(make_key(at, seq));
  refs_.push_back(target);
  sift_up(heap_.size() - 1);
}

void EventQueue::heap_pop_top() {
  const std::size_t n = heap_.size() - 1;
  if (n > 0) {
    // Hole-sifting: walk the min-child chain down from the root, then drop
    // the detached back() element into the hole and bubble it up. In the
    // common bursty case (many events at one virtual time) the back element
    // belongs near the bottom, so each touched node moves exactly once.
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < n) {
      std::size_t best;
      if (child + kArity <= n) {
        // Full fan of four children: tournament of independent compares
        // (two pairs, then the winners) instead of a serial scan, so the
        // selects can retire as conditional moves off a short dep chain.
        const std::size_t b0 =
            child + (heap_[child + 1] < heap_[child] ? 1 : 0);
        const std::size_t b1 =
            child + 2 + (heap_[child + 3] < heap_[child + 2] ? 1 : 0);
        best = heap_[b1] < heap_[b0] ? b1 : b0;
      } else {
        best = child;
        for (std::size_t c = child + 1; c < n; ++c) {
          best = heap_[c] < heap_[best] ? c : best;
        }
      }
      heap_[hole] = heap_[best];
      refs_[hole] = refs_[best];
      hole = best;
      child = kArity * hole + 1;
    }
    heap_[hole] = heap_[n];  // hole < n always: best is < n at every step
    refs_[hole] = refs_[n];
    sift_up(hole);
  }
  heap_.pop_back();
  refs_.pop_back();
}

}  // namespace hyco
