#include "sim/event_queue.h"

#include <algorithm>

namespace hyco {

EventQueue::EventQueue(const Tuning& t)
    : bucket_bits_(t.bucket_bits),
      max_bucket_bits_(t.max_bucket_bits),
      shift_(t.shift),
      max_shift_(t.max_shift),
      widen_threshold_mult_(t.widen_threshold_mult) {
  HYCO_CHECK_MSG(t.bucket_bits >= 1 && t.bucket_bits <= 24,
                 "bucket_bits out of range: " << t.bucket_bits);
  HYCO_CHECK_MSG(t.max_bucket_bits >= t.bucket_bits &&
                     t.max_bucket_bits <= 24,
                 "max_bucket_bits out of range: " << t.max_bucket_bits);
  HYCO_CHECK_MSG(t.shift <= t.max_shift && t.max_shift < 63,
                 "shift out of range: " << t.shift << "/" << t.max_shift);
  HYCO_CHECK_MSG(t.widen_threshold_mult >= 1,
                 "widen_threshold_mult must be >= 1");
  nb_ = std::uint64_t{1} << bucket_bits_;
  mask_ = nb_ - 1;
  buckets_.resize(nb_);
}

void EventQueue::reserve(std::size_t events, std::size_t callbacks) {
  // Deliver payloads: pre-size the chunk pointer table (chunks themselves
  // materialize on demand — one allocation per 4096 slots, and existing
  // chunks never move) and the free lists that can grow to slab size.
  const std::size_t chunks = (events + kChunkSize - 1) >> kChunkBits;
  if (chunks > slab_.capacity()) slab_.reserve(chunks);
  if (events > free_deliveries_.capacity()) free_deliveries_.reserve(events);
  if (callbacks > pool_.capacity()) {
    pool_.reserve(callbacks);
    free_slots_.reserve(callbacks);
  }
}

TickSpan EventQueue::pop_tick(std::uint64_t cap) {
  HYCO_CHECK(!tick_open_);
  HYCO_CHECK(!empty());
  HYCO_CHECK_MSG(cap >= 1, "pop_tick needs a positive event budget");
  flush_pending_frees();
  const Bucket& b = activate();
  const SimTime t = b.first->items[b.head].at;
  // Copy the minimum-time run out, block by block: handler pushes during
  // the tick may append to this very bucket, so the span must not alias
  // it. With shift 0 the whole bucket shares one timestamp; coarser
  // buckets stop at the end of the sorted prefix.
  std::size_t k = 0;
  std::size_t i = b.head;
  for (const Block* blk = b.first;; blk = blk->next, i = 0) {
    const std::size_t end = blk == b.last ? b.fill : kBlockEntries;
    std::size_t stop = end;
    if (cap - k < stop - i) stop = i + static_cast<std::size_t>(cap - k);
    if (shift_ != 0) {
      std::size_t j = i;
      while (j < stop && blk->items[j].at == t) ++j;
      stop = j;
    }
    if (tick_items_.size() < k + (stop - i)) {
      tick_items_.resize(k + (stop - i));
    }
    TickItem* out = tick_items_.data() + k;
    for (std::size_t j = i; j < stop; ++j, ++out) {
      const Entry& e = blk->items[j];
      if (e.ref & kDeliverBit) {
        const std::uint32_t idx = e.ref & ~kDeliverBit;
        const DeliverPayload& p = payload(idx);
        *out = TickItem{&p.msg, e.seq, p.from, p.to, idx,
                        Event::Kind::Deliver};
      } else {
        *out = TickItem{nullptr, e.seq, -1, -1, e.ref,
                        Event::Kind::Callback};
      }
    }
    k += stop - i;
    if (stop < end || blk == b.last) break;
  }
  tick_open_ = true;
  tick_count_ = k;
  tick_day_ = cursor_day_;
  return TickSpan{t, tick_items_.data(), k};
}

void EventQueue::commit_tick(std::size_t consumed) {
  HYCO_CHECK(tick_open_);
  HYCO_CHECK_MSG(consumed <= tick_count_,
                 "commit_tick(" << consumed << ") exceeds span of "
                                << tick_count_);
  tick_open_ = false;
  for (std::size_t i = 0; i < consumed; ++i) {
    const TickItem& it = tick_items_[i];
    if (it.kind == Event::Kind::Deliver) pending_frees_.push_back(it.slot);
  }
  if (consumed != 0) consume(buckets_[tick_day_ & mask_], consumed);
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

EventQueue::Bucket& EventQueue::activate_slow() {
  if (cal_count_ == 0) migrate_from_heap();
  for (std::uint64_t scanned = 0; scanned <= nb_; ++scanned) {
    Bucket& b = buckets_[cursor_day_ & mask_];
    if (b.first != nullptr) {
      if (b.dirty) {
        // Sort the pending entries in a scratch copy and write them back
        // into the same slots.
        sort_scratch_.clear();
        for_each_pending(b, [&](Entry& e) { sort_scratch_.push_back(e); });
        std::sort(sort_scratch_.begin(), sort_scratch_.end(),
                  [](const Entry& a, const Entry& c) {
                    return a.at != c.at ? a.at < c.at : a.seq < c.seq;
                  });
        const Entry* next = sort_scratch_.data();
        for_each_pending(b, [&](Entry& e) { e = *next++; });
        b.dirty = false;
      }
      return b;
    }
    ++cursor_day_;
  }
  HYCO_CHECK_MSG(false, "calendar cursor ran off the window (count "
                            << cal_count_ << ")");
  return buckets_.front();  // unreachable
}

void EventQueue::migrate_from_heap() {
  HYCO_CHECK_MSG(!heap_.empty(), "migrate with an empty overflow heap");
  maybe_widen();
  base_day_ = day(key_at(heap_.front()));
  cursor_day_ = base_day_;
  const std::uint64_t end_day = base_day_ + nb_;
  // Heap pops come out in increasing (at, seq), so per-bucket appends stay
  // sorted and never set `dirty`.
  while (!heap_.empty()) {
    const Key k = heap_.front();
    const SimTime at = key_at(k);
    const std::uint64_t d = day(at);
    if (d >= end_day) break;
    const std::uint32_t ref = refs_.front();
    heap_pop_top();
    append_to_bucket(buckets_[d & mask_], at, key_seq(k), ref);
  }
  overflow_pushes_ = 0;
}

void EventQueue::maybe_widen() {
  if (overflow_pushes_ < widen_threshold_mult_ * nb_) return;
  // The calendar is empty here (we only widen at migration time), so the
  // geometry can change freely: no entry needs remapping.
  if (bucket_bits_ < max_bucket_bits_) {
    ++bucket_bits_;
    nb_ <<= 1;
    mask_ = nb_ - 1;
    buckets_.resize(nb_);
  } else if (shift_ < max_shift_) {
    ++shift_;
  }
}

void EventQueue::rebuild_with(const Entry& extra) {
  // A push landed before the current window with other events still live —
  // raw-queue test workloads only (the simulator never schedules into the
  // past). Re-route everything around a window based at the new minimum.
  HYCO_CHECK_MSG(!tick_open_, "cannot push before the open tick's window");
  std::vector<Entry> all;
  all.reserve(cal_count_ + heap_.size() + 1);
  for (Bucket& b : buckets_) {
    if (b.first == nullptr) continue;
    for_each_pending(b, [&](Entry& e) { all.push_back(e); });
    for (Block* blk = b.first; blk != b.last;) {
      Block* next = blk->next;
      release_block(blk);
      blk = next;
    }
    release_block(b.last);
    b = Bucket{};
  }
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    all.push_back(Entry{key_at(heap_[i]), key_seq(heap_[i]), refs_[i]});
  }
  heap_.clear();
  refs_.clear();
  all.push_back(extra);
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& c) {
    return a.at != c.at ? a.at < c.at : a.seq < c.seq;
  });
  cal_count_ = 0;
  overflow_pushes_ = 0;
  base_day_ = cursor_day_ = day(all.front().at);
  const std::uint64_t end_day = base_day_ + nb_;
  for (const Entry& e : all) {
    const std::uint64_t d = day(e.at);
    if (d < end_day) {
      append_to_bucket(buckets_[d & mask_], e.at, e.seq, e.ref);
    } else {
      heap_push(make_key(e.at, e.seq), e.ref);
    }
  }
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
