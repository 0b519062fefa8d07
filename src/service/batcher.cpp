#include "service/batcher.h"

#include <utility>

#include "util/assert.h"

namespace hyco {

Batcher::Batcher(Simulator& sim, std::size_t batch_max, SimTime batch_delay,
                 FlushFn flush)
    : sim_(sim),
      batch_max_(batch_max),
      batch_delay_(batch_delay),
      flush_fn_(std::move(flush)) {
  HYCO_CHECK_MSG(batch_max_ >= 1, "batch_max must be >= 1");
}

void Batcher::add(std::uint64_t op_id) {
  buf_.push_back(op_id);
  if (buf_.size() >= batch_max_ || batch_delay_ <= 0) {
    flush();
    return;
  }
  if (buf_.size() == 1) {
    sim_.schedule_in(batch_delay_, [this, epoch = epoch_] {
      if (epoch == epoch_ && !buf_.empty()) flush();
    });
  }
}

void Batcher::flush() {
  ++epoch_;
  std::vector<std::uint64_t> out;
  out.swap(buf_);
  flush_fn_(std::move(out));
}

}  // namespace hyco
