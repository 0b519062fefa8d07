#include "util/rng.h"

#include <cmath>

#include "util/assert.h"

namespace hyco {

UniformDraw::UniformDraw(std::int64_t lo, std::int64_t hi)
    : base_(static_cast<std::uint64_t>(lo)),
      span_(static_cast<std::uint64_t>(hi) - base_ + 1),
      threshold_(span_ <= 1 ? 0 : (~span_ + 1) % span_),
      magic_(span_ <= 1 ? 0
                        : ~static_cast<unsigned __int128>(0) / span_ + 1) {
  HYCO_CHECK_MSG(lo <= hi, "bad uniform range [" << lo << ',' << hi << ']');
}

double Rng::exponential(double mean) {
  HYCO_CHECK_MSG(mean > 0.0, "exponential mean must be positive");
  // Inverse-CDF sampling; 1 - u avoids log(0).
  const double u = next_double();
  return -mean * std::log1p(-u);
}

}  // namespace hyco
