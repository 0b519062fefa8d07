#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/assert.h"

namespace hyco {

void Summary::add(double x) {
  // Appending in sorted position would be O(n); instead just note that the
  // order is no longer sorted and defer to the next percentile query.
  if (sorted_ && !xs_.empty() && x < xs_.back()) sorted_ = false;
  xs_.push_back(x);
}

void Summary::add_all(const std::vector<double>& xs) {
  for (const double x : xs) add(x);
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Summary::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Summary::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (const double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double Summary::min() const {
  ensure_sorted();
  return xs_.empty() ? 0.0 : xs_.front();
}

double Summary::max() const {
  ensure_sorted();
  return xs_.empty() ? 0.0 : xs_.back();
}

double Summary::percentile(double q) const {
  HYCO_CHECK_MSG(q >= 0.0 && q <= 100.0, "percentile " << q << " out of range");
  ensure_sorted();
  if (xs_.empty()) return 0.0;
  if (xs_.size() == 1) return xs_[0];
  const double rank = q / 100.0 * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

std::string Summary::to_string() const {
  std::ostringstream os;
  os << std::setprecision(4) << "n=" << count() << " mean=" << mean()
     << " sd=" << stddev() << " p50=" << percentile(50) << " p95="
     << percentile(95) << " max=" << max();
  return os.str();
}

void ExactMoments::add(std::uint64_t x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  sumsq_ += static_cast<U128>(x) * x;
}

void ExactMoments::merge(const ExactMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  n_ += other.n_;
  sum_ += other.sum_;
  sumsq_ += other.sumsq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double ExactMoments::mean() const {
  return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
}

double ExactMoments::variance() const {
  if (n_ < 2) return 0.0;
  // n*sumsq - sum^2 >= 0 (Cauchy–Schwarz over exact integers), so the
  // subtraction is exact and cancellation-free.
  const U128 num = static_cast<U128>(n_) * sumsq_ - sum_ * sum_;
  return static_cast<double>(num) /
         (static_cast<double>(n_) * static_cast<double>(n_ - 1));
}

double ExactMoments::stddev() const { return std::sqrt(variance()); }

double ExactMoments::min() const {
  return n_ == 0 ? 0.0 : static_cast<double>(min_);
}

double ExactMoments::max() const {
  return n_ == 0 ? 0.0 : static_cast<double>(max_);
}

ExactMoments ExactMoments::from_raw(std::uint64_t count, U128 sum, U128 sumsq,
                                    std::uint64_t min, std::uint64_t max) {
  ExactMoments m;
  m.n_ = count;
  m.sum_ = sum;
  m.sumsq_ = sumsq;
  m.min_ = min;
  m.max_ = max;
  return m;
}

namespace {

/// Heap order for the reservoir: the *largest* key sits at the top so it is
/// the one evicted when a smaller key arrives.
bool reservoir_less(const ReservoirSample::Entry& a,
                    const ReservoirSample::Entry& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.value < b.value;
}

}  // namespace

ReservoirSample::ReservoirSample(std::size_t capacity) : capacity_(capacity) {
  HYCO_CHECK_MSG(capacity >= 1, "reservoir capacity must be >= 1");
  heap_.reserve(capacity);
}

void ReservoirSample::add(std::uint64_t priority, double value) {
  const Entry e{priority, value};
  if (heap_.size() < capacity_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), reservoir_less);
    cache_valid_ = false;
    return;
  }
  if (!reservoir_less(e, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), reservoir_less);
  heap_.back() = e;
  std::push_heap(heap_.begin(), heap_.end(), reservoir_less);
  cache_valid_ = false;
}

void ReservoirSample::merge(const ReservoirSample& other) {
  HYCO_CHECK_MSG(capacity_ == other.capacity_,
                 "cannot merge reservoirs of capacity "
                     << capacity_ << " and " << other.capacity_);
  for (const Entry& e : other.heap_) add(e.priority, e.value);
}

const std::vector<double>& ReservoirSample::sorted_values() const {
  if (!cache_valid_) {
    sorted_cache_.clear();
    sorted_cache_.reserve(heap_.size());
    for (const Entry& e : heap_) sorted_cache_.push_back(e.value);
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    cache_valid_ = true;
  }
  return sorted_cache_;
}

}  // namespace hyco
