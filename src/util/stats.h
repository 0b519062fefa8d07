// Small statistics toolkit for experiment harnesses: online accumulators,
// percentile summaries, exact moments and mergeable reservoirs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hyco {

/// Online mean/variance accumulator (Welford), plus min/max.
class Accumulator {
 public:
  void add(double x);

  /// Folds another accumulator in (Chan et al. parallel Welford combine).
  /// Note floating-point merge is grouping-sensitive: merge partials in a
  /// fixed order when bit-stable output matters (or use ExactMoments).
  void merge(const Accumulator& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile summary over a retained sample vector.
class Summary {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Linear-interpolated percentile, q in [0, 100].
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// One-line rendering: "n=100 mean=2.31 sd=0.88 p50=2 p95=4 max=7".
  [[nodiscard]] std::string to_string() const;

 private:
  // Samples are sorted in place on demand (order carries no information
  // here), so the summary holds one copy of the data, not two — large
  // sweeps retain millions of samples across their cells.
  void ensure_sorted() const;
  mutable std::vector<double> xs_;
  mutable bool sorted_ = true;
};

/// Exact first/second moments over non-negative integer samples. Sums are
/// held in 128-bit integers, so mean/variance are pure functions of the
/// sample *multiset* — merging partial accumulators in any order or
/// grouping yields bit-identical results, which is what makes streaming
/// grid execution byte-stable at any thread count. Safe for values < 2^40
/// and counts < 2^24 (sum of squares then stays below 2^124).
class ExactMoments {
 public:
  using U128 = unsigned __int128;

  void add(std::uint64_t x);
  void merge(const ExactMoments& other);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Raw state, for checkpoint serialization.
  [[nodiscard]] U128 raw_sum() const { return sum_; }
  [[nodiscard]] U128 raw_sumsq() const { return sumsq_; }
  [[nodiscard]] std::uint64_t raw_min() const { return min_; }
  [[nodiscard]] std::uint64_t raw_max() const { return max_; }
  static ExactMoments from_raw(std::uint64_t count, U128 sum, U128 sumsq,
                               std::uint64_t min, std::uint64_t max);

 private:
  std::uint64_t n_ = 0;
  U128 sum_ = 0;
  U128 sumsq_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Deterministic mergeable reservoir: bottom-k selection by a caller-supplied
/// 64-bit priority (Efraimidis–Spirakis style). When priorities are a pure
/// hash of each sample's identity (e.g. its run seed), the kept set is a
/// uniform random sample that does not depend on arrival order, merge
/// grouping, or thread count — and while the stream is no longer than
/// `capacity`, it is the complete sample set, so quantiles are exact.
/// Ties on priority break on value, keeping the result a pure function of
/// the input multiset.
class ReservoirSample {
 public:
  struct Entry {
    std::uint64_t priority = 0;
    double value = 0.0;
  };

  explicit ReservoirSample(std::size_t capacity);

  void add(std::uint64_t priority, double value);
  void merge(const ReservoirSample& other);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Kept values sorted ascending (the quantile estimator's input).
  /// Cached between mutations: report emission asks for several quantiles
  /// per metric, and re-sorting 1024 entries per call would dominate
  /// emission on large grids.
  [[nodiscard]] const std::vector<double>& sorted_values() const;
  /// Kept entries in unspecified order, for checkpoint serialization.
  [[nodiscard]] const std::vector<Entry>& entries() const { return heap_; }

 private:
  std::size_t capacity_;
  std::vector<Entry> heap_;  ///< max-heap on (priority, value)
  mutable std::vector<double> sorted_cache_;
  mutable bool cache_valid_ = false;
};

}  // namespace hyco
