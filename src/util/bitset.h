// A dynamically-sized bitset used for process sets, cluster sets, and crash
// masks. std::bitset is fixed-size and std::vector<bool> lacks popcount and
// set-algebra, hence this small dedicated type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hyco {

/// Fixed-universe dynamic bitset with set algebra and population count.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset over the universe {0, ..., universe_size-1}, all clear.
  explicit DynamicBitset(std::size_t universe_size);

  /// Number of positions in the universe (not the number of set bits).
  [[nodiscard]] std::size_t size() const { return size_; }

  void set(std::size_t pos);
  void reset(std::size_t pos);
  void assign(std::size_t pos, bool value);
  /// Inline: the network tests a receiver's crash bit on every delivery.
  [[nodiscard]] bool test(std::size_t pos) const {
    check_pos(pos);
    return (words_[pos / kBits] >> (pos % kBits)) & 1U;
  }

  /// Sets or clears every bit.
  void set_all();
  void clear_all();

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;

  [[nodiscard]] bool any() const { return count() > 0; }
  [[nodiscard]] bool none() const { return count() == 0; }
  [[nodiscard]] bool all() const { return count() == size_; }

  /// In-place set union / intersection / difference. Operands must share the
  /// same universe size.
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator-=(const DynamicBitset& other);

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }

  bool operator==(const DynamicBitset& other) const = default;

  /// True iff every set bit of this set is also set in `other`.
  [[nodiscard]] bool is_subset_of(const DynamicBitset& other) const;

  /// True iff the two sets share at least one element.
  [[nodiscard]] bool intersects(const DynamicBitset& other) const;

  /// Indices of set bits in increasing order.
  [[nodiscard]] std::vector<std::size_t> to_indices() const;

  /// E.g. "{0,3,4}" — for logs and test failure messages.
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::size_t kBits = 64;
  void check_pos(std::size_t pos) const {
    if (pos >= size_) out_of_range(pos);
  }
  [[noreturn]] void out_of_range(std::size_t pos) const;
  void check_same_universe(const DynamicBitset& other) const;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hyco
