#include "util/bitset.h"

#include <bit>
#include <sstream>

#include "util/assert.h"

namespace hyco {

DynamicBitset::DynamicBitset(std::size_t universe_size)
    : size_(universe_size), words_((universe_size + kBits - 1) / kBits, 0) {}

void DynamicBitset::out_of_range(std::size_t pos) const {
  std::ostringstream os;
  os << "bit index " << pos << " out of range (size " << size_ << ")";
  detail::contract_failed("pos < size_", __FILE__, __LINE__, os.str());
}

void DynamicBitset::check_same_universe(const DynamicBitset& other) const {
  HYCO_CHECK_MSG(size_ == other.size_, "bitset universe mismatch: "
                                           << size_ << " vs " << other.size_);
}

void DynamicBitset::set(std::size_t pos) {
  check_pos(pos);
  words_[pos / kBits] |= (std::uint64_t{1} << (pos % kBits));
}

void DynamicBitset::reset(std::size_t pos) {
  check_pos(pos);
  words_[pos / kBits] &= ~(std::uint64_t{1} << (pos % kBits));
}

void DynamicBitset::assign(std::size_t pos, bool value) {
  if (value) {
    set(pos);
  } else {
    reset(pos);
  }
}

void DynamicBitset::set_all() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  // Clear the bits past the end of the universe in the last word.
  const std::size_t tail = size_ % kBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

void DynamicBitset::clear_all() {
  for (auto& w : words_) w = 0;
}

std::size_t DynamicBitset::count() const {
  std::size_t total = 0;
  for (const auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator-=(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool DynamicBitset::is_subset_of(const DynamicBitset& other) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool DynamicBitset::intersects(const DynamicBitset& other) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

std::vector<std::size_t> DynamicBitset::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t i = 0; i < size_; ++i) {
    if (test(i)) out.push_back(i);
  }
  return out;
}

std::string DynamicBitset::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto i : to_indices()) {
    if (!first) os << ',';
    os << i;
    first = false;
  }
  os << '}';
  return os.str();
}

}  // namespace hyco
