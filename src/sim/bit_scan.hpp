// Next-set-bit scans over a packed std::uint64_t bitmap: schedulers keep one
// bit per queue (backlogged or not) and jump straight to the next queue with
// work instead of visiting every configured one, the idiom
// EventQueue::next_occupied_slot uses for the timer wheel.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace moongen::sim {

/// Words needed for an `n`-bit bitmap.
constexpr std::size_t bitmap_words(std::size_t n) { return (n + 63) / 64; }

inline void assign_bit(std::vector<std::uint64_t>& words, std::size_t i, bool value) {
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if (value) {
    words[i >> 6] |= mask;
  } else {
    words[i >> 6] &= ~mask;
  }
}

[[nodiscard]] inline bool test_bit(const std::vector<std::uint64_t>& words, std::size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}

/// Index of the first set bit in [from, to), or `to` if there is none.
[[nodiscard]] inline std::size_t next_set_bit(const std::vector<std::uint64_t>& words,
                                              std::size_t from, std::size_t to) {
  if (from >= to) return to;
  std::size_t w = from >> 6;
  std::uint64_t word = words[w] & (~std::uint64_t{0} << (from & 63));
  const std::size_t last = (to - 1) >> 6;
  for (;;) {
    if (word != 0) {
      const std::size_t i = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      return i < to ? i : to;
    }
    if (w == last) return to;
    word = words[++w];
  }
}

/// Circular scan of an `n`-bit bitmap: the first set bit at or after `from`,
/// wrapping past n-1 to 0. Returns `n` if no bit is set.
[[nodiscard]] inline std::size_t next_set_bit_circular(const std::vector<std::uint64_t>& words,
                                                       std::size_t n, std::size_t from) {
  const std::size_t i = next_set_bit(words, from, n);
  if (i != n) return i;
  const std::size_t j = next_set_bit(words, 0, from);
  return j != from ? j : n;
}

}  // namespace moongen::sim
