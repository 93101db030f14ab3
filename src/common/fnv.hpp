// 64-bit FNV-1a, the repo's one digest of byte streams: the replay and
// serving result-stream digests, the tanh/exp sweep digests of the tests
// and the Rng's string-tag forks all fold their bytes through it.
#pragma once

#include <cstdint>
#include <string_view>

namespace explora::common {

/// The digest of the empty stream (the FNV offset basis).
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// Folds one byte into `digest`.
constexpr void fnv1a_byte(std::uint64_t& digest, std::uint8_t byte) noexcept {
  digest ^= byte;
  digest *= 1099511628211ULL;
}

/// Folds the 8 bytes of `word`, least significant first.
constexpr void fnv1a_word(std::uint64_t& digest, std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    fnv1a_byte(digest, static_cast<std::uint8_t>(word >> (8 * i)));
  }
}

/// Folds every char of `text` as an unsigned byte.
constexpr void fnv1a_text(std::uint64_t& digest,
                          std::string_view text) noexcept {
  for (const char c : text) fnv1a_byte(digest, static_cast<std::uint8_t>(c));
}

}  // namespace explora::common
