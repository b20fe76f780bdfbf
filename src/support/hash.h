#pragma once
// Word-parallel 64-bit non-cryptographic hash: the published XXH64 algorithm
// (Yann Collet, xxHash), implemented in-tree so the build needs no extra
// dependency. Four striped 64-bit accumulators consume 32 bytes per round, so
// it hashes an order of magnitude faster than byte-serial FNV-1a. Used for
// in-process integrity checks (transport message checksums); the on-disk
// formats keep FNV-1a (nn/checkpoint_io.h) so their bytes never change.
//
// Words are read in host byte order, so results match the published reference
// vectors on little-endian hosts. The transport only compares hashes made in
// the same process, where byte order cannot differ.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>

namespace apa {

namespace hash_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

template <typename Word>
inline Word read_word(const unsigned char* p) {
  Word word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

inline std::uint64_t xxh_merge_round(std::uint64_t hash, std::uint64_t acc) {
  return (hash ^ xxh_round(0, acc)) * kP1 + kP4;
}

}  // namespace hash_detail

/// XXH64 of `size` bytes at `data`, chained through `seed`. Deterministic
/// across runs.
[[nodiscard]] inline std::uint64_t hash64(const void* data, std::size_t size,
                                          std::uint64_t seed = 0) {
  using namespace hash_detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t hash = 0;
  if (size >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, read_word<std::uint64_t>(p));
      v2 = xxh_round(v2, read_word<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, read_word<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, read_word<std::uint64_t>(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    for (const std::uint64_t acc : {v1, v2, v3, v4}) {
      hash = xxh_merge_round(hash, acc);
    }
  } else {
    hash = seed + kP5;
  }
  hash += static_cast<std::uint64_t>(size);
  for (; end - p >= 8; p += 8) {
    hash ^= xxh_round(0, read_word<std::uint64_t>(p));
    hash = std::rotl(hash, 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    hash ^= static_cast<std::uint64_t>(read_word<std::uint32_t>(p)) * kP1;
    hash = std::rotl(hash, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= static_cast<std::uint64_t>(*p) * kP5;
    hash = std::rotl(hash, 11) * kP1;
  }
  hash ^= hash >> 33;
  hash *= kP2;
  hash ^= hash >> 29;
  hash *= kP3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace apa
