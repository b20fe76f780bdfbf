#include "support/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/rng.h"

namespace apa {
namespace {

std::uint64_t hash_str(std::string_view text, std::uint64_t seed = 0) {
  return hash64(text.data(), text.size(), seed);
}

TEST(Hash64, MatchesXxh64ReferenceVectors) {
  EXPECT_EQ(hash_str(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(hash_str("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(hash_str("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(hash_str("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Hash64, SeedChangesHash) {
  EXPECT_NE(hash_str("abc", 0), hash_str("abc", 1));
  EXPECT_NE(hash_str("Nobody inspects the spammish repetition", 0),
            hash_str("Nobody inspects the spammish repetition", 42));
}

TEST(Hash64, EverySingleBitFlipChangesHash) {
  constexpr std::size_t kSize = 4109;  // stripes plus every tail length
  std::vector<unsigned char> buf(kSize);
  Rng rng(7);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.next_u64());
  const std::uint64_t base = hash64(buf.data(), buf.size());
  int checked = 0;
  for (std::size_t i = 0; i < kSize; ++i) {
    if (i >= 64 && i < kSize - 64 && i % 97 != 0) continue;
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(hash64(buf.data(), buf.size()), base)
          << "byte " << i << " bit " << bit;
      buf[i] ^= static_cast<unsigned char>(1u << bit);
      ++checked;
    }
  }
  EXPECT_GT(checked, 8 * 128);
  EXPECT_EQ(hash64(buf.data(), buf.size()), base);
}

}  // namespace
}  // namespace apa
