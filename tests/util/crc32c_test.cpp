#include "util/crc32c.hpp"

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace graphsd {
namespace {

std::uint32_t CrcOf(const std::string& s) {
  return Crc32c(0, s.data(), s.size());
}

TEST(Crc32c, MatchesRfc3720CheckVector) {
  // The canonical CRC32C (Castagnoli) check value, e.g. RFC 3720 §B.4.
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);
}

TEST(Crc32c, PortablePathMatchesRfc3720CheckVector) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32cPortable(0, check.data(), check.size()), 0xE3069283u);
}

// The dispatched path (the SSE4.2 instruction where the CPU has it) against
// the portable table path, which is the oracle: lengths from 0 to 4 KiB in
// random steps, at each of the 16 start offsets off a 16-byte-aligned
// base, so the 8-byte main loop sees every alignment and tail length.
TEST(Crc32c, DispatchedMatchesPortableAtEveryOffset) {
  std::mt19937_64 rng(0xC4C32Cu);
  alignas(16) static std::uint8_t data[4096 + 16];
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
  std::uniform_int_distribution<std::size_t> step(1, 97);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 4096; len += step(rng)) {
      const std::uint8_t* start = data + offset;
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(Crc32c(0, start, len), Crc32cPortable(0, start, len))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32c(seed, start, len), Crc32cPortable(seed, start, len))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32c, DispatchedIncrementalSplitsMatchPortable) {
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> data(1024 + 3);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = Crc32cPortable(0, data.data(), data.size());
  std::uniform_int_distribution<std::size_t> piece(0, 40);
  for (int trial = 0; trial < 200; ++trial) {
    // Random split points, one chunk chained into the next.
    std::uint32_t crc = 0;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n = std::min(piece(rng), data.size() - pos);
      crc = Crc32c(crc, data.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(CrcOf(""), 0u);
  EXPECT_EQ(Crc32c(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32c, IncrementalEqualsOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = CrcOf(text);
  for (std::size_t split = 0; split <= text.size(); split += 7) {
    std::uint32_t crc = Crc32c(0, text.data(), split);
    crc = Crc32c(crc, text.data() + split, text.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, SpanOverloadMatchesPointerOverload) {
  const std::vector<std::uint8_t> data = {0x00, 0xFF, 0x42, 0x13, 0x37};
  EXPECT_EQ(Crc32c(std::span<const std::uint8_t>(data)),
            Crc32c(0, data.data(), data.size()));
}

TEST(Crc32c, DetectsSingleBitFlips) {
  // Every single-bit corruption of a small payload must change the CRC —
  // this is the property the dataset verifier relies on.
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t clean = Crc32c(std::span<const std::uint8_t>(data));
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(std::span<const std::uint8_t>(data)), clean)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Crc32c, DetectsSwappedBlocks) {
  // CRCs of concatenations must be order-sensitive.
  EXPECT_NE(CrcOf("abcdef"), CrcOf("defabc"));
}

}  // namespace
}  // namespace graphsd
