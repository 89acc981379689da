#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace spate {
namespace {

/// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
/// table-driven word loop must agree with.
uint32_t ReferenceCrc32(Slice data, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < data.size(); ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
    }
  }
  return ~crc;
}

std::string RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next());
  return out;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(Crc32(Slice("")), 0x00000000u);
  EXPECT_EQ(Crc32(Slice("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(Slice("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32Test, SensitiveToSingleBitFlips) {
  std::string data(1024, 'a');
  const uint32_t base = Crc32(data);
  data[512] ^= 1;
  EXPECT_NE(Crc32(data), base);
}

TEST(Crc32Test, SeedChainingMatchesOneShot) {
  const std::string data = "hello, spate telco big data";
  const uint32_t one_shot = Crc32(data);
  const uint32_t part1 = Crc32(Slice(data.data(), 10));
  const uint32_t chained = Crc32(Slice(data.data() + 10, data.size() - 10),
                                 part1);
  EXPECT_EQ(chained, one_shot);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // Every length from 0 to 257 at each of 8 start offsets covers the 8-byte
  // loop's every tail length and every alignment of its word loads.
  const std::string buf = RandomBytes(23, 8 + 257);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 257; ++len) {
      const Slice data(buf.data() + start, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data, 0))
          << "start " << start << " length " << len;
      ASSERT_EQ(Crc32(data, 0x9e3779b9u), ReferenceCrc32(data, 0x9e3779b9u))
          << "start " << start << " length " << len;
    }
  }
}

TEST(Crc32Test, SeedChainingAtEverySplit) {
  const std::string buf = RandomBytes(7, 300);
  const uint32_t one_shot = Crc32(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(Slice(buf.data(), split));
    EXPECT_EQ(Crc32(Slice(buf.data() + split, buf.size() - split), head),
              one_shot)
        << "split " << split;
  }
}

TEST(Crc32Test, BinaryData) {
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  EXPECT_EQ(Crc32(data), Crc32(data));
  EXPECT_NE(Crc32(data), 0u);
}

}  // namespace
}  // namespace spate
